"""Behavioural tests for the HBase simulation."""

import pytest

from repro.hbase import HBaseCluster, HBaseConfig, HBaseOp
from repro.ycsb import ClientPool, write_heavy


def make_cluster(**kwargs):
    kwargs.setdefault("n_servers", 4)
    kwargs.setdefault("seed", 9)
    return HBaseCluster(**kwargs)


def start_clients(cluster, n_clients=12, think=0.03, seed=3, records=4000, **pool_kwargs):
    def submit(_node, op):
        kind = "read" if op.kind == "read" else "write"
        return cluster.submit(
            HBaseOp(kind, op.key, value="v", value_bytes=op.value_bytes)
        )

    return ClientPool(
        cluster.env,
        write_heavy(record_count=records),
        submit,
        list(cluster.regionservers),
        n_clients=n_clients,
        think_time_s=think,
        seed=seed,
        **pool_kwargs,
    )


def stage_synopses(cluster, stage_name, host_name=None):
    stage = cluster.saad.stages.by_name(stage_name)
    host_ids = cluster.saad.host_names
    return [
        s
        for s in cluster.saad.collector.synopses
        if s.stage_id == stage.stage_id
        and (host_name is None or host_ids[s.host_id] == host_name)
    ]


@pytest.fixture(scope="class")
def healthy_run():
    """One default cluster under the default clients for 60 s, shared by
    the tests that only inspect it."""
    cluster = make_cluster()
    pool = start_clients(cluster)
    cluster.run(until=60.0)
    return cluster, pool


class TestHealthyCluster:
    def test_ops_succeed(self, healthy_run):
        _cluster, pool = healthy_run
        records = pool.meter.records
        assert records
        assert sum(r.ok for r in records) / len(records) > 0.99

    def test_region_skew_favors_first_two_servers(self):
        cluster = make_cluster()
        counts = {name: len(rs.regions) for name, rs in cluster.regionservers.items()}
        assert counts["host1"] > counts["host3"]
        assert counts["host2"] > counts["host4"]

    def test_routing_is_by_region_owner(self):
        cluster = make_cluster()
        key = "user000000000001"
        owner = cluster.region_owner[cluster.region_name_for(key)]
        assert owner in cluster.regionservers

    def test_call_and_handler_stages_emit(self, healthy_run):
        cluster, _pool = healthy_run
        assert stage_synopses(cluster, "Call")
        assert stage_synopses(cluster, "Handler")

    def test_memstore_flush_creates_storefiles_and_pipeline_tasks(self):
        config = HBaseConfig(memstore_flush_bytes=128 * 1024, n_regions=4)
        cluster = make_cluster(config=config)
        start_clients(cluster, n_clients=16, think=0.01)
        cluster.run(until=120.0)
        storefiles = sum(
            len(r.storefiles)
            for rs in cluster.regionservers.values()
            for r in rs.regions.values()
        )
        assert storefiles > 0
        assert stage_synopses(cluster, "MemStoreFlusher")
        # Flush files go through the HDFS pipeline: closed-block tasks.
        assert stage_synopses(cluster, "DataXceiver")

    def test_minor_compaction_runs_under_write_load(self):
        config = HBaseConfig(
            memstore_flush_bytes=96 * 1024,
            n_regions=4,
            storefile_compact_threshold=3,
            compaction_check_interval_s=5.0,
        )
        cluster = make_cluster(config=config)
        start_clients(cluster, n_clients=16, think=0.01)
        cluster.run(until=240.0)
        assert stage_synopses(cluster, "CompactionRequest")


@pytest.fixture(scope="class")
def crash_scenario():
    """The 150 s run with host3's WAL failed at 30 s, shared by the tests
    that only inspect it."""
    cluster = make_cluster()
    pool = start_clients(cluster)

    def trigger():
        yield cluster.env.timeout(30.0)
        cluster.regionservers["host3"].force_wal_failure()

    cluster.env.process(trigger())
    cluster.run(until=150.0)
    return cluster, pool


class TestCrashAndFailover:
    def test_forced_wal_failure_aborts_server(self, crash_scenario):
        cluster, _pool = crash_scenario
        rs3 = cluster.regionservers["host3"]
        assert not rs3.alive
        assert rs3.abort_reason == "premature recovery termination"
        assert all(
            cluster.regionservers[n].alive for n in ("host1", "host2", "host4")
        )

    def test_recovery_storm_hits_local_datanode(self, crash_scenario):
        cluster, _pool = crash_scenario
        lps = cluster.hdfs.lps
        storm = [
            s
            for s in stage_synopses(cluster, "RecoverBlocks", "host3")
            if lps.rb_in_progress.lpid in s.signature
        ]
        assert storm, "expected repeated in-progress recovery replies on host3"

    def test_regions_reassigned_to_survivors(self, crash_scenario):
        cluster, _pool = crash_scenario
        assert cluster.master.reassignments
        for region, dead, target in cluster.master.reassignments:
            assert dead == "host3"
            assert target != "host3"
            assert region in cluster.regionservers[target].regions
        assert stage_synopses(cluster, "OpenRegionHandler")
        assert stage_synopses(cluster, "PostOpenDeployTasksThread")
        assert stage_synopses(cluster, "SplitLogWorker")

    def test_throughput_recovers_after_reassignment(self, crash_scenario):
        cluster, pool = crash_scenario
        before = pool.meter.mean_throughput(5.0, 30.0)
        after = pool.meter.mean_throughput(90.0, 150.0)
        assert after > 0.75 * before


class TestHogFault:
    def test_medium_hog_slows_gets_but_no_crash(self):
        cluster = make_cluster()
        pool = start_clients(cluster)
        schedule = cluster.hog_schedule([(60.0, 180.0, 2)])
        schedule.start()
        cluster.run(until=180.0)
        assert all(rs.alive for rs in cluster.regionservers.values())
        reads_before = [
            r.latency for r in pool.meter.records
            if r.kind == "read" and r.ok and r.time < 60.0
        ]
        reads_during = [
            r.latency for r in pool.meter.records
            if r.kind == "read" and r.ok and r.time >= 60.0
        ]
        assert reads_before and reads_during
        median = lambda v: sorted(v)[len(v) // 2]
        assert median(reads_during) > 1.2 * median(reads_before)


class TestPutBatching:
    def test_batched_clients_produce_fewer_syncs(self):
        """The YCSB 0.1.4 put-batching misconfiguration (Sec. 5.5)."""

        def run(batching):
            cluster = make_cluster()

            def submit_batch(_node, ops):
                first = ops[0]
                return cluster.submit(
                    HBaseOp(
                        "write",
                        first.key,
                        value="v",
                        value_bytes=first.value_bytes,
                        edits=len(ops),
                    )
                )

            pool = start_clients(
                cluster,
                put_batching=batching,
                batch_size=40,
                batch_flush_interval_s=15.0,
                submit_batch=submit_batch,
            )
            cluster.run(until=90.0)
            syncs = len(
                [
                    s
                    for s in stage_synopses(cluster, "Handler")
                    if cluster.lps.ha_sync_start.lpid in s.signature
                ]
            )
            return syncs

        unbatched = run(False)
        batched = run(True)
        assert batched < unbatched * 0.6
