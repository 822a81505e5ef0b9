"""Behavioural tests for the Cassandra simulation, including the paper's
Sec. 5.4 fault-propagation stories."""

import pytest

from repro.cassandra import CassandraCluster, CassandraConfig, ClientOp
from repro.simsys import FaultSpec, HIGH_INTENSITY, LOW_INTENSITY
from repro.ycsb import ClientPool, write_heavy


def make_cluster(**kwargs):
    kwargs.setdefault("n_nodes", 4)
    kwargs.setdefault("seed", 11)
    return CassandraCluster(**kwargs)


def start_clients(cluster, n_clients=10, seed=5, think=0.05, records=2000):
    def submit(node_name, op):
        return cluster.nodes[node_name].client_request(
            ClientOp(op.kind, op.key, value=f"v-{op.key}", nbytes=op.value_bytes)
        )

    return ClientPool(
        cluster.env,
        write_heavy(record_count=records),
        submit,
        cluster.ring.node_names,
        n_clients=n_clients,
        think_time_s=think,
        seed=seed,
    )


def stage_synopses(cluster, stage_name, host_name=None):
    stage = cluster.saad.stages.by_name(stage_name)
    host_ids = cluster.saad.host_names
    out = []
    for s in cluster.saad.collector.synopses:
        if s.stage_id != stage.stage_id:
            continue
        if host_name is not None and host_ids[s.host_id] != host_name:
            continue
        out.append(s)
    return out


@pytest.fixture(scope="class")
def healthy_run():
    """One default cluster under the default clients, shared by the tests
    that only inspect it.

    The run pauses at 30 s and 60 s to keep what a run stopped there
    would have produced (a paused run resumes exactly as an uninterrupted
    one), then goes on to 90 s.
    """
    cluster = make_cluster()
    pool = start_clients(cluster)
    cluster.run(until=30.0)
    table_at_30s = stage_synopses(cluster, "Table")
    cluster.run(until=60.0)
    records_at_60s = list(pool.meter.records)
    cluster.run(until=90.0)
    return cluster, table_at_30s, records_at_60s


class TestHealthyCluster:
    def test_writes_and_reads_succeed(self, healthy_run):
        _cluster, _table_at_30s, records = healthy_run
        assert records
        ok_rate = sum(r.ok for r in records) / len(records)
        assert ok_rate > 0.99

    def test_written_value_is_readable(self):
        cluster = make_cluster()
        node = cluster.nodes["host1"]
        outcomes = {}

        def scenario():
            done = node.client_request(ClientOp("write", "user1", value="hello"))
            yield done
            outcomes["write"] = done.value
            yield cluster.env.timeout(0.5)
            read = node.client_request(ClientOp("read", "user1"))
            yield read
            outcomes["read"] = read.value

        cluster.env.process(scenario())
        cluster.run(until=10.0)
        assert outcomes["write"] is True
        assert outcomes["read"] is True

    def test_all_stages_emit_synopses(self, healthy_run):
        cluster, _table_at_30s, _records_at_60s = healthy_run
        seen = {
            cluster.saad.stages.get(s.stage_id).name
            for s in cluster.saad.collector.synopses
        }
        for stage in (
            "CassandraDaemon",
            "StorageProxy",
            "WorkerProcess",
            "Table",
            "LogRecordAdder",
            "GCInspector",
            "CommitLog",
            "LocalReadRunnable",
            "OutboundTcpConnection",
            "IncomingTcpConnection",
        ):
            assert stage in seen, f"no synopses from stage {stage}"

    def test_memtable_flushes_happen(self):
        cluster = make_cluster()
        start_clients(cluster, n_clients=16, think=0.02)
        cluster.run(until=120.0)
        assert sum(n.store.flushes_completed for n in cluster.node_list) > 0

    def test_table_signature_matches_paper_normal_flow(self, healthy_run):
        """Normal Table tasks hit start/apply/done (paper Table 1)."""
        cluster, table_at_30s, _records_at_60s = healthy_run
        lps = cluster.lps
        normal = frozenset(
            {lps.table_start.lpid, lps.table_apply.lpid, lps.table_done.lpid}
        )
        signatures = {s.signature for s in table_at_30s}
        assert normal in signatures


def run_with_wal_error(intensity, until=120.0, fault_start=30.0):
    cluster = make_cluster()
    pool = start_clients(cluster)
    schedule = cluster.fault_schedule_for("host4")
    schedule.add(fault_start, until, FaultSpec("wal", "error", intensity, host="host4"))
    schedule.start()
    cluster.run(until=until)
    return cluster, pool


@pytest.fixture(scope="class")
def high_wal_error():
    """The 120 s high-intensity WAL-error run, shared by the read-only tests."""
    cluster, _pool = run_with_wal_error(HIGH_INTENSITY)
    return cluster


class TestWalErrorFault:
    """Paper Sec. 5.4.1: error on appending to WAL."""

    def test_high_intensity_wedges_commitlog(self, high_wal_error):
        cluster = high_wal_error
        assert cluster.nodes["host4"].wal_wedged
        assert cluster.nodes["host4"].freeze_gate.is_closed

    def test_high_intensity_produces_frozen_only_signatures(self, high_wal_error):
        cluster = high_wal_error
        lps = cluster.lps
        frozen_only = frozenset({lps.table_frozen.lpid})
        after = [
            s
            for s in stage_synopses(cluster, "Table", "host4")
            if s.start_time > 40.0
        ]
        assert frozen_only in {s.signature for s in after}

    def test_healthy_hosts_unaffected_in_table_stage(self, high_wal_error):
        cluster = high_wal_error
        lps = cluster.lps
        frozen_only = frozenset({lps.table_frozen.lpid})
        host1 = {s.signature for s in stage_synopses(cluster, "Table", "host1")}
        assert frozen_only not in host1

    def test_peers_store_hints_for_failed_node(self, high_wal_error):
        cluster = high_wal_error
        hints = sum(
            node.hints.get("host4", 0) + sum(node.hints.values()) * 0
            for node in cluster.node_list
            if node.name != "host4"
        )
        total = sum(
            sum(n.hints.values()) for n in cluster.node_list if n.name != "host4"
        )
        assert hints > 0 or total > 0

    def test_low_intensity_keeps_throughput(self):
        cluster, pool = run_with_wal_error(LOW_INTENSITY, until=90.0, fault_start=30.0)
        before = pool.meter.mean_throughput(5.0, 30.0)
        during = pool.meter.mean_throughput(30.0, 90.0)
        assert not cluster.nodes["host4"].wal_wedged
        assert during > 0.8 * before

    def test_low_intensity_increases_frozen_flow(self):
        cluster, _pool = run_with_wal_error(LOW_INTENSITY, until=150.0, fault_start=60.0)
        lps = cluster.lps
        before = [
            s for s in stage_synopses(cluster, "Table", "host4") if s.start_time < 60.0
        ]
        during = [
            s for s in stage_synopses(cluster, "Table", "host4") if s.start_time >= 60.0
        ]
        def frozen_share(synopses):
            if not synopses:
                return 0.0
            hit = sum(1 for s in synopses if lps.table_frozen.lpid in s.signature)
            return hit / len(synopses)

        assert frozen_share(during) > frozen_share(before) + 0.02

    def test_memory_pressure_eventually_crashes_node(self):
        cluster, _pool = run_with_wal_error(HIGH_INTENSITY, until=1200.0)
        assert not cluster.nodes["host4"].alive
        # Other nodes survive.
        assert all(cluster.nodes[n].alive for n in ("host1", "host2", "host3"))


class TestWalDelayFault:
    """Paper Sec. 5.4.2: delay on appending to WAL."""

    def test_high_delay_slows_local_write_path_without_flow_change(self):
        cluster = make_cluster()
        pool = start_clients(cluster)
        schedule = cluster.fault_schedule_for("host4")
        schedule.add(60.0, 180.0, FaultSpec("wal", "delay", HIGH_INTENSITY, host="host4"))
        schedule.start()
        cluster.run(until=180.0)
        assert not cluster.nodes["host4"].wal_wedged
        assert cluster.nodes["host4"].alive

        def durations(stage, host, lo, hi):
            values = [
                s.duration
                for s in stage_synopses(cluster, stage, host)
                if lo <= s.start_time < hi
            ]
            values.sort()
            return values

        before = durations("StorageProxy", "host4", 5.0, 60.0)
        during = durations("StorageProxy", "host4", 60.0, 180.0)
        assert before and during
        median = lambda v: v[len(v) // 2]
        assert median(during) > median(before) + 0.05  # ~+100ms delay visible

        # Flow must not change: no frozen-only signatures on host4.
        lps = cluster.lps
        frozen_only = frozenset({lps.table_frozen.lpid})
        sigs = {s.signature for s in stage_synopses(cluster, "Table", "host4")}
        assert frozen_only not in sigs


def make_busy_cluster():
    config = CassandraConfig(memtable_flush_bytes=256 * 1024)
    cluster = make_cluster(config=config)
    pool = start_clients(cluster, n_clients=16, think=0.02)
    return cluster, pool


@pytest.fixture(scope="class")
def flush_error():
    """The 180 s flush-error run on host4, shared by the read-only tests."""
    cluster, _pool = make_busy_cluster()
    cluster.sim_cluster["host4"].fault_injector.arm(
        FaultSpec("sstable", "error", HIGH_INTENSITY, host="host4")
    )
    cluster.run(until=180.0)
    return cluster


class TestFlushFaults:
    """Paper Sec. 5.4.1/5.4.2: error/delay on flushing MemTables."""

    def test_flush_error_leaves_memtables_pending(self, flush_error):
        cluster = flush_error
        host4 = cluster.nodes["host4"]
        others = [cluster.nodes[n] for n in ("host1", "host2", "host3")]
        assert len(host4.store.pending_flushes) >= 2
        assert all(len(n.store.pending_flushes) <= 1 for n in others)

    def test_flush_error_logs_retry_flow(self, flush_error):
        cluster = flush_error
        lps = cluster.lps
        retried = [
            s
            for s in stage_synopses(cluster, "Memtable", "host4")
            if lps.flush_retry.lpid in s.signature
        ]
        assert retried

    def test_flush_delay_slows_flush_tasks(self):
        cluster, _pool = make_busy_cluster()
        cluster.sim_cluster["host4"].fault_injector.arm(
            FaultSpec("sstable", "delay", HIGH_INTENSITY, host="host4")
        )
        cluster.run(until=180.0)
        host4_flushes = [s.duration for s in stage_synopses(cluster, "Memtable", "host4")]
        host1_flushes = [s.duration for s in stage_synopses(cluster, "Memtable", "host1")]
        assert host4_flushes and host1_flushes
        assert max(host4_flushes) > 4 * max(host1_flushes)


class TestCrashBehaviour:
    def test_crashed_node_refuses_clients(self):
        cluster = make_cluster()
        node = cluster.nodes["host2"]
        outcomes = {}

        def scenario():
            node.crash()
            done = node.client_request(ClientOp("write", "k", value="v"))
            yield done
            outcomes["ok"] = done.value

        cluster.env.process(scenario())
        cluster.run(until=5.0)
        assert outcomes["ok"] is False

    def test_cluster_survives_single_crash(self):
        cluster = make_cluster()
        pool = start_clients(cluster)

        def killer():
            yield cluster.env.timeout(30.0)
            cluster.nodes["host3"].crash()

        cluster.env.process(killer())
        cluster.run(until=90.0)
        late = [r for r in pool.meter.records if r.time > 50.0]
        assert late
        ok_rate = sum(r.ok for r in late) / len(late)
        assert ok_rate > 0.9
