"""Tests for Cassandra's periodic stages: GC, CommitLog, compaction, hints."""

import pytest

from repro.cassandra import CassandraCluster, CassandraConfig, ClientOp
from repro.ycsb import ClientPool, write_heavy


def make_loaded_cluster(seed=19, flush_bytes=256 * 1024):
    config = CassandraConfig(memtable_flush_bytes=flush_bytes)
    cluster = CassandraCluster(n_nodes=4, seed=seed, config=config)

    def submit(node_name, op):
        return cluster.nodes[node_name].client_request(
            ClientOp(op.kind, op.key, value="v", nbytes=op.value_bytes)
        )

    pool = ClientPool(
        cluster.env,
        write_heavy(record_count=3000),
        submit,
        cluster.ring.node_names,
        n_clients=14,
        think_time_s=0.02,
        seed=seed + 1,
    )
    return cluster, pool


def stage_synopses(cluster, stage_name, host_name=None):
    stage = cluster.saad.stages.by_name(stage_name)
    hosts = cluster.saad.host_names
    return [
        s
        for s in cluster.saad.collector.synopses
        if s.stage_id == stage.stage_id
        and (host_name is None or hosts[s.host_id] == host_name)
    ]


@pytest.fixture(scope="module")
def sustained_writes():
    """One loaded cluster run for 300 s, shared by the read-only tests below.

    The tests on this scenario only inspect the run, so simulating it once
    gives each of them the state its own copy would reach.  The run pauses
    at 120 s to keep that moment's GCInspector synopses: a paused run
    resumes exactly as an uninterrupted one.
    """
    cluster, _pool = make_loaded_cluster()
    cluster.run(until=120.0)
    gc_tasks_at_120s = stage_synopses(cluster, "GCInspector")
    cluster.run(until=300.0)
    return cluster, gc_tasks_at_120s


class TestCompactionManager:
    def test_compactions_run_under_sustained_writes(self, sustained_writes):
        cluster, _gc_tasks = sustained_writes
        total = sum(n.store.compactions_completed for n in cluster.node_list)
        assert total > 0
        lps = cluster.lps
        compacted_tasks = [
            s
            for s in stage_synopses(cluster, "CompactionManager")
            if lps.compact_done.lpid in s.signature
        ]
        assert compacted_tasks

    def test_sstable_count_stays_bounded(self, sustained_writes):
        cluster, _gc_tasks = sustained_writes
        for node in cluster.node_list:
            # Compaction keeps the table count near the threshold.
            assert len(node.store.sstables) <= 2 * node.store.compaction_threshold + 2


class TestCommitLogStage:
    def test_wal_segments_get_trimmed(self, sustained_writes):
        cluster, _gc_tasks = sustained_writes
        for node in cluster.node_list:
            assert node.store.wal.total_trims > 0
            # Pending WAL data stays bounded when flushes keep up.
            assert node.store.wal.pending_bytes < 16 * 1024 * 1024

    def test_commitlog_stage_has_discard_flow(self, sustained_writes):
        cluster, _gc_tasks = sustained_writes
        lps = cluster.lps
        discards = [
            s
            for s in stage_synopses(cluster, "CommitLog")
            if lps.cl_discard.lpid in s.signature
        ]
        assert discards


class TestGCInspector:
    def test_healthy_cluster_logs_parnew_only(self, sustained_writes):
        cluster, gc_tasks = sustained_writes
        lps = cluster.lps
        assert gc_tasks
        assert all(lps.gc_parnew.lpid in s.signature for s in gc_tasks)
        assert not any(lps.gc_oom.lpid in s.signature for s in gc_tasks)

    def test_heap_fraction_grows_with_backlog(self):
        cluster, _pool = make_loaded_cluster()
        node = cluster.nodes["host1"]
        baseline = node.heap_fraction()
        # Simulate queued work by stuffing the table executor's queue.
        for _ in range(20000):
            node.table_exec.queue.try_put(lambda: iter(()))
        assert node.heap_fraction() > baseline + 0.3


class TestHintedHandoff:
    def test_hints_replay_to_recovered_node(self):
        cluster, _pool = make_loaded_cluster(seed=31)

        # Knock host4 out briefly by partitioning it, then heal.
        def partition_window():
            yield cluster.env.timeout(30.0)
            cluster.network.isolate("host4", cluster.ring.node_names)
            yield cluster.env.timeout(40.0)
            for other in cluster.ring.node_names:
                cluster.network.heal("host4", other)

        cluster.env.process(partition_window())
        cluster.run(until=70.0)
        stored = sum(
            node.hints.get("host4", 0)
            for node in cluster.node_list
            if node.name != "host4"
        )
        assert stored > 0
        # After healing, the managers replay the hints down to (near) zero.
        cluster.run(until=400.0)
        remaining = sum(
            node.hints.get("host4", 0)
            for node in cluster.node_list
            if node.name != "host4"
        )
        assert remaining < stored

    def test_hint_replay_logs_visible_in_worker_stage(self):
        cluster, _pool = make_loaded_cluster(seed=31)

        def partition_window():
            yield cluster.env.timeout(30.0)
            cluster.network.isolate("host4", cluster.ring.node_names)

        cluster.env.process(partition_window())
        cluster.run(until=180.0)
        lps = cluster.lps
        timeouts = [
            s
            for s in cluster.saad.collector.synopses
            if lps.worker_hint_timeout.lpid in s.signature
        ]
        assert timeouts, "replays to the isolated node should time out"
