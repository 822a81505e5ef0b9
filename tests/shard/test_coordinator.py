"""Coordinator behaviour: dispatch paths, accounting, lifecycle, errors."""

import re

import pytest

from repro.core.synopsis import encode_frame
from repro.shard import ShardWorkerError, ShardedAnalyzer
from repro.telemetry import MetricsRegistry
from repro.tracing import Tracer, TaskTrace
from repro.tracing.spans import trace_from_synopsis

pytestmark = pytest.mark.shard


def _families(registry):
    return {family["name"]: family for family in registry.collect()}


def _sample_total(family):
    return sum(sample["value"] for sample in family["samples"])


class TestDispatchPaths:
    def test_wire_path_matches_object_path(self, model, detect_trace):
        with ShardedAnalyzer(model, 3) as object_pool:
            object_pool.dispatch(detect_trace)
            object_pool.close()

        with ShardedAnalyzer(model, 3) as wire_pool:
            for start in range(0, len(detect_trace), 500):
                wire_pool.dispatch_frame(encode_frame(detect_trace[start : start + 500]))
            wire_pool.close()

        assert object_pool.anomalies
        assert wire_pool.anomalies == object_pool.anomalies

    def test_dispatch_frame_rejects_truncated(self, model, detect_trace):
        frame = encode_frame(detect_trace[:10])
        with ShardedAnalyzer(model, 2) as pool:
            with pytest.raises(ValueError, match="truncated frame payload"):
                pool.dispatch_frame(frame[:-4])
            with pytest.raises(ValueError, match="truncated frame header"):
                pool.dispatch_frame(frame, offset=len(frame) - 3)

    def test_flush_returns_incremental_events(self, model, detect_trace):
        with ShardedAnalyzer(model, 2) as pool:
            pool.dispatch(detect_trace)
            first = pool.flush()
            rest = pool.close()
        assert first
        assert pool.anomalies == first + rest


class TestAccounting:
    def test_worker_stats_cover_whole_trace(self, model, detect_trace):
        with ShardedAnalyzer(model, 4) as pool:
            pool.dispatch(detect_trace)
            pool.close()
        assert sorted(pool.worker_stats) == [0, 1, 2, 3]
        assert sum(s["tasks"] for s in pool.worker_stats.values()) == len(
            detect_trace
        )
        assert all(s["busy_seconds"] >= 0.0 for s in pool.worker_stats.values())

    def test_shard_metrics_registered_and_counted(self, model, detect_trace):
        registry = MetricsRegistry()
        with ShardedAnalyzer(model, 2, registry=registry) as pool:
            pool.dispatch(detect_trace)
            pool.close()

        families = _families(registry)
        for name in (
            "shard_workers",
            "shard_synopses_dispatched",
            "shard_frames_dispatched",
            "shard_bytes_dispatched",
            "shard_events_merged",
            "shard_exemplars_pinned",
            "shard_worker_tasks",
            "shard_worker_windows_closed",
            "shard_worker_busy_seconds",
        ):
            assert name in families, name

        assert _sample_total(families["shard_synopses_dispatched"]) == len(
            detect_trace
        )
        assert _sample_total(families["shard_worker_tasks"]) == len(detect_trace)
        assert _sample_total(families["shard_events_merged"]) == len(pool.anomalies)
        # pool is closed: the workers gauge must have come back down
        assert _sample_total(families["shard_workers"]) == 0

    def test_aggregate_telemetry_sums_worker_counters(self, model, detect_trace):
        with ShardedAnalyzer(model, 3) as pool:
            pool.dispatch(detect_trace)
            pool.close()
        merged = {family["name"]: family for family in pool.aggregate_telemetry()}
        assert "detector_tasks_observed" in merged
        assert _sample_total(merged["detector_tasks_observed"]) == len(detect_trace)


class TestPartitionMap:
    def test_cli_prints_the_map_dispatch_routes_by(self, model, capsys):
        from repro.shard import cli

        from .conftest import make_synopsis

        assert cli.main(["--shards", "4", "--tasks", "3000"]) == 0
        printed = {
            int(stage): int(shard)
            for stage, shard in re.findall(
                r"stage +(\d+) -> shard (\d+)", capsys.readouterr().out
            )
        }
        assert sorted(printed) == sorted(cli._DEMO_STAGES)
        expected = dict.fromkeys(range(4), 0)
        with ShardedAnalyzer(model, 4) as pool:
            for stage, shard in printed.items():
                # A single-stage trace lands wholly on the printed shard.
                pool.dispatch(
                    [make_synopsis(stage, 0, uid, uid * 0.05, 0.01, (1,)) for uid in range(20)]
                )
                pool.flush()
                expected[shard] += 20
                tasks = {s: stats["tasks"] for s, stats in pool.worker_stats.items()}
                assert tasks == expected


class TestLifecycle:
    def test_constructor_validates_shards(self, model):
        with pytest.raises(ValueError):
            ShardedAnalyzer(model, 0)

    def test_close_is_idempotent_and_seals(self, model, detect_trace):
        pool = ShardedAnalyzer(model, 2)
        pool.dispatch(detect_trace)
        first = pool.close()
        assert first == pool.anomalies
        assert pool.close() == []
        with pytest.raises(ValueError, match="closed"):
            pool.dispatch(detect_trace[:1])
        with pytest.raises(ValueError, match="closed"):
            pool.flush()

    def test_context_manager_closes(self, model, detect_trace):
        with ShardedAnalyzer(model, 2) as pool:
            pool.dispatch(detect_trace)
        assert pool.closed
        assert pool.anomalies

    def test_worker_failure_surfaces(self, model):
        pool = ShardedAnalyzer(model, 2)
        try:
            # Bypass the coordinator's validation to simulate a worker
            # hitting corrupt bytes: it must answer with an error
            # message that flush() turns into ShardWorkerError.
            pool._conns[0].send(("frames", b"\xff" * 40))
            with pytest.raises(ShardWorkerError, match="shard 0"):
                pool.flush()
        finally:
            pool.closed = True
            pool._terminate()


class TestExemplarRouting:
    def test_events_carry_real_traces(self, model, detect_trace):
        tracer = Tracer(capacity=8192, retained_capacity=2048)
        for synopsis in detect_trace:
            tracer.record(trace_from_synopsis(synopsis, []))

        registry = MetricsRegistry()
        with ShardedAnalyzer(model, 2, registry=registry, tracer=tracer) as pool:
            pool.dispatch(detect_trace)
            pool.close()

        assert pool.anomalies
        exemplars = [t for event in pool.anomalies for t in event.exemplars]
        assert exemplars, "tracer-enabled run must resolve exemplars"
        assert all(isinstance(t, TaskTrace) for t in exemplars)
        assert all(t.pinned for t in exemplars)

        families = _families(registry)
        assert _sample_total(families["shard_exemplars_pinned"]) == len(exemplars)

    def test_without_tracer_exemplars_stay_empty(self, model, detect_trace):
        with ShardedAnalyzer(model, 2) as pool:
            pool.dispatch(detect_trace)
            pool.close()
        assert pool.anomalies
        assert all(event.exemplars == () for event in pool.anomalies)
