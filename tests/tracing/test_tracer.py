"""Tracer admission control: rings, sampling, retention, pinning."""

import math
import random
import threading

import pytest

from repro.core import OutlierModel, SAADConfig, TaskSynopsis
from repro.core.columnar import exact_duration_cut
from repro.core.synopsis import wire_header
from repro.telemetry import NULL_REGISTRY, MetricsRegistry
from repro.tracing import (
    NULL_TRACER,
    NullTracer,
    StageSpan,
    TaskTrace,
    TraceEvent,
    Tracer,
    trace_from_synopsis,
)


def make_trace(uid, host_id=0, start=0.0, duration=1.0, signature=frozenset({1, 2}),
               n_events=2):
    events = tuple(
        TraceEvent(lpid, start + i * 0.1) for i, lpid in enumerate(sorted(signature))
    )[:n_events]
    span = StageSpan(stage_id=3, start_time=start, end_time=start + duration,
                     events=events)
    return TaskTrace(host_id=host_id, uid=uid, start_time=start,
                     end_time=start + duration, spans=(span,), signature=signature)


ROUTINE = frozenset({1, 2})
RARE = frozenset({1, 2, 99})


def training(rare_every=250):
    """Stage 3 on host 0: ``ROUTINE`` at ~2 ms, and ``RARE`` once every
    ``rare_every`` tasks (a flow outlier at the default 250)."""
    rng = random.Random(5)
    return [
        TaskSynopsis(
            0, 3, i, i * 0.01, 0.002 * rng.lognormvariate(0, 0.3),
            {lp: 1 for lp in (RARE if i % rare_every == 0 else ROUTINE)},
        )
        for i in range(2000)
    ]


def trained_model():
    return OutlierModel(SAADConfig()).train(training())


def finish(tracer, uid, duration, signature=ROUTINE):
    """Hand the tracer one finished stage-3 task on host 0."""
    synopsis = TaskSynopsis(0, 3, uid, 100.0, duration, {lp: 1 for lp in signature})
    return tracer.finish(synopsis, [(lp, 100.0) for lp in sorted(signature)])


class TestAdmission:
    def test_full_rate_keeps_everything(self):
        tracer = Tracer(capacity=16, registry=NULL_REGISTRY)
        for uid in range(10):
            assert tracer.record(make_trace(uid, signature=frozenset({uid})))
        assert len(tracer) == 10

    def test_ring_eviction_is_fifo_and_bounded(self):
        tracer = Tracer(capacity=4, registry=NULL_REGISTRY)
        sig = frozenset({1})
        for uid in range(10):
            tracer.record(make_trace(uid, signature=sig))
        kept = {trace.uid for trace in tracer.traces() if not trace.retained}
        assert kept == {6, 7, 8, 9}
        assert tracer.stats.traces_evicted == 5  # 10 admitted - 4 kept - 1 retained
        assert tracer.stats.spans_dropped == 5

    def test_stride_sampling_is_deterministic(self):
        tracer = Tracer(capacity=128, sample_rate=0.25, registry=NULL_REGISTRY)
        sig = frozenset({1})
        kept = [
            uid for uid in range(100) if tracer.record(make_trace(uid, signature=sig))
        ]
        # First trace is retained (novel signature); the ordinary stream
        # then keeps exactly one in four.
        assert kept[0] == 0
        assert len(kept) == 1 + (99 // 4)
        assert tracer.stats.traces_sampled_out == 99 - (99 // 4)

    def test_zero_rate_keeps_only_retained(self):
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        sig = frozenset({1})
        assert tracer.record(make_trace(0, signature=sig))  # novel -> retained
        assert not tracer.record(make_trace(1, signature=sig))
        assert len(tracer) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(retained_capacity=0)
        with pytest.raises(ValueError):
            Tracer(pinned_capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestRetention:
    def test_novel_signature_retained_before_model(self):
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        assert tracer.record(make_trace(0, signature=frozenset({1})))
        assert tracer.record(make_trace(1, signature=frozenset({2})))
        assert not tracer.record(make_trace(2, signature=frozenset({1})))
        assert tracer.stats.traces_retained == 2
        assert all(trace.retained for trace in tracer.traces())

    def test_model_drives_retention_after_set_model(self):
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        tracer.set_model(trained_model())
        assert not tracer.record(make_trace(0, duration=0.002, signature=ROUTINE))
        assert tracer.record(make_trace(1, duration=0.002, signature=RARE))  # flow
        assert tracer.record(make_trace(2, duration=0.002, signature=frozenset({7})))
        assert tracer.record(make_trace(3, duration=0.06, signature=ROUTINE))  # perf
        assert tracer.stats.traces_retained == 3

    def test_retention_reads_the_detectors_whole_us_cut(self):
        model = trained_model()
        threshold = model.stages[(0, 3)].signatures[ROUTINE].duration_threshold
        cut = exact_duration_cut(threshold)
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        tracer.set_model(model)
        # Past the float threshold, but the wire carries ``cut`` µs: the
        # detector counts the task as normal, so the tracer drops it.
        between = (threshold * 1e6 + cut + 1) / 2 / 1e6
        assert between > threshold
        assert wire_header(0, 100.0, between)[1] == cut
        assert finish(tracer, 0, between) is None
        past = (cut + 1) / 1e6
        while wire_header(0, 100.0, past)[1] < cut + 1:
            past = math.nextafter(past, math.inf)
        assert finish(tracer, 1, past) is not None
        assert tracer.stats.traces_retained == 1

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_a_duration_the_wire_cannot_carry_is_not_retained(self, duration):
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        tracer.set_model(trained_model())
        assert finish(tracer, 0, duration) is None

    def test_a_retrain_recompiles_the_rule(self):
        model = trained_model()
        tracer = Tracer(sample_rate=0.0, registry=NULL_REGISTRY)
        tracer.set_model(model)
        assert finish(tracer, 0, 0.002, RARE) is not None
        model.train(training(rare_every=2))  # RARE is half the stage now
        assert finish(tracer, 1, 0.002, RARE) is None

    def test_retained_ring_bounded(self):
        tracer = Tracer(retained_capacity=2, sample_rate=0.0, registry=NULL_REGISTRY)
        for uid in range(5):
            tracer.record(make_trace(uid, signature=frozenset({uid})))
        assert len(tracer) == 2


class TestPinning:
    def test_pin_moves_to_pinned_store_and_survives_eviction(self):
        tracer = Tracer(capacity=2, registry=NULL_REGISTRY)
        sig = frozenset({1})
        for uid in range(3):
            tracer.record(make_trace(uid, signature=sig))
        pinned = tracer.pin((0, 1))
        assert pinned is not None and pinned.pinned
        for uid in range(3, 20):
            tracer.record(make_trace(uid, signature=sig))
        assert tracer.get((0, 1)) is pinned
        assert tracer.pinned_traces() == [pinned]

    def test_pin_is_idempotent(self):
        tracer = Tracer(registry=NULL_REGISTRY)
        tracer.record(make_trace(0))
        first = tracer.pin((0, 0))
        assert tracer.pin((0, 0)) is first
        assert tracer.stats.traces_pinned == 1

    def test_pin_unknown_key_returns_none(self):
        tracer = Tracer(registry=NULL_REGISTRY)
        assert tracer.pin((0, 404)) is None

    def test_get_checks_all_stores(self):
        tracer = Tracer(sample_rate=1.0, registry=NULL_REGISTRY)
        tracer.record(make_trace(0, signature=frozenset({1})))   # retained (novel)
        tracer.record(make_trace(1, signature=frozenset({1})))   # sampled ring
        tracer.pin((0, 0))
        assert tracer.get((0, 0)).uid == 0
        assert tracer.get((0, 1)).uid == 1
        assert tracer.get((9, 9)) is None


class TestMetricsAndStats:
    def test_self_metrics_registered_and_live(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        tracer.record(make_trace(0))
        tracer.pin((0, 0))
        snapshot = {
            family["name"]: family["samples"][0]["value"]
            for family in registry.collect()
            if family["samples"] and "value" in family["samples"][0]
        }
        assert snapshot["tracer_spans_recorded"] == 1
        assert snapshot["tracer_events_recorded"] == 2
        assert snapshot["tracer_traces_retained"] == 1
        assert snapshot["tracer_traces_pinned"] == 1
        assert snapshot["tracer_ring_traces"] == 1

    def test_thread_safety_exact_counts(self):
        tracer = Tracer(capacity=4096, registry=NULL_REGISTRY)
        sig = frozenset({1})
        errors = []

        def worker(host_id):
            try:
                for uid in range(200):
                    tracer.record(make_trace(uid, host_id=host_id, signature=sig))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(h,)) for h in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert tracer.stats.traces_recorded == 800
        assert len(tracer) == 800


class TestTraceFromSynopsis:
    def test_builds_single_stage_trace(self):
        class Synopsis:
            host_id = 2
            stage_id = 5
            uid = 7
            start_time = 100.0
            duration = 3.0
            signature = frozenset({1, 4})

        trace = trace_from_synopsis(Synopsis(), [(1, 100.0), (4, 103.0)])
        assert trace.key == (2, 7)
        assert trace.stage_id == 5
        assert trace.duration == 3.0
        assert trace.n_spans == 1 and trace.n_events == 2
        assert [event.lpid for event in trace.events()] == [1, 4]


class TestNullTracer:
    def test_contract(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.record(make_trace(0)) is False
        assert NULL_TRACER.finish(None, []) is None
        assert NULL_TRACER.get((0, 0)) is None
        assert NULL_TRACER.pin((0, 0)) is None
        assert NULL_TRACER.traces() == []
        assert NULL_TRACER.pinned_traces() == []
        assert len(NULL_TRACER) == 0
        NULL_TRACER.set_model(object())  # no-op, must not raise
