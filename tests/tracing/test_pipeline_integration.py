"""Tracker → tracer → detector → reporter integration through the facade."""

import pytest

from repro.core import SAADConfig
from repro.core.pipeline import SAAD
from repro.tracing import NULL_TRACER, Tracer


class Clock:
    """Manually advanced time source."""

    def __init__(self):
        self.now = 0.0


def build_deployment(tracing=True, **saad_kwargs):
    clock = Clock()
    saad = SAAD(
        SAADConfig(window_s=10.0, min_window_tasks=5),
        tracing=tracing,
        **saad_kwargs,
    )
    saad.stages.register("flush")
    lps = [
        saad.logpoints.register("begin {}"),
        saad.logpoints.register("end {}"),
        saad.logpoints.register("surprise {}"),
    ]
    node = saad.add_node("host1", clock=lambda: clock.now)
    return saad, node, node.logger("db.flush"), lps, clock


def run_task(node, log, lps, clock, start, surprise=False, slow=False):
    clock.now = start
    node.set_context("flush")
    log.info("begin {}", 0, lpid=lps[0].lpid)
    clock.now += 0.1
    if surprise:
        log.info("surprise {}", 0, lpid=lps[2].lpid)
        clock.now += 0.1
    if slow:
        clock.now += 5.0
    log.info("end {}", 0, lpid=lps[1].lpid)
    node.end_task()


class TestTrackerEmitsTraces:
    def test_traces_mirror_synopses(self):
        saad, node, log, lps, clock = build_deployment()
        for i in range(10):
            run_task(node, log, lps, clock, float(i))
        assert len(saad.tracer) == 10
        synopses = {s.uid for s in saad.collector.synopses}
        assert {trace.uid for trace in saad.tracer.traces()} == synopses
        trace = saad.tracer.traces()[0]
        assert trace.n_spans == 1
        assert [event.lpid for event in trace.events()] == [
            lps[0].lpid, lps[1].lpid,
        ]
        assert trace.signature == frozenset({lps[0].lpid, lps[1].lpid})

    def test_tracing_off_records_nothing(self):
        saad, node, log, lps, clock = build_deployment(tracing=False)
        for i in range(10):
            run_task(node, log, lps, clock, float(i))
        assert saad.tracer is NULL_TRACER
        assert len(saad.tracer) == 0
        assert len(saad.collector.synopses) == 10  # synopses unaffected

    def test_untraced_open_task_has_no_event_list(self):
        saad, node, log, lps, clock = build_deployment(tracing=False)
        node.set_context("flush")
        slot = node.tracker.context.slot()
        assert slot["saad.task"].events is None
        node.end_task()


class TestDetectorPinsExemplars:
    def run_detection(self, exemplars_per_window=3):
        saad, node, log, lps, clock = build_deployment()
        for i in range(60):
            run_task(node, log, lps, clock, float(i))
        saad.train()
        saad.collector.drain()
        detector = saad.detector()
        detector.exemplars_per_window = exemplars_per_window
        for i in range(20):
            run_task(
                node, log, lps, clock, 1000.0 + i,
                surprise=(i == 3), slow=(i in (4, 5)),
            )
        for synopsis in saad.collector.synopses:
            detector.observe(synopsis)
        detector.flush()
        return saad, detector

    def test_anomalies_carry_exemplars(self):
        saad, detector = self.run_detection()
        assert detector.anomalies
        flagged = [e for e in detector.anomalies if e.exemplars]
        assert flagged
        for event in flagged:
            assert 1 <= len(event.exemplars) <= 3
            for trace in event.exemplars:
                assert trace.pinned
                assert saad.tracer.get(trace.key) is trace

    def test_new_signature_task_is_first_exemplar(self):
        saad, detector = self.run_detection()
        flow_events = [
            e for e in detector.anomalies if e.new_signatures and e.exemplars
        ]
        assert flow_events
        first = flow_events[0].exemplars[0]
        assert first.signature in flow_events[0].new_signatures

    def test_exemplar_cap_respected(self):
        saad, detector = self.run_detection(exemplars_per_window=1)
        for event in detector.anomalies:
            assert len(event.exemplars) <= 1

    def test_reporter_renders_exemplar_timelines(self):
        saad, detector = self.run_detection()
        text = saad.reporter().render(detector.anomalies)
        assert "exemplar trace:" in text
        assert "stage flush" in text
        assert "surprise {}" in text

    def test_tracing_off_yields_no_exemplars(self):
        saad, node, log, lps, clock = build_deployment(tracing=False)
        for i in range(60):
            run_task(node, log, lps, clock, float(i))
        saad.train()
        saad.collector.drain()
        detector = saad.detector()
        for i in range(20):
            run_task(node, log, lps, clock, 1000.0 + i, surprise=(i == 3))
        for synopsis in saad.collector.synopses:
            detector.observe(synopsis)
        detector.flush()
        assert detector.anomalies
        assert all(event.exemplars == () for event in detector.anomalies)


class TestFacadeWiring:
    def test_explicit_tracer_is_shared(self):
        tracer = Tracer(capacity=8)
        saad, node, log, lps, clock = build_deployment(tracer=tracer)
        assert saad.tracer is tracer
        assert node.tracker.tracer is tracer

    def test_train_installs_model_on_tracer(self):
        saad, node, log, lps, clock = build_deployment()
        for i in range(60):
            run_task(node, log, lps, clock, float(i))
        assert saad.tracer._compiled is None
        saad.train()
        assert saad.tracer._compiled.model is saad.model

    def test_tracer_metrics_share_deployment_registry(self):
        saad, node, log, lps, clock = build_deployment()
        run_task(node, log, lps, clock, 0.0)
        assert "tracer_spans_recorded" in saad.registry.names()
