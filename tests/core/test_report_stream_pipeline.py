"""Tests for reporting, streaming, registries, and the SAAD facade."""

import pytest

from repro.core import (
    FLOW,
    PERFORMANCE,
    AnomalyEvent,
    AnomalyReporter,
    LogPointRegistry,
    SAAD,
    SAADConfig,
    StageRegistry,
    SynopsisCollector,
    SynopsisStream,
    TaskSynopsis,
    format_signature,
)
from repro.loglib import DEBUG, WARN


def synopsis(stage=0, host=0, uid=0, start=0.0, duration=0.01, lps=(0, 1)):
    return TaskSynopsis(
        host_id=host, stage_id=stage, uid=uid, start_time=start,
        duration=duration, log_points={lp: 1 for lp in lps},
    )


class TestRegistries:
    def test_logpoint_ids_dense_and_stable(self):
        registry = LogPointRegistry()
        a = registry.register("first %s")
        b = registry.register("second")
        assert (a.lpid, b.lpid) == (0, 1)
        assert registry.register("first %s") is a  # idempotent

    def test_logpoint_json_round_trip(self):
        registry = LogPointRegistry()
        registry.register("msg %d", DEBUG, "Table", "f.py", 12)
        registry.register("warn!", WARN, "GC", "g.py", 40)
        clone = LogPointRegistry.from_json(registry.to_json())
        assert len(clone) == 2
        assert clone.get(0).template == "msg %d"
        assert clone.get(1).level == WARN
        assert clone.get(1).source_file == "g.py"

    def test_unknown_logpoint_raises(self):
        with pytest.raises(KeyError):
            LogPointRegistry().get(5)

    def test_stage_registry(self):
        stages = StageRegistry()
        table = stages.register("Table")
        assert stages.register("Table") is table
        assert stages.by_name("Table").stage_id == 0
        assert stages.get(0).name == "Table"
        with pytest.raises(KeyError):
            stages.by_name("Nope")

    def test_stage_model_validation(self):
        stages = StageRegistry()
        with pytest.raises(ValueError):
            stages.register("X", model="weird-model")


class TestStreams:
    def test_stream_counts_and_retains(self):
        stream = SynopsisStream()
        stream.sink(synopsis(uid=1))
        stream.sink(synopsis(uid=2))
        assert stream.count == 2
        assert [s.uid for s in stream.synopses] == [1, 2]
        assert stream.bytes_streamed > 0

    def test_wire_format_round_trips(self):
        stream = SynopsisStream(wire_format=True)
        original = synopsis(uid=42, lps=(3, 4))
        stream.sink(original)
        received = stream.synopses[0]
        assert received.uid == 42
        assert received.signature == original.signature
        assert stream.bytes_streamed == original.encoded_size()

    def test_collector_merges_node_streams(self):
        collector = SynopsisCollector()
        streams = [SynopsisStream(retain=False) for _ in range(3)]
        for stream in streams:
            collector.attach(stream)
        for i, stream in enumerate(streams):
            stream.sink(synopsis(host=i, uid=i))
        assert collector.count == 3
        assert {s.host_id for s in collector.synopses} == {0, 1, 2}

    def test_subscribers_see_live_synopses(self):
        stream = SynopsisStream(retain=False)
        seen = []
        stream.subscribe(seen.append)
        stream.sink(synopsis(uid=7))
        assert seen[0].uid == 7

    def test_drain_clears(self):
        stream = SynopsisStream()
        stream.sink(synopsis())
        assert len(stream.drain()) == 1
        assert stream.synopses == []

    def test_wire_stream_encodes_once_and_batches_frames(self):
        frames = []
        stream = SynopsisStream(wire_format=True, flush_size=3, frame_sink=frames.append)
        originals = [synopsis(uid=i) for i in range(7)]
        for s in originals:
            stream.sink(s)
        # 7 synopses at flush_size=3: two full frames out, one pending.
        assert stream.frames_flushed == 2
        assert len(frames) == 2
        assert stream.pending_wire_count == 1
        # bytes_streamed accounts the single encode per synopsis.
        assert stream.bytes_streamed == sum(s.encoded_size() for s in originals)
        tail = stream.flush_wire()
        assert tail != b""
        assert stream.pending_wire_count == 0
        assert stream.flush_wire() == b""  # idempotent when empty

    def test_frames_decode_at_the_collector(self):
        collector = SynopsisCollector()
        stream = SynopsisStream(
            wire_format=True, retain=False, flush_size=2,
            frame_sink=lambda frame: collector.receive_frame(frame),
        )
        for i in range(4):
            stream.sink(synopsis(uid=i, lps=(3, 4)))
        assert collector.frames_received == 2
        assert [s.uid for s in collector.synopses] == [0, 1, 2, 3]
        assert collector.synopses[0].signature == frozenset({3, 4})
        assert collector.bytes_received == stream.frame_bytes

    def test_bad_flush_size_rejected(self):
        with pytest.raises(ValueError):
            SynopsisStream(wire_format=True, flush_size=0)


class TestCollectorShutdown:
    """flush()/close() ordering: the last wire batch must not be lost."""

    def make_pipeline(self, flush_size=10):
        collector = SynopsisCollector()
        stream = SynopsisStream(
            wire_format=True, retain=False, flush_size=flush_size,
            frame_sink=collector.feed,
        )
        collector.attach(stream)
        return collector, stream

    def test_feed_reassembles_split_frames(self):
        collector = SynopsisCollector()
        stream = SynopsisStream(wire_format=True, retain=False, flush_size=10)
        for i in range(3):
            stream.sink(synopsis(uid=i))
        frame = stream.flush_wire()
        # deliver in dribs: nothing decodes until the frame completes
        assert collector.feed(frame[:4]) == 0
        assert collector.pending_bytes == 4
        assert collector.feed(frame[4:10]) == 0
        assert collector.feed(frame[10:]) == 3
        assert [s.uid for s in collector.synopses] == [0, 1, 2]
        assert collector.pending_bytes == 0
        assert collector.frames_received == 1

    def test_flush_drains_partial_stream_batches(self):
        collector, stream = self.make_pipeline(flush_size=10)
        for i in range(4):  # under flush_size: still pending in the stream
            stream.sink(synopsis(uid=i))
        assert collector.count == 0
        assert collector.flush() == 4
        assert [s.uid for s in collector.synopses] == [0, 1, 2, 3]
        assert collector.count == 4
        assert collector.flush() == 0  # nothing new

    def test_close_flushes_then_seals(self):
        collector, stream = self.make_pipeline(flush_size=10)
        stream.sink(synopsis(uid=9))
        collector.close()
        assert collector.closed
        assert collector.count == 1
        collector.close()  # idempotent

    def test_truncated_frame_fails_loudly_at_flush(self):
        collector, stream = self.make_pipeline(flush_size=2)
        for i in range(2):
            stream.sink(synopsis(uid=i))
        # a transport that died mid-frame: only half the bytes arrived
        tail_stream = SynopsisStream(wire_format=True, retain=False, flush_size=2)
        tail_stream.sink(synopsis(uid=7))
        frame = tail_stream.flush_wire()
        collector.feed(frame[: len(frame) // 2])
        assert collector.pending_bytes > 0
        with pytest.raises(ValueError, match="truncated frame"):
            collector.flush()
        with pytest.raises(ValueError, match="truncated frame"):
            collector.close()
        assert not collector.closed


class TestReporter:
    def make_reporter(self):
        stages = StageRegistry()
        stages.register("Table")
        logpoints = LogPointRegistry()
        logpoints.register("MemTable is already frozen")
        logpoints.register("Start applying update")
        return AnomalyReporter(stages, logpoints, {0: "host4"})

    def test_render_event_contains_names(self):
        reporter = self.make_reporter()
        event = AnomalyEvent(
            kind=FLOW, host_id=0, stage_id=0, window_start=0.0,
            window_end=60.0, outliers=10, n=100, baseline=0.01,
            p_value=1e-9, new_signatures=(frozenset({0}),),
        )
        text = reporter.render_event(event)
        assert "Table(host4)" in text
        assert "MemTable is already frozen" in text
        assert "[FLOW]" in text

    def test_render_empty(self):
        reporter = self.make_reporter()
        assert "No anomalies" in reporter.render([])

    def test_signature_comparison_marks_membership(self):
        reporter = self.make_reporter()
        text = reporter.signature_comparison(0, frozenset({0, 1}), frozenset({0}))
        lines = text.splitlines()
        frozen_row = [l for l in lines if "frozen" in l][0]
        apply_row = [l for l in lines if "applying" in l][0]
        assert frozen_row.count("x") == 2  # present in both flows
        assert apply_row.count("x") == 1  # normal flow only

    def test_unknown_ids_render_gracefully(self):
        reporter = self.make_reporter()
        event = AnomalyEvent(
            kind=PERFORMANCE, host_id=9, stage_id=9, window_start=0.0,
            window_end=60.0, outliers=1, n=10, baseline=0.01, p_value=1e-4,
            offending_signatures=(frozenset({99}),),
        )
        text = reporter.render_event(event)
        assert "stage9" in text
        assert "host9" in text
        assert "unknown log point" in text

    def test_format_signature(self):
        assert format_signature(frozenset({3, 1})) == "{L1,L3}"


class TestSAADFacade:
    def test_end_to_end_train_detect_report(self):
        saad = SAAD(SAADConfig(window_s=10.0, min_window_tasks=5))
        node = saad.add_node("h1")
        saad.stages.register("S")
        lp_a = saad.logpoints.register("step a")
        lp_b = saad.logpoints.register("step b")
        log = node.logger("S")

        def run_task(start_offset, include_b=True):
            node.set_context("S")
            log.debug("step a", lpid=lp_a.lpid)
            if include_b:
                log.debug("step b", lpid=lp_b.lpid)
            node.end_task()

        for i in range(200):
            run_task(i)
        saad.train()
        saad.collector.drain()
        for i in range(50):
            run_task(i, include_b=(i % 2 == 0))  # 50% truncated flow
        anomalies = saad.detect(saad.collector.synopses)
        assert anomalies
        assert anomalies[0].kind == FLOW
        text = saad.reporter().render(anomalies)
        assert "S(h1)" in text

    def test_duplicate_node_rejected(self):
        saad = SAAD()
        saad.add_node("h1")
        with pytest.raises(ValueError):
            saad.add_node("h1")

    def test_detector_requires_training(self):
        saad = SAAD()
        with pytest.raises(RuntimeError):
            saad.detector()

    def test_disabled_tracker_produces_nothing(self):
        saad = SAAD()
        node = saad.add_node("h1", tracker_enabled=False)
        saad.stages.register("S")
        node.set_context("S")
        assert node.end_task() is None
        assert saad.collector.count == 0
