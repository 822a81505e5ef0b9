"""Tests for the streaming anomaly detector."""

import random

import pytest

from repro.core import (
    FLOW,
    PERFORMANCE,
    AnomalyDetector,
    OutlierModel,
    SAADConfig,
    TaskSynopsis,
)


def synopsis(stage=1, host=0, uid=0, start=0.0, duration=0.01, lps=(1, 2, 4, 5)):
    return TaskSynopsis(
        host_id=host,
        stage_id=stage,
        uid=uid,
        start_time=start,
        duration=duration,
        log_points={lp: 1 for lp in lps},
    )


@pytest.fixture
def model():
    """One stage, dominant signature + 1% rare signature, log-normal durations."""
    rng = random.Random(11)
    trace = []
    for i in range(2000):
        lps = (1, 2, 4, 5) if rng.random() > 0.01 else (1, 2, 3, 4, 5)
        trace.append(
            synopsis(uid=i, duration=0.01 * rng.lognormvariate(0, 0.3), lps=lps)
        )
    config = SAADConfig(window_s=60.0, min_window_tasks=8)
    return OutlierModel(config).train(trace)


def feed(detector, synopses):
    for s in synopses:
        detector.observe(s)
    detector.flush()
    return detector.anomalies


class TestFlowDetection:
    def test_quiet_stream_has_no_anomalies(self, model):
        rng = random.Random(5)
        stream = [
            synopsis(uid=i, start=i * 0.1, duration=0.01 * rng.lognormvariate(0, 0.3))
            for i in range(600)
        ]
        anomalies = feed(AnomalyDetector(model), stream)
        assert anomalies == []

    def test_surge_of_rare_signature_is_flow_anomaly(self, model):
        stream = []
        for i in range(200):
            lps = (1, 2, 3, 4, 5) if i % 2 else (1, 2, 4, 5)  # 50% rare vs 1% trained
            stream.append(synopsis(uid=i, start=i * 0.1, lps=lps))
        anomalies = feed(AnomalyDetector(model), stream)
        assert any(a.kind == FLOW for a in anomalies)

    def test_new_signature_always_flags(self, model):
        stream = [synopsis(uid=i, start=i * 0.1) for i in range(50)]
        stream.append(synopsis(uid=99, start=2.0, lps=(1, 9)))  # never trained
        anomalies = feed(AnomalyDetector(model), stream)
        flow = [a for a in anomalies if a.kind == FLOW]
        assert len(flow) == 1
        assert frozenset({1, 9}) in flow[0].new_signatures

    def test_trained_rate_of_rare_signature_is_tolerated(self, model):
        # ~1% rare matches the training distribution: no anomaly.
        rng = random.Random(23)
        stream = []
        for i in range(1000):
            lps = (1, 2, 3, 4, 5) if rng.random() < 0.01 else (1, 2, 4, 5)
            stream.append(
                synopsis(uid=i, start=i * 0.05, duration=0.01 * rng.lognormvariate(0, 0.3), lps=lps)
            )
        anomalies = feed(AnomalyDetector(model), stream)
        assert not [a for a in anomalies if a.kind == FLOW]


class TestPerformanceDetection:
    def test_slowdown_is_performance_anomaly(self, model):
        rng = random.Random(9)
        stream = [
            synopsis(
                uid=i, start=i * 0.1, duration=0.05 * rng.lognormvariate(0, 0.3)
            )  # 5x slower than training median
            for i in range(300)
        ]
        anomalies = feed(AnomalyDetector(model), stream)
        perf = [a for a in anomalies if a.kind == PERFORMANCE]
        assert perf
        assert frozenset({1, 2, 4, 5}) in perf[0].offending_signatures

    def test_normal_speed_is_quiet(self, model):
        rng = random.Random(13)
        stream = [
            synopsis(uid=i, start=i * 0.1, duration=0.01 * rng.lognormvariate(0, 0.3))
            for i in range(300)
        ]
        anomalies = feed(AnomalyDetector(model), stream)
        assert not [a for a in anomalies if a.kind == PERFORMANCE]


class TestWindowing:
    def test_windows_close_on_watermark(self, model):
        detector = AnomalyDetector(model)
        # Window 0 gets a new signature; emitted once time passes 60s.
        detector.observe(synopsis(uid=0, start=1.0, lps=(1, 9)))
        for i in range(20):
            emitted = detector.observe(synopsis(uid=i + 1, start=2.0 + i * 0.1))
            assert emitted == []
        emitted = detector.observe(synopsis(uid=100, start=61.0))
        assert len(emitted) == 1
        assert emitted[0].window_start == 0.0
        assert emitted[0].window_end == 60.0

    def test_small_windows_skip_proportion_tests(self, model):
        detector = AnomalyDetector(model)
        # 3 tasks (< min_window_tasks) of the rare-but-known signature:
        # the proportion test is skipped, no anomaly.
        for i in range(3):
            detector.observe(synopsis(uid=i, start=1.0 + i, lps=(1, 2, 3, 4, 5)))
        detector.flush()
        assert detector.anomalies == []

    def test_small_windows_still_report_new_signatures(self, model):
        # A never-trained signature is a flow anomaly regardless of
        # window volume (paper Sec. 3.3.3).
        detector = AnomalyDetector(model)
        detector.observe(synopsis(uid=0, start=1.0, lps=(1, 9)))
        detector.flush()
        assert len(detector.anomalies) == 1
        assert detector.anomalies[0].kind == FLOW
        assert frozenset({1, 9}) in detector.anomalies[0].new_signatures

    def test_anomaly_attributed_to_correct_stage_and_host(self, model):
        detector = AnomalyDetector(model)
        for i in range(20):
            detector.observe(synopsis(uid=i, start=i * 0.5, lps=(1, 9)))
        detector.flush()
        assert detector.anomalies
        event = detector.anomalies[0]
        assert event.host_id == 0
        assert event.stage_id == 1
        assert event.stage_key == (0, 1)

    def test_flush_is_idempotent(self, model):
        detector = AnomalyDetector(model)
        for i in range(20):
            detector.observe(synopsis(uid=i, start=i * 0.5, lps=(1, 9)))
        first = detector.flush()
        second = detector.flush()
        assert len(first) == 1
        assert second == []

    def test_flush_resets_open_window_gauge(self, model):
        # Regression: flush() closes every remaining bucket but used to
        # leave the windows_open gauge at its pre-flush value.  The gauge
        # must equal the open bucket count after every step: opens, a
        # ripe close, disown() and flush().
        detector = AnomalyDetector(model, lateness_s=30.0)
        gauge = detector.registry.get("detector_windows_open")
        opened = detector.registry.get("detector_windows_opened")

        def assert_open(count):
            assert gauge.value == len(detector._buckets) == count

        for host in range(5):
            detector.observe(synopsis(host=host, uid=host, start=1.0))
        assert_open(5)
        # Within the lateness of window 0's end: nothing ripens ...
        detector.observe(synopsis(stage=2, uid=10, start=61.0))
        assert_open(6)
        # ... past it: window 0's five buckets close.
        detector.observe(synopsis(uid=11, start=125.0))
        assert_open(2)
        assert detector.windows_closed == 5
        assert detector.disown([2]) == 1
        assert_open(1)
        detector.flush()
        assert_open(0)
        assert opened.value == 7


class TestHeapWindowing:
    """The detector must not scan every open bucket on every observe."""

    def test_observe_probe_count_independent_of_open_buckets(self, model):
        detector = AnomalyDetector(model)
        # Open 40 buckets (40 stage keys, one window) that never ripen...
        for host in range(40):
            detector.observe(synopsis(host=host, uid=host, start=1.0))
        # ...then keep observing into the same window.  The seed scanned
        # all 40 open buckets on each of these calls (>= 4000 visits);
        # the heap peeks at one deadline per observe.
        before = detector.bucket_probe_count
        for i in range(100):
            detector.observe(synopsis(host=i % 40, uid=100 + i, start=2.0 + i * 0.01))
        assert detector.bucket_probe_count - before <= 100

    def test_streaming_matches_flush_only_detection(self, model):
        # Closing windows incrementally by watermark must yield exactly
        # the anomalies a flush-at-end pass produces.
        rng = random.Random(42)
        stream = []
        for i in range(800):
            lps = (1, 9) if i % 190 == 0 else (1, 2, 4, 5)
            stream.append(
                synopsis(
                    uid=i,
                    host=i % 3,
                    start=i * 0.5,
                    duration=0.01 * rng.lognormvariate(0, 0.3),
                    lps=lps,
                )
            )
        streaming = AnomalyDetector(model)
        for s in stream:
            streaming.observe(s)
        streaming.flush()
        flush_only = AnomalyDetector(model, lateness_s=float("inf"))
        for s in stream:
            flush_only.observe(s)
        flush_only.flush()
        assert streaming.anomalies == flush_only.anomalies
        assert streaming.windows_closed == flush_only.windows_closed

    def test_out_of_order_arrivals_within_lateness(self, model):
        detector = AnomalyDetector(model, lateness_s=30.0)
        detector.observe(synopsis(uid=0, start=65.0))
        # Late task for window 0 arrives after watermark passed 60s but
        # within the allowed lateness: its window must still be open.
        emitted = detector.observe(synopsis(uid=1, start=5.0, lps=(1, 9)))
        assert emitted == []
        emitted = detector.observe(synopsis(uid=2, start=100.0))
        assert any(frozenset({1, 9}) in e.new_signatures for e in emitted)


class TestWireIngest:
    """observe_frame: the fused bytes path must mirror the object path."""

    def make_stream(self, tasks=1500):
        rng = random.Random(23)
        stream = []
        for i in range(tasks):
            lps = (1, 2, 4, 5)
            duration = 0.01 * rng.lognormvariate(0, 0.3)
            if i > tasks // 2:
                if i % 2:  # novel signature burst
                    lps = (1, 2, 3, 4, 5, 6)
                else:  # sustained slowdown
                    duration *= 6
            stream.append(
                synopsis(
                    uid=i, host=i % 2, start=i * 0.05, duration=duration, lps=lps
                )
            )
        return stream

    def test_frame_path_matches_object_path(self, model):
        from repro.core.synopsis import encode_frame

        stream = self.make_stream()
        object_path = AnomalyDetector(model)
        for s in stream:
            object_path.observe(s)
        object_path.flush()
        assert object_path.anomalies, "workload must trip the detector"

        wire_path = AnomalyDetector(model)
        for start in range(0, len(stream), 100):
            wire_path.observe_frame(encode_frame(stream[start : start + 100]))
        wire_path.flush()

        assert wire_path.anomalies == object_path.anomalies
        assert wire_path.windows_closed == object_path.windows_closed

    def test_frame_offset_skips_prefix(self, model):
        from repro.core.synopsis import encode_frame

        stream = self.make_stream(tasks=200)
        frame = encode_frame(stream)
        padded = b"\x00" * 11 + frame
        plain = AnomalyDetector(model)
        plain.observe_frame(frame)
        offsetted = AnomalyDetector(model)
        offsetted.observe_frame(padded, offset=11)
        assert offsetted.tasks_seen == plain.tasks_seen == 200

    def test_truncated_frames_rejected(self, model):
        from repro.core.synopsis import FRAME_HEADER, encode_frame

        detector = AnomalyDetector(model)
        frame = encode_frame([synopsis(uid=1), synopsis(uid=2)])
        with pytest.raises(ValueError, match="truncated frame header"):
            detector.observe_frame(frame[:4])
        with pytest.raises(ValueError, match="truncated frame payload"):
            detector.observe_frame(frame[:-3])

        payload = frame[FRAME_HEADER.size :]
        lying = FRAME_HEADER.pack(len(payload), 3) + payload
        with pytest.raises(ValueError, match="count mismatch"):
            detector.observe_frame(lying)

    @pytest.mark.parametrize("entry", ["observe_frame", "absorb_frame", "observe_batch"])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_every_entry_point_takes_any_bytes_like(self, model, entry, kind):
        from repro.core.synopsis import encode_frame

        # Under the vector crossover: observe_batch takes the record loop
        # too, whose rule-cache keys are checked below.
        stream = self.make_stream(tasks=200)
        object_path = AnomalyDetector(model)
        for s in stream:
            object_path.observe(s)
        wire_path = AnomalyDetector(model)
        getattr(wire_path, entry)(kind(encode_frame(stream)))
        assert wire_path.flush() == object_path.flush() != []
        assert wire_path.tasks_seen == object_path.tasks_seen
        # A memoryview slice as cache key would pin the caller's buffer.
        assert {
            type(key) for _, rules in wire_path._wire_rules.values() for key in rules
        } == {bytes}

    @pytest.mark.parametrize("fault", ["entries", "header", "count"])
    def test_in_frame_faults_leave_the_same_state_from_every_entry(self, model, fault):
        from repro.core.synopsis import FRAME_HEADER, decode_frame, encode_frame

        stream = self.make_stream(tasks=6)
        frame = encode_frame(stream)
        body = bytearray(frame[FRAME_HEADER.size :])
        record = len(stream[0].encode())  # offset of the second record
        complete = len(stream)
        if fault == "entries":  # last record claims one entry too many
            body[len(body) - len(stream[-1].encode()) + 18] += 1
            complete -= 1
        elif fault == "header":  # payload ends inside the second header
            del body[record + 5 :]
            complete = 1
        bad = FRAME_HEADER.pack(len(body), len(stream) + (fault == "count")) + body
        with pytest.raises(ValueError) as oracle:
            decode_frame(bad)

        states = []
        for entry in ("observe_frame", "absorb_frame", "observe_batch"):
            detector = AnomalyDetector(model)
            with pytest.raises(ValueError) as raised:
                getattr(detector, entry)(bad)
            assert str(raised.value) == str(oracle.value)
            assert detector.tasks_seen == complete
            states.append((detector.watermark, list(detector._buckets)))
        assert states[0] == states[1] == states[2]
