"""Columnar batch detect path: scalar/batch equivalence suite.

The contract under test (DESIGN §13): ``observe_batch`` must produce
**bit-identical** ordered :class:`AnomalyEvent` output to the object
path — ``observe`` over ``decode_frame``'d synopses, the one other
reader of the record layout — and to the float reference
(:class:`~tests.core.float_reference.ReferenceDetector`, verdicts from
``OutlierModel.classify_parts``) for any wire input, including exemplar
pins when tracing is on, error messages and partial state on truncated
frames, and the fallbacks (tracing, guard-tripped chunks).

``observe_batch`` has two exact routes past the frame scan — the
per-record loop for batches under ``_VECTOR_MIN_RECORDS`` records, the
vector kernel from there up — and picks by record count.  The
equivalence, error and fallback classes run once per route (the
``route`` fixture pins the choice), so the small streams here keep
exercising the vector kernel; ``TestRouteChoice`` covers the choice
itself.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnomalyDetector,
    OutlierModel,
    SAADConfig,
    TaskSynopsis,
    compile_model,
)
from repro.core.columnar import NO_CUT, exact_duration_cut
from repro.core import columnar
from repro.core import detector as detector_module
from repro.core.interning import intern_signature
from repro.core.synopsis import (
    FRAME_HEADER,
    SYNOPSIS_ENTRY,
    SYNOPSIS_HEADER,
    decode_frame,
    encode_frame,
)

from .float_reference import ReferenceDetector

pytestmark = pytest.mark.columnar


@pytest.fixture(params=["vector", "records"])
def route(request, monkeypatch):
    """Pin ``observe_batch`` to one of its two exact routes."""
    floor = 1 if request.param == "vector" else 1 << 62
    monkeypatch.setattr(detector_module, "_VECTOR_MIN_RECORDS", floor)
    return request.param


def synopsis(stage=1, host=0, uid=0, start=0.0, duration=0.01, lps=(1, 2, 4, 5)):
    return TaskSynopsis(
        host_id=host,
        stage_id=stage,
        uid=uid,
        start_time=start,
        duration=duration,
        log_points={lp: 1 for lp in lps},
    )


def make_stream(tasks=1500, hosts=2, stages=(1, 2)):
    """Deterministic faulted workload: novel-signature burst + slowdown."""
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
                stage=stages[i % len(stages)],
                host=i % hosts,
                uid=i,
                start=i * 0.05,
                duration=duration,
                lps=lps,
            )
        )
    return stream


def train_model(config=None, tasks=3000, hosts=2, stages=(1, 2)):
    rng = random.Random(11)
    trace = []
    for i in range(tasks):
        lps = (1, 2, 4, 5) if rng.random() > 0.01 else (1, 2, 3, 4, 5)
        trace.append(
            synopsis(
                stage=stages[i % len(stages)],
                host=i % hosts,
                uid=i,
                start=i * 0.05,
                duration=0.01 * rng.lognormvariate(0, 0.3),
                lps=lps,
            )
        )
    config = config or SAADConfig(window_s=60.0, min_window_tasks=8)
    return OutlierModel(config).train(trace)


@pytest.fixture(scope="module")
def model():
    return train_model()


def scalar_run(model, stream, **kwargs):
    """``observe`` over ``stream``, held to the float reference on the
    same synopses."""
    runs = []
    for cls in (AnomalyDetector, ReferenceDetector):
        detector = cls(model, **kwargs)
        mid = [e for s in stream for e in detector.observe(s)]
        runs.append((detector, mid, detector.flush()))
    assert_equivalent(runs[1], runs[0])
    return runs[0]


def batch_run(model, blob, offset=0, **kwargs):
    detector = AnomalyDetector(model, **kwargs)
    mid = detector.observe_batch(blob, offset=offset)
    tail = detector.flush()
    return detector, mid, tail


def frames_of(stream, chunk=97):
    """The stream as a multi-frame wire blob (ragged frame sizes)."""
    return b"".join(
        encode_frame(stream[i : i + chunk]) for i in range(0, len(stream), chunk)
    )


def assert_equivalent(scalar, batch):
    s_det, s_mid, s_tail = scalar
    b_det, b_mid, b_tail = batch
    assert b_mid == s_mid
    assert b_tail == s_tail
    assert b_det.anomalies == s_det.anomalies
    assert b_det.tasks_seen == s_det.tasks_seen
    assert b_det.windows_closed == s_det.windows_closed


@pytest.mark.usefixtures("route")
class TestBatchEquivalence:
    def test_identical_ordered_events_on_faulted_stream(self, model):
        stream = make_stream()
        scalar = scalar_run(model, stream)
        assert scalar[0].anomalies, "workload must trip the detector"
        batch = batch_run(model, frames_of(stream))
        assert_equivalent(scalar, batch)

    def test_single_frame_and_iterable_of_frames(self, model):
        stream = make_stream(tasks=400)
        scalar = scalar_run(model, stream)
        one = batch_run(model, encode_frame(stream))
        assert_equivalent(scalar, one)
        many = batch_run(
            model, [encode_frame(stream[i : i + 50]) for i in range(0, 400, 50)]
        )
        assert_equivalent(scalar, many)

    def test_offset_skips_prefix(self, model):
        stream = make_stream(tasks=300)
        blob = frames_of(stream)
        plain = batch_run(model, blob)
        padded = batch_run(model, b"\xff" * 13 + blob, offset=13)
        assert_equivalent(plain, padded)

    def test_per_host_false(self):
        config = SAADConfig(window_s=60.0, min_window_tasks=8, per_host=False)
        model = train_model(config=config)
        stream = make_stream()
        scalar = scalar_run(model, stream)
        batch = batch_run(model, frames_of(stream))
        assert_equivalent(scalar, batch)
        assert all(e.stage_key[0] == 0 for e in batch[0].anomalies)

    def test_boundary_adversarial_timestamps(self, model):
        # Starts landing exactly on / just around window boundaries, in
        # every representable-millisecond neighborhood the wire format
        # can produce.  Window indexing must agree with the scalar
        # float-floordiv expression for each of them.
        starts = []
        for base in (0.0, 60.0, 120.0, 3600.0, 86400.0, 1.7e9):
            for nudge in (-0.001, -0.0005, 0.0, 0.0005, 0.001, 0.999, 1.0):
                starts.append(max(0.0, base + nudge))
        stream = [
            synopsis(uid=i, start=start, lps=(1, 9) if i % 7 == 0 else (1, 2, 4, 5))
            for i, start in enumerate(sorted(starts))
        ]
        scalar = scalar_run(model, stream)
        batch = batch_run(model, frames_of(stream, chunk=11))
        assert_equivalent(scalar, batch)

    def test_lateness_and_out_of_order_arrivals(self, model):
        rng = random.Random(7)
        stream = make_stream(tasks=800)
        rng.shuffle(stream)  # heavy event-time disorder
        scalar = scalar_run(model, stream, lateness_s=45.0)
        batch = batch_run(model, frames_of(stream), lateness_s=45.0)
        assert_equivalent(scalar, batch)

    def test_batch_counters_account_every_task(self, model):
        stream = make_stream(tasks=600)
        detector, _, _ = batch_run(model, frames_of(stream))
        assert detector._columnar_tasks == 600
        batches = detector.registry.get("columnar_batches")
        assert batches.value == 1


@pytest.mark.usefixtures("route")
class TestBatchErrors:
    """Truncation errors must match the scalar path, message and state."""

    def test_truncated_frame_header(self, model):
        frame = encode_frame([synopsis(uid=1), synopsis(uid=2)])
        detector = AnomalyDetector(model)
        with pytest.raises(ValueError, match="truncated frame header"):
            detector.observe_batch(frame[:4])
        assert detector.tasks_seen == 0

    def test_truncated_frame_payload(self, model):
        frame = encode_frame([synopsis(uid=1), synopsis(uid=2)])
        detector = AnomalyDetector(model)
        with pytest.raises(ValueError, match="truncated frame payload"):
            detector.observe_batch(frame[:-3])
        assert detector.tasks_seen == 0

    def test_frame_count_mismatch(self, model):
        frame = encode_frame([synopsis(uid=1), synopsis(uid=2)])
        payload = frame[FRAME_HEADER.size :]
        lying = FRAME_HEADER.pack(len(payload), 3) + payload
        detector = AnomalyDetector(model)
        with pytest.raises(ValueError, match="count mismatch"):
            detector.observe_batch(lying)

    def test_error_message_and_partial_state_match_scalar(self, model):
        stream = make_stream(tasks=400)
        good = encode_frame(stream[:200])
        bad = encode_frame(stream[200:])[:-3]

        s_det = AnomalyDetector(model)
        for s in decode_frame(good)[0]:
            s_det.observe(s)
        with pytest.raises(ValueError) as scalar_err:
            decode_frame(bad)

        b_det = AnomalyDetector(model)
        with pytest.raises(ValueError) as batch_err:
            b_det.observe_batch(good + bad)

        assert str(batch_err.value) == str(scalar_err.value)
        assert b_det.tasks_seen == s_det.tasks_seen == 200
        s_det.flush()
        b_det.flush()
        assert b_det.anomalies == s_det.anomalies


@pytest.mark.usefixtures("route")
class TestFallbacks:
    def test_tracing_fallback_pins_identical_exemplars(self, model):
        from repro.tracing import Tracer

        stream = make_stream()

        def run(feed):
            tracer = Tracer(capacity=4096, registry=None)
            tracer.set_model(model)
            for s in stream:
                tracer.finish(s, [(lp, s.start_time) for lp in sorted(s.log_points)])
            detector = AnomalyDetector(model, tracer=tracer)
            feed(detector)
            detector.flush()
            return detector

        s_det = run(lambda d: [d.observe(s) for s in stream])
        b_det = run(lambda d: d.observe_batch(frames_of(stream)))
        assert s_det.anomalies and any(e.exemplars for e in s_det.anomalies)

        def keys(detector):
            return [
                [(t.host_id, t.uid) for t in e.exemplars]
                for e in detector.anomalies
            ]

        assert keys(b_det) == keys(s_det)
        assert b_det._columnar_fallback_tasks == len(stream)


class TestCompiledModel:
    def test_compiled_classify_matches_classify_parts(self, model):
        compiled = compile_model(model)
        durations_us = [0, 1, 5000, 10_000, 50_000, 2_000_000]
        for stage_key, stage_model in model.stages.items():
            host_id, stage_id = stage_key
            for signature, profile in stage_model.signatures.items():
                sig_id = compiled.space.id_of(signature)
                if profile.duration_threshold is not None:
                    cut = exact_duration_cut(profile.duration_threshold)
                    durations = durations_us + [cut - 1, cut, cut + 1]
                else:
                    durations = durations_us
                for duration_us in durations:
                    if not 0 <= duration_us < 2**31:
                        continue
                    want = model.classify_parts(
                        stage_key, signature, duration_us / 1e6
                    )
                    got = compiled.classify(host_id, stage_id, sig_id, duration_us)
                    assert got == want, (stage_key, signature, duration_us)

    def test_unknown_signature_and_stage_are_novel(self, model):
        compiled = compile_model(model)
        label = compiled.classify(0, 1, len(compiled.space) + 5, 1000)
        assert label.new_signature and not label.flow_outlier
        label = compiled.classify(99, 77, 0, 1000)
        assert label.new_signature

    def test_untrained_model_rejected(self):
        with pytest.raises(RuntimeError, match="trained"):
            compile_model(OutlierModel(SAADConfig()))

    def test_exact_duration_cut_is_tight(self):
        for threshold in (0.0, 0.01, 0.012345, 1e-7, 3.2e-7, 123.456789, -0.5):
            cut = exact_duration_cut(threshold)
            assert cut / 1e6 <= threshold
            assert (cut + 1) / 1e6 > threshold
        assert exact_duration_cut(1e9) == NO_CUT
        assert exact_duration_cut(-1e9) == -NO_CUT

    def test_generation_bump_invalidates_detector_cache(self, model):
        detector = AnomalyDetector(model)
        first = detector.compiled_model()
        assert detector.compiled_model() is first  # cached
        rng = random.Random(3)
        model.train(
            [
                synopsis(uid=i, start=i * 0.05, duration=0.01 * rng.lognormvariate(0, 0.3))
                for i in range(500)
            ]
        )
        assert first.stale
        second = detector.compiled_model()
        assert second is not first
        assert second.generation == model.generation
        # The id space survives recompiles: ids stay valid.
        assert second.space is first.space

    @pytest.mark.usefixtures("route")
    def test_retrained_detection_still_matches_scalar(self, model):
        # After the cache invalidation above, batch results must still
        # track the (new) model exactly.
        stream = make_stream(tasks=500)
        scalar = scalar_run(model, stream)
        batch = batch_run(model, frames_of(stream))
        assert_equivalent(scalar, batch)


def frame_run(model, frames, **kwargs):
    """The object path over the same bytes (decode, then ``observe``
    each), held to the float reference over the frames' records."""
    detector = AnomalyDetector(model, **kwargs)
    mid = [
        e
        for frame in frames
        for s in decode_frame(frame)[0]
        for e in detector.observe(s)
    ]
    run = (detector, mid, detector.flush())
    reference = ReferenceDetector(model, **kwargs)
    mid = reference.observe_frames(frames)
    assert_equivalent((reference, mid, reference.flush()), run)
    return run


def counters(detector):
    """Every count the two ingest paths must agree on."""
    registry = detector.registry
    return {
        "tasks_seen": detector.tasks_seen,
        "windows_closed": detector.windows_closed,
        "watermark": detector.watermark,
        "windows_opened": registry.get("detector_windows_opened").value,
        "new_signatures": registry.get("detector_new_signatures").value,
        "anomalies": [
            sample["value"]
            for family in registry.collect()
            if family["name"] == "detector_anomalies"
            for sample in family["samples"]
        ],
    }


class TestRouteChoice:
    """The per-batch choice between the record loop and the vector kernel."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """Record which route each scanned batch took, and its size."""
        calls = []
        records = AnomalyDetector._observe_records
        chunk = AnomalyDetector._ingest_chunk

        def spy_records(self, data, offsets):
            calls.append(("records", len(offsets)))
            return records(self, data, offsets)

        def spy_chunk(self, np, b, data, offs, compiled, events):
            calls.append(("vector", len(offs)))
            return chunk(self, np, b, data, offs, compiled, events)

        monkeypatch.setattr(AnomalyDetector, "_observe_records", spy_records)
        monkeypatch.setattr(AnomalyDetector, "_ingest_chunk", spy_chunk)
        return calls

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_equal_to_observe_frame_around_the_crossover(self, model, taken, delta):
        crossover = detector_module._VECTOR_MIN_RECORDS
        n = crossover + delta
        stream = make_stream(tasks=n)
        frame = encode_frame(stream)
        scalar = frame_run(model, [frame])
        assert scalar[0].anomalies, "workload must trip the detector"
        batch = batch_run(model, frame)
        assert taken == [("records" if n < crossover else "vector", n)]
        assert_equivalent(scalar, batch)
        assert counters(batch[0]) == counters(scalar[0])
        assert batch[0]._columnar_tasks == n
        assert batch[0]._columnar_fallback_tasks == 0

    def test_multi_frame_buffer_straddling_the_crossover(self, model, taken):
        # Each frame is under the crossover, the buffer is over it: the
        # choice is per scanned batch, so one call takes the kernel and
        # frame-by-frame calls take the loop — same events either way.
        crossover = detector_module._VECTOR_MIN_RECORDS
        per_frame = crossover // 2 + 1
        stream = make_stream(tasks=2 * per_frame)
        frames = [encode_frame(stream[:per_frame]), encode_frame(stream[per_frame:])]
        scalar = frame_run(model, frames)
        whole = batch_run(model, b"".join(frames))
        assert taken == [("vector", 2 * per_frame)]
        del taken[:]
        detector = AnomalyDetector(model)
        mid = [e for frame in frames for e in detector.observe_batch(frame)]
        split = (detector, mid, detector.flush())
        assert taken == [("records", per_frame)] * 2
        for batch in (whole, split):
            assert_equivalent(scalar, batch)
            assert counters(batch[0]) == counters(scalar[0])
            assert batch[0]._columnar_tasks == 2 * per_frame
            assert batch[0]._columnar_fallback_tasks == 0

    def test_small_route_is_not_a_fallback_but_a_tripped_guard_is(self, model, monkeypatch):
        stream = make_stream(tasks=200)
        small, _, _ = batch_run(model, encode_frame(stream))
        assert small.registry.get("columnar_fallback_tasks").value == 0
        assert small.registry.get("columnar_tasks").value == 200
        # Force the kernel, then trip its window-span guard: the chunk
        # degrades to the same record loop, and that *is* counted.
        monkeypatch.setattr(detector_module, "_VECTOR_MIN_RECORDS", 1)
        monkeypatch.setattr(columnar, "window_boundaries", lambda *a, **k: None)
        tripped = batch_run(model, encode_frame(stream))
        assert tripped[0].registry.get("columnar_fallback_tasks").value == 200
        assert_equivalent(scalar_run(model, stream), tripped)

    @pytest.mark.parametrize("framing", ["one_frame", "many_frames"])
    def test_tracing_rides_the_record_loop_past_the_crossover(self, model, taken, framing):
        from repro.tracing import Tracer

        n = 3 * detector_module._VECTOR_MIN_RECORDS
        stream = make_stream(tasks=n)
        blob = encode_frame(stream) if framing == "one_frame" else frames_of(stream)

        def run(feed):
            tracer = Tracer(capacity=4096, registry=None)
            tracer.set_model(model)
            for s in stream:
                tracer.finish(s, [(lp, s.start_time) for lp in sorted(s.log_points)])
            detector = AnomalyDetector(model, tracer=tracer)
            return detector, feed(detector), detector.flush()

        scalar = run(lambda d: [e for s in stream for e in d.observe(s)])
        batch = run(lambda d: d.observe_batch(blob))
        assert taken == [("records", n)]
        assert_equivalent(scalar, batch)
        assert counters(batch[0]) == counters(scalar[0])
        pins = [
            [[(t.host_id, t.uid) for t in e.exemplars] for e in d.anomalies]
            for d in (scalar[0], batch[0])
        ]
        assert pins[0] == pins[1] and any(pins[0])
        assert batch[0]._columnar_tasks == batch[0]._columnar_fallback_tasks == n

    def test_default_frame_size_takes_the_record_loop(self, model, taken):
        from repro.core.stream import DEFAULT_FLUSH_SIZE

        assert DEFAULT_FLUSH_SIZE < detector_module._VECTOR_MIN_RECORDS
        batch_run(model, encode_frame(make_stream(tasks=DEFAULT_FLUSH_SIZE)))
        assert taken == [("records", DEFAULT_FLUSH_SIZE)]


def raw_frame(records):
    """One frame of hand-packed ``(host, stage, uid, ts_ms, duration_us,
    entries)`` records: entries go on the wire in the order given, so a
    record can carry lpids unsorted or more than once."""
    payload = b"".join(
        SYNOPSIS_HEADER.pack(*header, len(entries))
        + b"".join(SYNOPSIS_ENTRY.pack(*entry) for entry in entries)
        for *header, entries in records
    )
    return FRAME_HEADER.pack(len(payload), len(records)) + payload


#: Entry layouts every batch carries besides the drawn ones: no entries,
#: the trained set reversed, the trained set with an lpid twice under
#: other visit counts, and 255 entries cycling through lpids 0 and 0xFFFF.
FIXED_LAYOUTS = (
    [],
    [(5, 1), (4, 1), (2, 1), (1, 1)],
    [(2, 3), (1, 1), (4, 9), (5, 2), (1, 4)],
    [((0, 1, 2, 4, 5, 0xFFFF)[i % 6], i + 1) for i in range(255)],
)


def kernel_batch(layouts, seed, extra=0):
    """``_VECTOR_MIN_RECORDS + extra`` records in one to three frames, so
    one ``observe_batch`` call takes the vector kernel.  Records draw
    their layout from ``layouts`` (the 255-entry one rarely), and their
    host, stage (3 is untrained), duration and start from ``seed``;
    windows close mid-batch."""
    rng = random.Random(seed)
    weights = [0.1 if len(layout) == 255 else 1 for layout in layouts]
    count = detector_module._VECTOR_MIN_RECORDS + extra
    records = []
    for uid in range(count):
        duration_us = int(10_000 * rng.lognormvariate(0, 0.3) * rng.choice((1, 1, 6)))
        ts_ms = max(0, 300 * uid - rng.randrange(2000))
        layout = rng.choices(layouts, weights)[0]
        host, stage = rng.randrange(2), rng.choice((1, 2, 3))
        records.append((host, stage, uid, ts_ms, duration_us, layout))
    cuts = sorted(rng.sample(range(1, count), rng.randrange(3)))
    return [raw_frame(records[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, count])]


@st.composite
def kernel_batches(draw):
    """:func:`kernel_batch` over :data:`FIXED_LAYOUTS` and drawn ones:
    lpids unsorted, repeated, 0 and 0xFFFF.  Each drawn layout also
    rides under other visit counts, and reversed."""
    lpid = st.sampled_from([0, 1, 2, 3, 4, 5, 0xFFFF]) | st.integers(0, 0xFFFF)
    visits = st.sampled_from([1, 2, 7, 2**31 - 1])
    layout = st.lists(st.tuples(lpid, visits), max_size=6)
    drawn = draw(st.lists(layout, min_size=1, max_size=4))
    layouts = list(FIXED_LAYOUTS)
    for layout in drawn:
        layouts += [layout, [(lp, n % 5 + 1) for lp, n in layout], layout[::-1]]
    return kernel_batch(layouts, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 64)))


def assert_kernel_matches_record_routes(model, frames):
    """``observe_batch`` over the joined frames (the vector kernel) equals
    ``observe_frame`` frame by frame, ``observe`` on the decoded
    synopses and the float reference over the frames' records, before
    and after the flush."""
    kernel, per_frame, objects = (AnomalyDetector(model) for _ in range(3))
    reference = ReferenceDetector(model)
    mids = [
        kernel.observe_batch(b"".join(frames)),
        [e for frame in frames for e in per_frame.observe_frame(frame)],
        [e for frame in frames for s in decode_frame(frame)[0] for e in objects.observe(s)],
        reference.observe_frames(frames),
    ]
    others = (per_frame, objects, reference)
    tasks = sum(FRAME_HEADER.unpack_from(frame)[1] for frame in frames)
    assert kernel.registry.get("columnar_tasks").value == tasks
    assert kernel.registry.get("columnar_fallback_tasks").value == 0
    for detector, mid in zip(others, mids[1:]):
        assert mids[0] == mid
        assert kernel._buckets == detector._buckets
        assert kernel.tasks_seen == detector.tasks_seen == tasks
        assert detector.registry.get("columnar_tasks").value == 0
    tails = [detector.flush() for detector in (kernel, *others)]
    assert all(tail == tails[0] for tail in tails)
    assert all(counters(detector) == counters(kernel) for detector in others)


class TestKernelLayouts:
    """The vector kernel's signature ids under adversarial entry layouts."""

    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    @given(frames=kernel_batches())
    def test_kernel_matches_the_record_routes(self, model, frames):
        assert_kernel_matches_record_routes(model, frames)

    def test_colliding_keys_keep_the_ids_exact(self, model, monkeypatch):
        # With a zero mix every record keys alike: one group, and every
        # record unlike its representative resolved on its own.
        monkeypatch.setattr(columnar, "_KEY_MIX", 0)
        pairs = [[(1, 1), (2, 5)], [(2, 5), (1, 1)], [(1, 2), (2, 2)], [(9, 1)]]
        frames = kernel_batch([*FIXED_LAYOUTS, *pairs], seed=5)
        blob = b"".join(frames)
        columns = columnar.decode_columns(blob)
        decoded = [s for frame in frames for s in decode_frame(frame)[0]]
        assert [columns.signature(i) for i in columns.sig_id.tolist()] == [
            intern_signature(s.log_points) for s in decoded
        ]
        assert len({columns.signature(i) for i in columns.sig_id.tolist()}) > 1
        assert_kernel_matches_record_routes(model, frames)
