"""The record route against the object route, task for task.

``observe_frame`` and small ``observe_batch`` calls classify each record
against the compiled verdict tables (integer microsecond cuts, sig-ids
looked up in the compile's id space) through a rule cache keyed by
stage and entry bytes; ``observe`` takes a synopsis's float fields,
quantizes them as the wire does (whole ms, whole µs) and reads the same
tables through the same cache, keyed by signature.  Fed the same
unquantized synopses, both must leave the same window buckets, emit the
same events with the same exemplar keys, and agree on every window
count — across retrains and model swaps between frames, which a stale
rule cache would get wrong.  Both are also held to
:class:`~tests.core.float_reference.ReferenceDetector`, which takes each
verdict from the float classifier ``OutlierModel.classify_parts``
instead of the compiled tables the two routes share.
"""

import gc
import heapq
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AnomalyDetector, OutlierModel, SAADConfig, TaskSynopsis
from repro.core import detector as detector_module
from repro.core import interning
from repro.core.columnar import NO_CUT
from repro.core.features import features_from
from repro.core.interning import intern_signature
from repro.core.synopsis import (
    FRAME_HEADER,
    SYNOPSIS_ENTRY,
    SYNOPSIS_HEADER,
    decode_frame,
    encode_frame,
    wire_header,
)
from repro.shard import KeyPinner, ShardedAnalyzer
from repro.tracing import Tracer
from repro.tracing.spans import trace_from_synopsis

from .float_reference import ReferenceDetector

WINDOW_MS = 1000
DOMINANT = (1, 2, 4, 5)
#: Signatures: trained everywhere, trained but rare (a flow outlier),
#: trained only by the retrain trace, and never trained.
SIGNATURES = (DOMINANT, (1, 2, 3, 4, 5), (1, 2, 6), (1, 2, 7), (1, 8))
TRAINED_STAGES = (1, 2)


def synopsis(host, stage, uid, ts_ms, duration_us, lps):
    return TaskSynopsis(
        host_id=host,
        stage_id=stage,
        uid=uid,
        start_time=ts_ms / 1000.0,
        duration=duration_us / 1_000_000.0,
        log_points={lp: 1 for lp in lps},
    )


def training_trace(seed, scale, extra=None):
    """Features of two hosts x two stages: one dominant signature, 5 % of
    a second, one task of a rare third, plus ``extra`` at 10 %."""
    rng = random.Random(seed)
    trace = []
    for uid in range(1600):
        pick = uid % 200
        lps = DOMINANT
        if pick < 10:
            lps = SIGNATURES[1]
        elif pick == 10:
            lps = SIGNATURES[2]
        elif extra is not None and pick < 31:
            lps = extra
        duration_us = int(10_000 * scale * rng.lognormvariate(0, 0.3))
        trace.append(synopsis(uid % 2, TRAINED_STAGES[uid // 2 % 2], uid, uid, duration_us, lps))
    return features_from(trace)


TRACE_A = training_trace(11, 1.0)
TRACE_B = training_trace(12, 1.7)
RETRAIN = training_trace(13, 0.6, extra=SIGNATURES[3])


def train(trace, per_host):
    config = SAADConfig(window_s=WINDOW_MS / 1000.0, min_window_tasks=3, per_host=per_host)
    return OutlierModel(config).train_features(trace)


def compiled_cuts():
    """``(per_host, stage key, signature) -> cuts`` over every model the
    tests train: a task there can land at a cut or 1 us either side."""
    cuts = {}
    for per_host in (True, False):
        for trace in (TRACE_A, TRACE_B, RETRAIN):
            compiled = AnomalyDetector(train(trace, per_host)).compiled_model()
            for stage in compiled.stages.values():
                for sig_id, cut in enumerate(stage.cuts):
                    if cut != NO_CUT:
                        key = (per_host, stage.stage_key, compiled.space.signature_of(sig_id))
                        cuts.setdefault(key, []).append(cut)
    return cuts


CUTS = compiled_cuts()


@st.composite
def streams(draw):
    per_host = draw(st.booleans())
    lateness_ms = draw(st.sampled_from([0, 700, 2500]))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # host
                st.sampled_from(TRAINED_STAGES + (3,)),  # stage 3 is untrained
                st.sampled_from(SIGNATURES),
                st.sampled_from(["advance", "boundary", "late"]),
                st.integers(0, 2500),  # advance or lateness in ms
                st.integers(0, 5),  # which cut, or 5: a free duration
                st.integers(-1, 1),  # nudge off the cut
                st.integers(0, 60_000),  # the free duration
                st.sampled_from([0.0, 0.001, 0.5, 0.999]),  # ms below the start
                st.sampled_from([0.0, 0.001, 0.5, 0.999]),  # µs past the duration
            ),
            min_size=1,
            max_size=90,
        )
    )
    tasks = []
    clock = 0
    for uid, row in enumerate(rows):
        host, stage, lps, step, ms, pick, nudge, free_us, early_ms, extra_us = row
        if step == "advance":
            clock += ms
            ts_ms = clock
        elif step == "boundary":
            clock = (clock // WINDOW_MS + 1) * WINDOW_MS
            ts_ms = clock
        else:
            ts_ms = max(0, clock - min(ms, lateness_ms))
        stage_key = (host, stage) if per_host else (0, stage)
        cuts = CUTS.get((per_host, stage_key, intern_signature(lps)), [])
        duration_us = cuts[pick] + nudge if pick < len(cuts) else free_us
        # Unquantized fields: a start just under a whole ms (a window
        # edge, for "boundary") and a duration just past a whole µs (a
        # cut), which the wire truncates.
        start_ms = max(0.0, ts_ms - early_ms)
        tasks.append(synopsis(host, stage, uid, start_ms, duration_us + extra_us, lps))
    splits = draw(st.sets(st.integers(1, max(1, len(tasks) - 1)), max_size=6))
    bounds = [0, *sorted(splits - {len(tasks)}), len(tasks)]
    frames = [
        (
            tasks[lo:hi],
            draw(st.sampled_from(["observe_frame", "observe_batch"])),
            draw(st.sampled_from([None, "retrain", "swap"])),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return per_host, lateness_ms / 1000.0, frames


def exemplar_keys(events):
    return [[(t.host_id, t.uid) for t in event.exemplars] for event in events]


def assert_same(wire, obj, wire_events, obj_events):
    assert wire_events == obj_events
    assert exemplar_keys(wire_events) == exemplar_keys(obj_events)
    assert wire._buckets == obj._buckets
    assert wire.tasks_seen == obj.tasks_seen
    assert wire.windows_closed == obj.windows_closed
    gauges = [d.registry.get("detector_windows_open").value for d in (wire, obj)]
    assert gauges == [len(obj._buckets)] * 2


def replay(per_host, lateness_s, frames, tracing):
    """Feed ``frames`` encoded to a wire detector and, synopsis by
    synopsis, to an object detector and the float reference, comparing
    them after every frame and after the flush."""
    model, other = train(TRACE_A, per_host), train(TRACE_B, per_host)
    detectors = []
    for cls in (AnomalyDetector, AnomalyDetector, ReferenceDetector):
        tracer = None
        if tracing:
            tracer = Tracer(capacity=4096, registry=None)
            tracer.set_model(model)
            for tasks, _, _ in frames:
                for s in tasks:
                    tracer.finish(s, [(lp, s.start_time) for lp in sorted(s.log_points)])
        detectors.append(cls(model, lateness_s=lateness_s, tracer=tracer))
    wire, obj, ref = detectors
    for tasks, entry, between in frames:
        wire_events = getattr(wire, entry)(encode_frame(tasks))
        obj_events = [e for s in tasks for e in obj.observe(s)]
        ref_events = [e for s in tasks for e in ref.observe(s)]
        assert_same(wire, obj, wire_events, obj_events)
        assert_same(ref, obj, ref_events, obj_events)
        if between == "retrain":
            wire.model.train_features(RETRAIN)
        elif between == "swap":
            wire.model = obj.model = ref.model = other if wire.model is model else model
    ref_events = ref.flush()
    obj_events = obj.flush()
    assert_same(wire, obj, wire.flush(), obj_events)
    assert_same(ref, obj, ref_events, obj_events)
    assert wire.registry.get("detector_windows_open").value == 0


def past_the_cut():
    """Ten tasks 0.999 µs past TRACE_A's fractional cut for (0, 1)'s rare
    flow: the wire truncates each duration to the cut, so none is slow."""
    cut = CUTS[(True, (0, 1), intern_signature(SIGNATURES[1]))][0]
    tasks = [synopsis(0, 1, uid, 10 * uid, cut + 0.999, SIGNATURES[1]) for uid in range(10)]
    return True, 0.0, [(tasks, "observe_frame", None)]


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(stream=streams(), tracing=st.booleans())
@example(stream=past_the_cut(), tracing=False)
def test_record_route_matches_object_route(stream, tracing):
    replay(*stream, tracing)


@pytest.mark.parametrize("cache_max", [None, 3])
def test_retrain_and_swap_between_frames_rebuild_the_rules(cache_max, monkeypatch):
    # The same shapes before and after each change of model: signature
    # (1, 2, 7) is novel to TRACE_A and TRACE_B but trained by RETRAIN,
    # and the durations straddle every model's cut.
    stages = [(host, stage) for host in (0, 1) for stage in TRAINED_STAGES]
    durations = sorted({c + d for cuts in CUTS.values() for c in cuts for d in (-1, 0, 1)})
    tasks = [
        synopsis(host, stage, uid, 10 * uid, durations[uid % len(durations)], lps)
        for uid, ((host, stage), lps) in enumerate(
            (key, lps) for lps in SIGNATURES for key in stages for _ in range(4)
        )
    ]
    if cache_max is not None:  # the cache resets every few misses
        monkeypatch.setattr(detector_module, "_WIRE_RULE_CACHE_MAX", cache_max)
    frames = [
        (tasks, "observe_frame", "retrain"),
        (tasks, "observe_batch", "swap"),
        (tasks, "observe_frame", "swap"),
        (tasks, "observe_batch", None),
    ]
    for per_host in (True, False):
        replay(per_host, 0.0, frames, tracing=False)


def test_trained_signature_without_an_id_is_not_novel(monkeypatch):
    # The id space filled up before a retrain introduced a signature:
    # the recompile has no table row for it, yet it is trained.
    model = train(TRACE_A, per_host=True)
    wire, obj, ref = AnomalyDetector(model), AnomalyDetector(model), ReferenceDetector(model)
    space = wire.compiled_model().space
    monkeypatch.setattr(interning, "MAX_SIGNATURE_IDS", len(space) + 1)
    space.id_of(frozenset({99}))
    assert space.full
    model.train(RETRAIN)
    assert wire.compiled_model().space.ids.get(intern_signature(SIGNATURES[3])) is None
    tasks = [synopsis(0, 1, uid, uid * 10, 10_000, SIGNATURES[3]) for uid in range(20)]
    frame = encode_frame(tasks)
    wire_events = wire.observe_frame(frame)
    obj_events = [e for s in decode_frame(frame)[0] for e in obj.observe(s)]
    assert_same(wire, obj, wire_events, obj_events)
    assert_same(ref, obj, ref.observe_frames([frame]), obj_events)
    assert wire._buckets and not any(b.new_signatures for b in wire._buckets.values())
    assert wire.flush() == obj.flush() == ref.flush()


@pytest.mark.parametrize("entry", ["observe", "observe_frame"])
@pytest.mark.parametrize("change", ["swap", "retrain"])
def test_model_change_resets_the_performance_baselines(change, entry):
    # Window 0 memoizes TRACE_A's baseline for (0, 1)'s dominant flow;
    # window 1 must be judged by RETRAIN's, as a fresh detector would.
    def window(index, threshold):
        durations = [threshold * (1.5e6 if uid < 12 else 0.5e6) for uid in range(40)]
        return [
            synopsis(0, 1, uid, index * WINDOW_MS + uid, duration_us, DOMINANT)
            for uid, duration_us in enumerate(durations)
        ]

    def feed(detector, tasks):
        if entry == "observe":
            return [e for s in tasks for e in detector.observe(s)]
        return detector.observe_frame(encode_frame(tasks))

    model, new = train(TRACE_A, per_host=True), train(RETRAIN, per_host=True)
    profile = new.stages[(0, 1)].signatures[intern_signature(DOMINANT)]
    changed = AnomalyDetector(model)
    feed(changed, window(0, profile.duration_threshold))
    changed.flush()
    if change == "swap":
        changed.model = new
    else:
        model.train_features(RETRAIN)
    tasks = window(1, profile.duration_threshold)
    fresh = AnomalyDetector(new)
    expected = feed(fresh, tasks) + fresh.flush()
    assert [e.kind for e in expected] == ["performance"]
    assert feed(changed, tasks) + changed.flush() == expected


def packed_frame(records):
    """One frame of ``(host, stage, uid, ts_ms, duration_us, lps)``
    records packed as given, so a duration can be negative (the wire's
    one signed field), which no :class:`TaskSynopsis` holds."""
    payload = b"".join(
        SYNOPSIS_HEADER.pack(*header, len(lps))
        + b"".join(SYNOPSIS_ENTRY.pack(lp, 1) for lp in lps)
        for *header, lps in records
    )
    return FRAME_HEADER.pack(len(payload), len(records)) + payload


NOVEL = SIGNATURES[4]


def tie_stream(seed, negative):
    """In-order records over about three windows of both trained stages:
    durations from a few whole-µs values (some negative when
    ``negative``) and uids from a few, so durations tie and ``(host,
    uid)`` keys repeat; a quarter carry a never-trained signature."""
    rng = random.Random(seed)
    durations = (-7, -1, 0, 3, 3, 9, 9, 9) if negative else (0, 3, 3, 9, 9, 9, 12)
    records, ts_ms = [], 0
    for _ in range(240):
        ts_ms += rng.choice((0, 0, 7, 40))
        host = rng.randrange(2)
        lps = rng.choice((DOMINANT, DOMINANT, SIGNATURES[1], NOVEL))
        duration_us = rng.choice(durations)
        records.append((host, TRAINED_STAGES[host], rng.randrange(6), ts_ms, duration_us, lps))
    return records


def exemplar_model(records, k):
    """Each window's exemplar keys by the rule on ``(duration_us, (host,
    uid))`` tuples: new-signature keys while fewer than K are held, a
    K-slowest min-heap that takes a task while it holds fewer than K or
    when its duration is strictly greater than the heap's least; pinned
    new-signature keys first, then the slowest first, each key once."""
    windows = {}
    for host, stage, uid, ts_ms, duration_us, lps in records:
        new_keys, slowest = windows.setdefault((host, stage, ts_ms // WINDOW_MS), ([], []))
        key = (host, uid)
        if lps == NOVEL and len(new_keys) < k:
            new_keys.append(key)
        if len(slowest) < k:
            heapq.heappush(slowest, (duration_us, key))
        elif duration_us > slowest[0][0]:
            heapq.heapreplace(slowest, (duration_us, key))
    return {
        window: list(dict.fromkeys(new_keys + [key for _, key in sorted(slowest, reverse=True)]))[:k]
        for window, (new_keys, slowest) in windows.items()
    }


def assert_exemplars_follow_the_model(events, records, k):
    pins = exemplar_model(records, k)
    flagged = {(h, s, ts // WINDOW_MS) for h, s, _, ts, _, lps in records if lps == NOVEL}
    windows = {(e.host_id, e.stage_id, int(e.window_start // 1.0)) for e in events}
    assert flagged <= windows
    for event in events:
        window = (event.host_id, event.stage_id, int(event.window_start // 1.0))
        keys = [t if isinstance(t, tuple) else (t.host_id, t.uid) for t in event.exemplars]
        assert keys == pins[window], window


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("negative", [False, True])
def test_exemplars_under_ties_on_the_record_route(k, seed, negative):
    records = tie_stream(seed, negative)
    detector = AnomalyDetector(train(TRACE_A, True), tracer=KeyPinner(), exemplars_per_window=k)
    events = []
    for lo in range(0, len(records), 64):
        events += detector.observe_frame(packed_frame(records[lo : lo + 64]))
    assert_exemplars_follow_the_model(events + detector.flush(), records, k)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exemplars_under_ties_on_observe(k, seed):
    # A synopsis cannot hold a negative duration.  The model reads what
    # observe() counts: the wire's quantization of each synopsis.
    synopses = decode_frame(packed_frame(tie_stream(seed, negative=False)))[0]
    records = [
        (s.host_id, s.stage_id, s.uid, *wire_header(s.uid, s.start_time, s.duration), tuple(sorted(s.log_points)))
        for s in synopses
    ]
    detector = AnomalyDetector(train(TRACE_A, True), tracer=KeyPinner(), exemplars_per_window=k)
    events = [e for s in synopses for e in detector.observe(s)]
    assert_exemplars_follow_the_model(events + detector.flush(), records, k)


@pytest.mark.parametrize("k", [1, 3])
def test_exemplars_under_ties_on_a_two_shard_pool(k):
    # Workers track candidates with a KeyPinner; the coordinator pins
    # the keys against this tracer, which holds every (host, uid).
    records = tie_stream(4, negative=True)
    tracer = Tracer(capacity=4096, registry=None)
    for host, stage, uid in {(h, s, u) for h, s, u, *_ in records}:
        tracer.record(trace_from_synopsis(synopsis(host, stage, uid, 0, 0, DOMINANT), []))
    with ShardedAnalyzer(train(TRACE_A, True), 2, tracer=tracer, exemplars_per_window=k) as pool:
        for lo in range(0, len(records), 64):
            pool.dispatch_frame(packed_frame(records[lo : lo + 64]))
        pool.close()
    assert_exemplars_follow_the_model(pool.anomalies, records, k)


# -- window state ---------------------------------------------------------------

MODEL = train(TRACE_A, True)


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    width=st.sampled_from([1, 2, 30, 0.3, 2.5, 1 / 3]),
    start=st.integers(0, 2**53 - 1),
    steps=st.lists(
        st.integers(0, 5000) | st.integers(-5000, 0) | st.integers(-(2**40), 2**40),
        min_size=1,
        max_size=80,
    ),
    chunk=st.integers(1, 30),
)
def test_record_route_window_index_is_the_scalar_one(width, start, steps, chunk):
    # Forward steps move the cached window range, backward jumps are late
    # data; no window closes, so every bucket ever opened is still open.
    stamps, ts_ms = [], start
    for step in steps:
        ts_ms = min(max(ts_ms + step, 0), 2**53 - 1)
        stamps.append(ts_ms)
    config = replace(MODEL.config, window_s=width)
    detector = AnomalyDetector(MODEL, config, lateness_s=float("inf"))
    records = [(0, 1, uid, ts, 10_000, DOMINANT) for uid, ts in enumerate(stamps)]
    for lo in range(0, len(records), chunk):
        detector.observe_frame(packed_frame(records[lo : lo + chunk]))
    opened = {key >> 16 for key in detector._buckets}
    assert opened == {int((ts / 1000.0) // width) for ts in stamps}
    assert detector.watermark == max(stamps) / 1000.0


def test_open_windows_hold_few_gc_tracked_objects():
    # Known signatures on both sides of their cuts, four stage keys:
    # opening a window may add its bucket and one container, a window
    # index its list of bucket keys; counting into open windows, nothing.
    cuts = [c for (per_host, _, _), cs in CUTS.items() if per_host for c in cs]
    durations = [min(cuts) - 1, max(cuts) + 1, 10_000]
    stages = [(host, stage) for host in (0, 1) for stage in TRAINED_STAGES]

    def frame(indices, uid):
        return packed_frame(
            [
                (host, stage, uid + n, index * WINDOW_MS + n, durations[n % 3], lps)
                for index in indices
                for n, ((host, stage), lps) in enumerate(
                    (key, lps) for key in stages for lps in SIGNATURES[:3]
                )
            ]
        )

    detector = AnomalyDetector(MODEL, lateness_s=float("inf"))
    detector.observe_frame(frame([0], 0))  # warm the compile and the rule cache
    windows = [1, 2, 3, 4]
    gc.collect()
    before = len(gc.get_objects())
    detector.observe_frame(frame(windows, 100))
    gc.collect()
    opened = len(gc.get_objects())
    assert len(detector._buckets) == len(stages) * (len(windows) + 1)
    assert opened - before <= 2 * len(stages) * len(windows) + len(windows)
    for uid in range(200, 1000, 100):
        detector.observe_frame(frame(windows, uid))
    gc.collect()
    assert len(gc.get_objects()) <= opened
