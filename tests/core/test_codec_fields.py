"""The one synopsis encoder, pinned against the object encoder it replaced.

``encode_fields`` is what both the tracker's record route and
``TaskSynopsis.encode`` run.  ``reference_encode`` below is a frozen copy
of the object encoder as it was before the two were merged; every
property checks the field encoder gives the same bytes, or raises the
same ``ValueError`` message, at each wire-field boundary.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SynopsisStream, TaskExecutionTracker, TaskSynopsis
from repro.core.synopsis import _FLOW_BLOCKS, MAX_MEMOIZED_FLOWS, encode_fields
from repro.loglib.record import LogCall

_HEADER = struct.Struct("<BBIQiB")
_MAX_COUNT = 2**31 - 1


def reference_encode(host_id, stage_id, uid, start_time, duration, log_points):
    """Frozen copy of the former ``TaskSynopsis.encode`` body."""
    entries = sorted(log_points.items())
    n = len(entries)
    if n > 255:
        raise ValueError(f"too many distinct log points ({n}) for one synopsis")
    if uid < 0 or uid > 0xFFFFFFFF:
        raise ValueError(f"uid {uid} does not fit the 32-bit wire field")
    ts_ms = int(start_time * 1000)
    if ts_ms < 0 or ts_ms > 0xFFFFFFFFFFFFFFFF:
        raise ValueError(
            f"start_time {start_time} does not fit the 64-bit wire field"
        )
    if n and (entries[0][0] < 0 or entries[-1][0] > 0xFFFF):
        bad = entries[0][0] if entries[0][0] < 0 else entries[-1][0]
        raise ValueError(f"log point id {bad} does not fit a short")
    header = _HEADER.pack(
        host_id,
        stage_id,
        uid,
        ts_ms,
        min(int(duration * 1_000_000), _MAX_COUNT),
        n,
    )
    if not n:
        return header
    flat = []
    for lpid, count in entries:
        flat.append(lpid)
        flat.append(count if count <= _MAX_COUNT else _MAX_COUNT)
    return header + struct.pack("<" + "Hi" * n, *flat)


def outcome(encode, *fields):
    try:
        return ("bytes", encode(*fields))
    except ValueError as error:
        return ("error", str(error))


def boundary(edges, lo, hi):
    """Mostly the boundary values, sometimes anything in [lo, hi]."""
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi))


uids = boundary([-1, 0, 2**32 - 1, 2**32], -(2**33), 2**33)
lpids = boundary([-1, 0, 65_535, 65_536], -10, 70_000)
counts = boundary([1, 2**31 - 1, 2**31, 2**40], 1, 2**41)
start_times = st.one_of(
    st.sampled_from([-0.001, -0.0005, 0.0, 0.0009, 1.7e9, 1.8446744073709552e16]),
    st.floats(-10.0, 1e10, allow_nan=False),
)
durations = st.one_of(
    st.sampled_from([0.0, 2147.483647, 2147.483648, 2147.483649, 1e6]),
    st.floats(0.0, 1e7, allow_nan=False),
)
small_maps = st.dictionaries(lpids, counts, max_size=8)
# 255 entries is the most one synopsis carries; 256 is the first refused.
wide_maps = st.sampled_from([255, 256]).map(
    lambda n: {lpid: 1 + lpid % 3 for lpid in range(n)}
)


@settings(max_examples=400, deadline=None)
@given(
    host_id=st.integers(0, 255),
    stage_id=st.integers(0, 255),
    uid=uids,
    start_time=start_times,
    duration=durations,
    log_points=st.one_of(small_maps, wide_maps),
)
def test_field_encoder_matches_the_frozen_object_encoder(
    host_id, stage_id, uid, start_time, duration, log_points
):
    fields = (host_id, stage_id, uid, start_time, duration, log_points)
    expected = outcome(reference_encode, *fields)
    assert outcome(encode_fields, *fields) == expected
    synopsis = TaskSynopsis(host_id, stage_id, uid, start_time, duration, dict(log_points))
    assert outcome(synopsis.encode) == expected


@pytest.fixture
def empty_memo():
    """The flow memo emptied for the test and again after it."""
    _FLOW_BLOCKS.clear()
    yield _FLOW_BLOCKS
    _FLOW_BLOCKS.clear()


def any_outcome(encode, *fields):
    """``outcome``, an ``OverflowError`` (an infinite start) included."""
    try:
        return outcome(encode, *fields)
    except OverflowError as error:
        return ("overflow", str(error))


def encode_twice(*fields):
    """A miss, then a hit for any flow the miss packed."""
    _FLOW_BLOCKS.clear()
    miss = any_outcome(encode_fields, *fields)
    assert len(_FLOW_BLOCKS) == (miss[0] == "bytes")
    return miss, any_outcome(encode_fields, *fields)


# A uid the wire refuses outranks a start int() refuses, hit or miss.
@example(host_id=0, stage_id=0, uid=-1, start_time=math.nan, duration=0.0, log_points={1: 1})
@example(host_id=0, stage_id=0, uid=-1, start_time=math.inf, duration=0.0, log_points={1: 1})
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(
    host_id=st.integers(0, 255),
    stage_id=st.integers(0, 255),
    uid=uids,
    start_time=st.one_of(start_times, st.sampled_from([math.nan, math.inf, -math.inf])),
    duration=durations,
    log_points=st.one_of(
        st.dictionaries(
            st.one_of(lpids, st.booleans()), st.one_of(counts, st.booleans()), max_size=8
        ),
        # Several ids that all fit, in any order: flows the memo holds.
        st.dictionaries(st.integers(0, 0xFFFF), counts, min_size=2, max_size=8),
        wide_maps,
    ),
)
def test_memoized_encodes_match_the_frozen_object_encoder(
    host_id, stage_id, uid, start_time, duration, log_points
):
    fields = (host_id, stage_id, uid, start_time, duration, log_points)
    expected = any_outcome(reference_encode, *fields)
    assert encode_twice(*fields) == (expected, expected)
    # The flow under a header that fits, a miss and then a hit; after
    # it, every header field of the example goes through the hit path
    # (and its fallback).
    fitting = (0, 0, 0, 0.0, 0.0, log_points)
    assert encode_twice(*fitting) == (outcome(reference_encode, *fitting),) * 2
    assert any_outcome(encode_fields, *fields) == expected
    # The same ids with other counts are another flow.
    recounted = (0, 0, 0, 0.0, 0.0, dict.fromkeys(log_points, 7))
    assert outcome(encode_fields, *recounted) == outcome(reference_encode, *recounted)


def test_the_memo_stops_growing_at_its_cap(empty_memo):
    for lpid in range(MAX_MEMOIZED_FLOWS):
        encode_fields(1, 2, lpid, 1.0, 0.5, {lpid: 1})
    assert len(empty_memo) == MAX_MEMOIZED_FLOWS
    for lpid in range(MAX_MEMOIZED_FLOWS, MAX_MEMOIZED_FLOWS + 50):
        fields = (1, 2, lpid, 1.0, 0.5, {lpid: 3, 7: 2})
        assert encode_fields(*fields) == encode_fields(*fields) == reference_encode(*fields)
    assert len(empty_memo) == MAX_MEMOIZED_FLOWS
    fields = (3, 4, 5, 2.0, 0.25, {0: 1})  # memoized before the cap: still a hit
    assert encode_fields(*fields) == reference_encode(*fields)


def test_named_boundaries():
    base = (3, 4, 7, 1.5, 0.25, {1: 2})
    cases = [
        {},
        {"uid": -1},
        {"uid": 2**32 - 1},
        {"uid": 2**32},
        {"start_time": -0.002},
        {"log_points": {-1: 1}},
        {"log_points": {65_535: 1}},
        {"log_points": {65_536: 1}},
        {"log_points": {5: 2**31 - 1}},
        {"log_points": {5: 2**31}},
        {"duration": 2147.483648},
        {"duration": 1e9},
        {"log_points": {n: 1 for n in range(255)}},
        {"log_points": {n: 1 for n in range(256)}},
    ]
    names = ("host_id", "stage_id", "uid", "start_time", "duration", "log_points")
    for override in cases:
        fields = dict(zip(names, base), **override)
        args = [fields[name] for name in names]
        assert outcome(encode_fields, *args) == outcome(reference_encode, *args), override


def run_route(tasks, subscribed):
    """Drive ``tasks`` through a tracker feeding a fresh stream; return
    the frames it flushed.  With a subscriber attached the tracker
    builds objects (the object route); without, it hands the stream
    fields (the record route)."""
    frames = []
    stream = SynopsisStream(wire_format=True, retain=False, flush_size=5, frame_sink=frames.append)
    received = []
    if subscribed:
        stream.subscribe(received.append)
    now = [0.0]
    tracker = TaskExecutionTracker(host_id=2, sink=stream.sink, clock=lambda: now[0])
    for stage_id, start_time, visits, elapsed in tasks:
        now[0] = start_time
        tracker.set_context(stage_id)
        for lpid in visits:
            tracker.on_log(LogCall(lpid, 10, "stage", start_time + elapsed))
        assert (tracker.end_task() is None) is not subscribed
    stream.flush_wire()
    return frames, stream.count, tracker.stats.synopsis_bytes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 255),
            start_times,
            st.lists(lpids, max_size=12),
            st.floats(-1.0, 3000.0, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_record_and_object_routes_flush_identical_frames(tasks):
    assert run_route(tasks, subscribed=False) == run_route(tasks, subscribed=True)


def test_both_routes_refuse_a_stage_id_past_a_byte_alike():
    messages = []
    for subscribed in (False, True):
        stream = SynopsisStream(wire_format=True, retain=False)
        if subscribed:
            stream.subscribe(lambda synopsis: None)
        tracker = TaskExecutionTracker(sink=stream.sink, clock=lambda: 1.0)
        tracker.set_context(300)
        try:
            tracker.end_task()
        except ValueError as error:
            messages.append(str(error))
        assert stream.count == 0
    assert messages == ["stage_id must fit a byte, got 300"] * 2


def test_an_infinite_clock_reading_is_dropped_not_raised():
    frames = []
    stream = SynopsisStream(wire_format=True, retain=False, flush_size=1, frame_sink=frames.append)
    now = [float("inf")]
    tracker = TaskExecutionTracker(sink=stream.sink, clock=lambda: now[0])
    tracker.set_context(1)
    assert tracker.end_task() is None  # an infinite start
    now[0] = 1.0
    tracker.set_context(1)
    tracker.on_log(LogCall(4, 10, "stage", float("inf")))
    assert tracker.end_task() is None  # an infinite duration
    assert stream.registry.get("stream_synopses_dropped").labels(host="-").value == 2
    assert stream.count == 2 and frames == []
    tracker.set_context(1)
    tracker.on_log(LogCall(4, 10, "stage", 1.5))
    tracker.end_task()
    assert len(frames) == 1 and stream.count == 3
