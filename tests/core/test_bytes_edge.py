"""The bytes-only analyzer edge (DESIGN §13): the collector validates a
frame with the shared scanner instead of decoding it, retains the frame,
and builds ``TaskSynopsis`` objects only on demand.

Three contracts: *validation parity* (the collector raises iff
``decode_frame`` does, same message, before any subscriber saw the
frame), *lazy retention* (frames stay bytes until ``synopses`` /
``drain`` read them; ``feed``, ``receive_frame`` and ``flush`` return
only how many synopses they ingested), and *one delivery* for a
wire-format node connected to its own deployment's listener.
"""

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAAD,
    SAADConfig,
    SynopsisCollector,
    SynopsisStream,
    TaskSynopsis,
    decode_frame,
    encode_frame,
)
from repro.core.synopsis import FRAME_HEADER, SYNOPSIS_HEADER

from .test_codec_roundtrip import synopsis_strategy


def synopsis(uid=0, host=0, stage=1, lps=(1, 2)):
    return TaskSynopsis(
        host_id=host,
        stage_id=stage,
        uid=uid,
        start_time=10.0 + uid,
        duration=0.01,
        log_points={lp: 1 for lp in lps},
    )


def record_offsets(frame):
    """Start offset of each record of a well-formed frame."""
    offsets, at = [], FRAME_HEADER.size
    while at < len(frame):
        offsets.append(at)
        at += SYNOPSIS_HEADER.size + 6 * frame[at + 18]
    return offsets


def object_decode(frame):
    """What the collector did before: decode, then reject trailing bytes."""
    synopses, consumed = decode_frame(frame, 0)
    if consumed != len(frame):
        raise ValueError(f"trailing bytes after frame ({len(frame) - consumed})")
    return synopses


def assert_parity(frame):
    """The collector accepts or rejects ``frame`` exactly as the object
    decode does; a rejected frame reached no subscriber and left no state."""
    try:
        expected = object_decode(frame)
    except ValueError as err:
        expected = err
    collector = SynopsisCollector()
    seen = []
    collector.subscribe_frames(seen.append)
    collector.subscribe(seen.append)
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as raised:
            collector.receive_frame(frame)
        assert str(raised.value) == str(expected)
        assert seen == []
        assert collector.count == collector.frames_received == 0
        assert collector.synopses == []
    else:
        assert collector.receive_frame(frame) == len(expected)
        assert seen == [frame] + expected
        assert collector.synopses == expected


frames_strategy = st.lists(synopsis_strategy, min_size=1, max_size=5).map(encode_frame)


class TestValidationParity:
    @settings(max_examples=60, deadline=None)
    @given(frames_strategy)
    def test_truncation_at_every_byte(self, frame):
        for cut in range(len(frame) + 1):
            assert_parity(frame[:cut])

    @settings(max_examples=100, deadline=None)
    @given(frames_strategy, st.integers(0, 0xFFFF), st.integers(0, 1 << 16))
    def test_count_and_length_field_edits(self, frame, count, length):
        body = frame[FRAME_HEADER.size :]
        assert_parity(FRAME_HEADER.pack(len(body), count) + body)
        assert_parity(FRAME_HEADER.pack(length, len(record_offsets(frame))) + body)

    @settings(max_examples=100, deadline=None)
    @given(frames_strategy, st.binary(min_size=1, max_size=40))
    def test_appended_bytes(self, frame, tail):
        assert_parity(frame + tail)
        assert_parity(frame + frame)  # a second well-formed frame is trailing too

    @settings(max_examples=150, deadline=None)
    @given(frames_strategy, st.data())
    def test_n_lps_edits(self, frame, data):
        at = data.draw(st.sampled_from(record_offsets(frame)))
        edited = bytearray(frame)
        edited[at + 18] = data.draw(st.integers(0, 255))
        assert_parity(bytes(edited))

    @settings(max_examples=150, deadline=None)
    @given(frames_strategy, st.data())
    def test_duration_sign_flip(self, frame, data):
        offsets = record_offsets(frame)
        at = data.draw(st.sampled_from(offsets))
        edited = bytearray(frame)
        edited[at + 17] |= 0x80
        assert_parity(bytes(edited))
        # An earlier negative duration outranks a later structural error,
        # a later one does not: record order decides, as in the decoder.
        other = data.draw(st.sampled_from(offsets))
        edited[other + 18] = 255
        assert_parity(bytes(edited))

    def test_negative_duration_message_is_the_dataclass_message(self):
        frame = bytearray(encode_frame([synopsis(uid=1), synopsis(uid=2)]))
        struct.pack_into("<i", frame, record_offsets(frame)[1] + 14, -1)
        with pytest.raises(ValueError, match="negative duration -1e-06"):
            SynopsisCollector().receive_frame(bytes(frame))

    def test_empty_input_is_a_truncated_header(self):
        assert_parity(b"")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(frames_strategy, min_size=1, max_size=4), st.data())
    def test_feed_split_anywhere_retains_the_object_decode(self, frames, data):
        blob = b"".join(frames)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=6)))
        collector = SynopsisCollector()
        returned = 0
        for lo, hi in zip([0] + cuts, cuts + [len(blob)]):
            returned += collector.feed(blob[lo:hi])
        expected = [s for frame in frames for s in object_decode(frame)]
        assert collector.synopses == expected
        assert returned == len(expected)
        assert collector.frames_received == len(frames)
        assert collector.pending_bytes == 0


def _chunkings(frames):
    """The same frames cut into chunks five ways."""
    blob = b"".join(frames)
    a, b, c = frames
    return {
        "whole": [a, b, c],
        "several per chunk": [a + b, c],
        "frame plus a partial tail": [a + b[:7], b[7:] + c],
        "split mid-header": [a[:3], a[3:] + b[:4], b[4:] + c[:1], c[1:]],
        "byte at a time": [blob[i : i + 1] for i in range(len(blob))],
    }


class TestFeedChunking:
    frames = [
        encode_frame([synopsis(uid=i) for i in range(n)]) for n in (3, 1, 5)
    ]

    def feed_all(self, chunks):
        collector = SynopsisCollector()
        seen = []
        collector.subscribe_frames(seen.append)
        returned, fed, pending = 0, 0, []
        for chunk in chunks:
            returned += collector.feed(chunk)
            fed += len(chunk)
            pending.append(fed - sum(map(len, seen)))
            assert collector.pending_bytes == pending[-1]
        assert all(type(frame) is bytes for frame in seen)
        return seen, returned, collector.count, collector.frames_received, collector.pending_bytes

    @pytest.mark.parametrize("layout", list(_chunkings(frames)))
    def test_every_chunking_delivers_the_same_frames(self, layout):
        chunks = _chunkings(self.frames)[layout]
        assert self.feed_all(chunks) == (self.frames, 9, 9, 3, 0)

    @pytest.mark.parametrize("layout", list(_chunkings(frames)))
    def test_a_truncated_tail_still_raises_at_flush(self, layout):
        chunks = _chunkings(self.frames)[layout]
        collector = SynopsisCollector()
        for chunk in chunks[:-1]:
            collector.feed(chunk)
        collector.feed(chunks[-1][:-1])
        assert collector.pending_bytes > 0
        with pytest.raises(ValueError, match="truncated frame"):
            collector.flush()


    def test_a_rejected_frame_leaves_the_buffer(self):
        good = encode_frame([synopsis(uid=0), synopsis(uid=1)])
        length, count = FRAME_HEADER.unpack_from(good, 0)
        bad = FRAME_HEADER.pack(length, count + 1) + good[FRAME_HEADER.size :]
        collector = SynopsisCollector()
        with pytest.raises(ValueError, match="frame count mismatch"):
            collector.feed(bad)
        assert collector.pending_bytes == 0
        assert collector.feed(self.frames[0]) == 3
        assert collector.feed(self.frames[2]) == 5
        # A bad frame inside a chunk raises once; what follows it waits
        # in the buffer and the next feed ingests it.
        with pytest.raises(ValueError, match="frame count mismatch"):
            collector.feed(self.frames[1] + bad + self.frames[0])
        assert collector.pending_bytes == len(self.frames[0])
        assert collector.feed(self.frames[1]) == 4
        assert collector.count == 3 + 5 + 1 + 4
        assert collector.pending_bytes == 0
        assert collector.flush() == 0


class TestLazyRetention:
    def test_frames_are_retained_as_bytes_until_read(self):
        collector = SynopsisCollector()
        frame = encode_frame([synopsis(uid=i) for i in range(4)])
        assert collector.receive_frame(frame) == 4
        assert collector._retained == [frame]  # nothing decoded yet
        assert collector.count == 4
        first = collector.synopses
        assert [s.uid for s in first] == [0, 1, 2, 3]
        assert collector.synopses is first  # the live list, decoded once
        assert first[0] is collector.synopses[0]

    def test_mixed_object_and_frame_arrivals_keep_arrival_order(self):
        collector = SynopsisCollector()
        plain = SynopsisStream()
        collector.attach(plain)
        plain.sink(synopsis(uid=0))
        collector.receive_frame(encode_frame([synopsis(uid=1), synopsis(uid=2)]))
        plain.sink(synopsis(uid=3))
        assert [s.uid for s in collector.synopses] == [0, 1, 2, 3]
        collector.feed(encode_frame([synopsis(uid=4)]))
        plain.sink(synopsis(uid=5))
        assert [s.uid for s in collector.synopses] == [0, 1, 2, 3, 4, 5]
        assert collector.count == 6

    def test_drain_empties_both_forms(self):
        collector = SynopsisCollector()
        plain = SynopsisStream()
        collector.attach(plain)
        plain.sink(synopsis(uid=0))
        collector.receive_frame(encode_frame([synopsis(uid=1)]))
        assert [s.uid for s in collector.drain()] == [0, 1]
        assert collector.synopses == [] and collector._retained == []
        collector.receive_frame(encode_frame([synopsis(uid=2)]))
        assert [s.uid for s in collector.drain()] == [2]

    def test_retain_false_keeps_nothing(self):
        collector = SynopsisCollector(retain=False)
        assert collector.receive_frame(encode_frame([synopsis(uid=1)])) == 1
        assert collector.synopses == [] and collector.count == 1

    def test_object_subscribers_still_get_objects_after_frame_subscribers(self):
        collector = SynopsisCollector()
        order = []
        collector.subscribe(lambda s: order.append(s.uid))
        collector.subscribe_frames(lambda frame: order.append("frame"))
        collector.receive_frame(encode_frame([synopsis(uid=7), synopsis(uid=8)]))
        assert order == ["frame", 7, 8]

    def test_returned_counts_match_the_object_decode(self):
        frame = encode_frame([synopsis(uid=i) for i in range(3)])
        decoded = decode_frame(frame)[0]
        collector = SynopsisCollector()
        assert collector.receive_frame(frame) == len(decoded) == 3
        assert collector.feed(frame + frame[:5]) == 3  # one frame completed
        assert collector.feed(frame[5:]) == 3
        assert collector.feed(b"") == 0
        assert collector.synopses == decoded * 3

    def test_flush_returns_only_what_the_flush_delivered(self):
        collector = SynopsisCollector()
        stream = SynopsisStream(
            wire_format=True, retain=False, flush_size=3, frame_sink=collector.feed
        )
        collector.attach(stream)
        for i in range(5):  # one full frame delivered, two synopses pending
            stream.sink(synopsis(uid=i))
        assert collector.count == 3
        assert collector.flush() == 2
        assert all(isinstance(part, bytes) for part in collector._retained)
        assert [s.uid for s in collector.synopses] == [0, 1, 2, 3, 4]

    def test_train_without_argument_reads_the_retained_frames(self):
        saad = SAAD(SAADConfig(window_s=60.0, min_window_tasks=8))
        trace = [synopsis(uid=i, stage=1 + i % 2) for i in range(200)]
        for at in range(0, 200, 50):
            saad.collector.feed(encode_frame(trace[at : at + 50]))
        model = saad.train()
        assert model.trained
        assert sum(stage.total_tasks for stage in model.stages.values()) == 200


class TestOneDelivery:
    def test_frame_sink_assignment_drops_the_object_subscription(self):
        saad = SAAD(SAADConfig())
        node = saad.add_node("h0", wire_format=True, wire_flush_size=4)
        assert node.stream.subscribers  # add_node subscribed the collector
        node.stream.frame_sink = saad.collector.feed
        assert not node.stream.subscribers
        for i in range(8):
            node.stream.sink(synopsis(uid=i))
        assert saad.collector.count == 8
        assert [s.uid for s in saad.collector.synopses] == list(range(8))
        # Pointing the frames elsewhere and re-attaching restores it.
        node.stream.frame_sink = None
        saad.collector.attach(node.stream)
        saad.collector.attach(node.stream)  # idempotent
        assert len(node.stream.subscribers) == 1
        assert saad.collector.streams.count(node.stream) == 1

    def test_wire_node_connected_to_its_own_listener_is_delivered_once(self):
        saad = SAAD(SAADConfig(), listen=("127.0.0.1", 0))
        try:
            node = saad.add_node("h0", wire_format=True)
            node.connect(saad.address)
            for i in range(8):
                node.stream.sink(synopsis(uid=i))
            node.stream.flush_wire()
            node._client.wait_acked()
            deadline = time.monotonic() + 5.0
            while saad.collector.count < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # a second delivery would have landed by now
            assert saad.collector.count == 8
            assert [s.uid for s in saad.collector.synopses] == list(range(8))
            node.disconnect()  # the local object path comes back
            node.stream.sink(synopsis(uid=8))
            assert saad.collector.count == 9
        finally:
            saad.close()

    def test_node_connected_to_a_remote_analyzer_keeps_its_object_path(self):
        analyzer = SAAD(SAADConfig(), listen=("127.0.0.1", 0))
        producer = SAAD(SAADConfig(), listen=("127.0.0.1", 0))
        try:
            node = producer.add_node("edge", wire_format=True)
            node.connect(analyzer.address)
            for i in range(4):
                node.stream.sink(synopsis(uid=i))
            node.stream.flush_wire()
            node._client.wait_acked()
            assert producer.collector.count == 4  # live, on the object path
            deadline = time.monotonic() + 5.0
            while analyzer.collector.count < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert analyzer.collector.count == 4
        finally:
            producer.close()
            analyzer.close()
