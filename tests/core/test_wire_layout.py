"""The wire layout is written down once, in ``repro.core.synopsis``.

Three contracts: the record offset table reads back every field of a
record packed with ``SYNOPSIS_HEADER``; the one frame packer splits at
``MAX_FRAME_SYNOPSES`` into frames the strict scanner and the
independent ``decode_frame`` both accept; and the one frame-bounds
check, with both clusters' ``dispatch_frame``, rejects a truncated
frame with exactly ``decode_frame``'s message.
"""

import numpy as np
import pytest

from repro.core import OutlierModel, SAADConfig, TaskSynopsis
from repro.core.columnar import header_column, route_payload, scan_frames
from repro.core.synopsis import (
    HEADER_FIELDS,
    MAX_FRAME_SYNOPSES,
    SYNOPSIS_ENTRY,
    SYNOPSIS_HEADER,
    decode_frame,
    encode_frame,
    frame_bounds,
    pack_frames,
)
from repro.fleet.router import FleetRouter
from repro.shard import ShardedAnalyzer

SENTINELS = {
    "host_id": 0xA1,
    "stage_id": 0xB2,
    "uid": 0xC3C4C5C6,
    "ts_ms": 0x0102030405060708,
    "duration_us": -123_456,
    "n_entries": 2,
}
ENTRIES = (0x1111, 7, 0x2222, 9)  # (lpid, count) x n_entries


def sentinel_record():
    """One record, packed field by field in the table's (format) order."""
    header = SYNOPSIS_HEADER.pack(*(SENTINELS[name] for name in HEADER_FIELDS))
    return header + SYNOPSIS_ENTRY.pack(*ENTRIES[:2]) + SYNOPSIS_ENTRY.pack(*ENTRIES[2:])


def records(n):
    """``n`` distinct well-formed encoded records."""
    return [
        SYNOPSIS_HEADER.pack(0, i & 0xFF, i, 1000 + i, 10, 1)
        + SYNOPSIS_ENTRY.pack(i & 0xFFFF, 1)
        for i in range(n)
    ]


class TestOffsetTable:
    def test_table_reads_back_every_sentinel(self):
        record = sentinel_record()
        for name, (at, width) in HEADER_FIELDS.items():
            value = int.from_bytes(
                record[at : at + width], "little", signed=name == "duration_us"
            )
            assert value == SENTINELS[name], name
        b = np.frombuffer(record, dtype=np.uint8)
        offs = np.zeros(1, dtype=np.int64)
        for name in HEADER_FIELDS:
            assert int(header_column(b, offs, name)[0]) == SENTINELS[name], name

    def test_table_tiles_the_header_and_entries_have_the_entry_width(self):
        spans = sorted(HEADER_FIELDS.values())
        assert spans[0][0] == 0
        for (at, width), (next_at, _) in zip(spans, spans[1:]):
            assert at + width == next_at
        assert sum(spans[-1]) == SYNOPSIS_HEADER.size
        record = sentinel_record()
        assert len(record) == SYNOPSIS_HEADER.size + 2 * SYNOPSIS_ENTRY.size
        buckets = [[] for _ in range(256)]
        route_payload(record, 0, len(record), list(range(256)), buckets)
        assert buckets[SENTINELS["stage_id"]] == [record]


class TestPacker:
    @pytest.mark.parametrize(
        "n, frames",
        [(0, 0), (1, 1), (MAX_FRAME_SYNOPSES, 1), (MAX_FRAME_SYNOPSES + 1, 2)],
    )
    def test_frame_split_and_round_trip(self, n, frames):
        parts = records(n)
        packed = pack_frames(parts)
        assert len(packed) == frames
        payloads = []
        for frame in packed:
            offsets, end, error = scan_frames(frame, 0, strict=True)
            assert error is None and end == len(frame)
            synopses, consumed = decode_frame(frame)
            assert consumed == len(frame) and len(synopses) == len(offsets)
            start, stop = frame_bounds(frame)
            assert stop == len(frame)
            payloads.append(frame[start:stop])
        assert b"".join(payloads) == b"".join(parts)

    def test_matches_the_reference_encoder(self):
        synopses = [
            TaskSynopsis(1, 2, uid, 5.0 + uid, 0.25, {3: 1, 4: 2}) for uid in range(5)
        ]
        assert pack_frames([s.encode() for s in synopses]) == [encode_frame(synopses)]


class _StubClient:
    peer_watermark = 0.0

    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)

    def close(self):
        pass


class TestFrameBounds:
    def test_every_prefix_raises_the_decoder_message(self):
        frame = encode_frame(
            [TaskSynopsis(0, 3, uid, 10.0, 0.01, {1: 1, 2: 1}) for uid in range(3)]
        )
        config = SAADConfig(window_s=60.0, min_window_tasks=8)
        model = OutlierModel(config).train(
            [TaskSynopsis(0, 3, uid, uid * 0.1, 0.01, {1: 1, 2: 1}) for uid in range(50)]
        )
        client = _StubClient()
        router = FleetRouter(lambda node_id: client, window_s=config.window_s)
        router.sync({"node-0": None})
        with ShardedAnalyzer(model, 1) as pool:
            for cut in range(len(frame)):
                prefix = frame[:cut]
                with pytest.raises(ValueError) as expected:
                    decode_frame(prefix)
                for check in (frame_bounds, pool.dispatch_frame, router.dispatch_frame):
                    with pytest.raises(ValueError) as raised:
                        check(prefix)
                    assert str(raised.value) == str(expected.value), (cut, check)
            pool.dispatch_frame(frame)
            pool.close()
            assert sum(stats["tasks"] for stats in pool.worker_stats.values()) == 3
        router.dispatch_frame(frame)
        assert client.sent == [frame]
