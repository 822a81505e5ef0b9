"""Task synopses and their wire codec.

The synopsis is the paper's central data reduction: a few tens of bytes
summarizing an entire task execution.  Wire layout mirrors the struct in
Sec. 4.1 (with the timestamp widened to 64 bits so real wall-clock epochs
round-trip exactly instead of silently truncating)::

    struct synopsis{
      byte  sid;        // stage id
      int   uid;        // unique id per task
      long  ts;         // task start time (ms)
      int   duration;   // task duration (us)
      struct { short lpid; int count; } log_points[];
    }

We prepend a host id byte and a log-point count byte so a single stream
can multiplex a cluster.  For transport, synopses are grouped into
length-prefixed *frames* (:func:`encode_frame` / :func:`decode_frame`)
so a batch can be shipped and validated in one shot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .interning import intern_signature
from .interning import InternedSignature as _InternedSignature

_HEADER = struct.Struct("<BBIQiB")  # host, sid, uid, ts_ms, duration_us, n_lps
_ENTRY = struct.Struct("<Hi")  # lpid, count

MAX_LOG_POINT_ENTRIES = 255
MAX_UID = 0xFFFFFFFF
MAX_TS_MS = 0xFFFFFFFFFFFFFFFF
_MAX_COUNT = 2**31 - 1

# Entry arrays are packed/unpacked in one struct call per synopsis rather
# than one per entry, and a whole record (header + entries) is packed in
# one call too; the per-length Struct objects are cached here.  Both
# caches are keyed by an entry count that fits the header's count byte,
# so each holds at most 256 layouts.
_ENTRY_ARRAYS: Dict[int, struct.Struct] = {}
_RECORDS: Dict[int, struct.Struct] = {}


def _entry_array(n: int) -> struct.Struct:
    cached = _ENTRY_ARRAYS.get(n)
    if cached is None:
        cached = _ENTRY_ARRAYS.setdefault(n, struct.Struct("<" + "Hi" * n))
    return cached


def _record(n: int) -> struct.Struct:
    cached = _RECORDS.get(n)
    if cached is None:
        cached = _RECORDS.setdefault(n, struct.Struct(_HEADER.format + "Hi" * n))
    return cached


def wire_header(uid: int, start_time: float, duration: float) -> Tuple[int, int]:
    """The wire's ``(ts_ms, duration_us)`` for a synopsis header.

    The one quantization of the header fields, shared by
    :func:`encode_fields` and :meth:`~repro.core.detector.AnomalyDetector.observe`:
    the start is truncated to whole ms and the duration to whole µs,
    clamped at 2**31-1.  Raises ``ValueError`` for a uid past 32 bits or
    a start time outside the 64-bit millisecond field.  Host and stage
    ids are not checked here: :class:`TaskSynopsis` rejects one past a
    byte when it is built, and packing one raises ``struct.error``.
    """
    if uid < 0 or uid > MAX_UID:
        raise ValueError(f"uid {uid} does not fit the 32-bit wire field")
    ts_ms = int(start_time * 1000)
    if ts_ms < 0 or ts_ms > MAX_TS_MS:
        raise ValueError(f"start_time {start_time} does not fit the 64-bit wire field")
    duration_us = int(duration * 1_000_000)
    return ts_ms, duration_us if duration_us <= _MAX_COUNT else _MAX_COUNT


#: Memo of the flows :func:`encode_fields` has packed: a task's ids
#: then counts, in its dict's order, as one flat tuple (cheaper to
#: build and hash than the tuple of its items) -> the packed,
#: lpid-sorted entry block.  A few flows carry nearly all tasks (paper
#: Fig. 6), so most encodes pack only the header.  Like the intern
#: table, it stops growing at the cap instead of evicting (threads
#: racing past the size check may each add one more).
MAX_MEMOIZED_FLOWS = 1 << 10
_FLOW_BLOCKS: Dict[Tuple[int, ...], bytes] = {}


def encode_fields(
    host_id: int,
    stage_id: int,
    uid: int,
    start_time: float,
    duration: float,
    log_points: Dict[int, int],
) -> bytes:
    """The wire form of one synopsis, straight from its fields.

    The one synopsis encoder: :meth:`TaskSynopsis.encode` delegates here,
    and the tracker calls it without building a :class:`TaskSynopsis`
    when nothing downstream reads objects.  Raises ``ValueError`` for a
    field the wire format cannot carry (more than 255 log points, a
    header field :func:`wire_header` rejects, a log point id past a
    short); a visit count past 2**31-1 is clamped.  ``host_id`` and
    ``stage_id`` are not checked here: a value past a byte raises
    ``struct.error``.  A non-finite start or duration raises what
    ``int()`` raises on it.

    A flow already in the memo (:data:`MAX_MEMOIZED_FLOWS`) packs only
    the header and appends the memoized entry block; any field that
    header pack refuses goes through the checked path, so the bytes and
    the exceptions are the same either way.  Ids and counts are ints
    wherever this package builds them.  A bool packs as 0 or 1 on both
    paths; an id or count of another type that equals an int (``2.0``)
    encodes as that int once its flow is memoized, and raises
    ``struct.error`` until then.
    """
    key = (*log_points, *log_points.values())
    block = _FLOW_BLOCKS.get(key)
    if block is not None:
        try:
            return _HEADER.pack(
                host_id,
                stage_id,
                uid,
                int(start_time * 1000),
                int(duration * 1_000_000),
                len(log_points),
            ) + block
        except (struct.error, ValueError, OverflowError):
            pass
    n = len(log_points)
    if n > MAX_LOG_POINT_ENTRIES:
        raise ValueError(f"too many distinct log points ({n}) for one synopsis")
    ts_ms, duration_us = wire_header(uid, start_time, duration)
    lpids = sorted(log_points)
    if n and (lpids[0] < 0 or lpids[-1] > 0xFFFF):
        bad = lpids[0] if lpids[0] < 0 else lpids[-1]
        raise ValueError(f"log point id {bad} does not fit a short")
    flat = [host_id, stage_id, uid, ts_ms, duration_us, n]
    for lpid in lpids:
        count = log_points[lpid]
        flat.append(lpid)
        flat.append(count if count <= _MAX_COUNT else _MAX_COUNT)
    record = _record(n).pack(*flat)
    if block is None and len(_FLOW_BLOCKS) < MAX_MEMOIZED_FLOWS:
        _FLOW_BLOCKS[key] = record[_HEADER.size :]
    return record


#: Public aliases of the packed layouts for zero-copy consumers: the
#: record walkers in :mod:`repro.core.columnar` read fields straight out
#: of frame bytes, and the detector's wire ingest path classifies
#: without materializing :class:`TaskSynopsis` objects.
SYNOPSIS_HEADER = _HEADER
SYNOPSIS_ENTRY = _ENTRY


def _field_table(names: Tuple[str, ...]) -> Dict[str, Tuple[int, int]]:
    table, at = {}, 0
    for name, code in zip(names, _HEADER.format.lstrip("<")):
        width = struct.calcsize("<" + code)
        table[name] = (at, width)
        at += width
    return table


#: Byte offset and width of each ``SYNOPSIS_HEADER`` field inside a
#: record, derived from the struct's format: the one table the
#: decode-free readers (scanner, router, fleet retention) index by.
#: ``duration_us`` is the one signed field.
HEADER_FIELDS = _field_table(
    ("host_id", "stage_id", "uid", "ts_ms", "duration_us", "n_entries")
)


def entry_struct(n: int) -> struct.Struct:
    """The cached packed layout of ``n`` consecutive log-point entries."""
    return _entry_array(n)


@dataclass(slots=True)
class TaskSynopsis:
    """Summary of one task execution, produced at task termination.

    Attributes
    ----------
    host_id:
        Small integer identifying the originating node.
    stage_id:
        The stage this task is an instance of.
    uid:
        Per-host unique task id.
    start_time:
        Task start, in seconds (the tracker's clock).
    duration:
        Seconds from task start to the last log point encountered.
    log_points:
        Mapping of log point id -> visit count.
    """

    host_id: int
    stage_id: int
    uid: int
    start_time: float
    duration: float
    log_points: Dict[int, int] = field(default_factory=dict)
    _signature: Optional[_InternedSignature] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative duration {self.duration}")
        if self.host_id < 0 or self.host_id > 255:
            raise ValueError(f"host_id must fit a byte, got {self.host_id}")
        if self.stage_id < 0 or self.stage_id > 255:
            raise ValueError(f"stage_id must fit a byte, got {self.stage_id}")

    @property
    def signature(self) -> _InternedSignature:
        """The task signature: the *set* of distinct log points visited.

        Interned and cached — every synopsis with the same log-point set
        returns the same shared frozenset object.
        """
        signature = self._signature
        if signature is None:
            signature = intern_signature(self.log_points)
            self._signature = signature
        return signature

    @property
    def total_log_calls(self) -> int:
        """Total log-point visits recorded in this task."""
        return sum(self.log_points.values())

    # -- codec ---------------------------------------------------------------
    def encode(self) -> bytes:
        """Binary wire form (little-endian, paper Sec. 4.1 layout)."""
        return encode_fields(
            self.host_id,
            self.stage_id,
            self.uid,
            self.start_time,
            self.duration,
            self.log_points,
        )

    @classmethod
    def decode(cls, payload: bytes) -> "TaskSynopsis":
        """Inverse of :meth:`encode`."""
        synopsis, consumed = cls.decode_from(payload, 0)
        if consumed != len(payload):
            raise ValueError(
                f"trailing bytes after synopsis ({len(payload) - consumed})"
            )
        return synopsis

    @classmethod
    def decode_from(cls, payload: bytes, offset: int) -> Tuple["TaskSynopsis", int]:
        """Decode one synopsis starting at ``offset``; returns (synopsis, end)."""
        if len(payload) - offset < _HEADER.size:
            raise ValueError("truncated synopsis header")
        host_id, stage_id, uid, ts_ms, duration_us, n_entries = _HEADER.unpack_from(
            payload, offset
        )
        offset += _HEADER.size
        needed = n_entries * _ENTRY.size
        if len(payload) - offset < needed:
            raise ValueError("truncated synopsis log point entries")
        if n_entries:
            flat = _entry_array(n_entries).unpack_from(payload, offset)
            offset += needed
            log_points = dict(zip(islice(flat, 0, None, 2), islice(flat, 1, None, 2)))
        else:
            log_points = {}
        return (
            cls(
                host_id=host_id,
                stage_id=stage_id,
                uid=uid,
                start_time=ts_ms / 1000.0,
                duration=duration_us / 1_000_000.0,
                log_points=log_points,
            ),
            offset,
        )

    def encoded_size(self) -> int:
        """Wire size in bytes (the Fig. 8 "synopses" volume metric)."""
        return _HEADER.size + _ENTRY.size * len(self.log_points)


def encode_batch(synopses: Iterable[TaskSynopsis]) -> bytes:
    """Concatenate the wire forms of many synopses."""
    return b"".join(s.encode() for s in synopses)


def decode_batch(payload: bytes) -> List[TaskSynopsis]:
    """Decode a concatenated batch produced by :func:`encode_batch`."""
    out: List[TaskSynopsis] = []
    offset = 0
    while offset < len(payload):
        synopsis, offset = TaskSynopsis.decode_from(payload, offset)
        out.append(synopsis)
    return out


# -- framed transport ---------------------------------------------------------
#: Frame layout: payload byte length (u32) + synopsis count (u16) + payload.
FRAME_HEADER = struct.Struct("<IH")
MAX_FRAME_SYNOPSES = 0xFFFF


def encode_frame(synopses: List[TaskSynopsis]) -> bytes:
    """One length-prefixed frame holding a whole batch of synopses."""
    if len(synopses) > MAX_FRAME_SYNOPSES:
        raise ValueError(f"too many synopses for one frame ({len(synopses)})")
    payload = encode_batch(synopses)
    return FRAME_HEADER.pack(len(payload), len(synopses)) + payload


def decode_frame(payload: bytes, offset: int = 0) -> Tuple[List[TaskSynopsis], int]:
    """Decode one frame starting at ``offset``; returns (synopses, end)."""
    if len(payload) - offset < FRAME_HEADER.size:
        raise ValueError("truncated frame header")
    length, count = FRAME_HEADER.unpack_from(payload, offset)
    offset += FRAME_HEADER.size
    if len(payload) - offset < length:
        raise ValueError("truncated frame payload")
    synopses = decode_batch(payload[offset : offset + length])
    if len(synopses) != count:
        raise ValueError(
            f"frame count mismatch: header says {count}, payload holds {len(synopses)}"
        )
    return synopses, offset + length


def pack_frames(records: Sequence[bytes]) -> List[bytes]:
    """Frame encoded records, at most :data:`MAX_FRAME_SYNOPSES` a frame.

    The one frame packer for records already in wire form: a node
    stream's flush, the pool's and the fleet's per-analyzer buckets and
    the fleet's replay all ship what it returns.  No records, no frames.
    """
    frames = []
    for start in range(0, len(records), MAX_FRAME_SYNOPSES):
        chunk = records[start : start + MAX_FRAME_SYNOPSES]
        payload = b"".join(chunk)
        frames.append(FRAME_HEADER.pack(len(payload), len(chunk)) + payload)
    return frames


def frame_bounds(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """``(start, end)`` of the payload of the frame at ``offset``.

    Checks only that the header and the payload it announces are all
    there, raising :func:`decode_frame`'s ``ValueError`` messages when
    they are not; the records are left to whoever walks them.
    """
    if len(data) - offset < FRAME_HEADER.size:
        raise ValueError("truncated frame header")
    length, _ = FRAME_HEADER.unpack_from(data, offset)
    start = offset + FRAME_HEADER.size
    if len(data) - start < length:
        raise ValueError("truncated frame payload")
    return start, start + length


def decode_frames(payload: bytes) -> List[TaskSynopsis]:
    """Decode a back-to-back sequence of frames."""
    out: List[TaskSynopsis] = []
    offset = 0
    while offset < len(payload):
        synopses, offset = decode_frame(payload, offset)
        out.extend(synopses)
    return out
