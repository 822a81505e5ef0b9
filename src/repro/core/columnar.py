"""Columnar batch decoding + compiled per-stage classifiers (DESIGN §13).

The scalar detect path classifies one synopsis at a time: per task it
interns a signature, probes two model dicts, and compares one float.
This module lowers the trained model and the wire format into forms the
batch path (:meth:`repro.core.detector.AnomalyDetector.observe_batch`)
can process an entire frame run at a time:

* :func:`decode_columns` explodes encoded synopsis frames into parallel
  arrays — stage-id, sig-id, duration, timestamp, uid — without
  constructing a :class:`~repro.core.synopsis.TaskSynopsis` per task.
  Signatures become dense integer ids through a
  :class:`~repro.core.interning.SignatureIdSpace`.
* :func:`compile_model` lowers each trained
  :class:`~repro.core.model.StageModel` into a :class:`CompiledStage`:
  a flat ``sig-id -> verdict flags`` array plus a flat array of integer
  microsecond duration cuts, with a novel-signature fallback for ids
  the stage never trained on.  Classification is then array indexing
  plus one integer comparison — no dict walks, no float math.

The integer cuts are *exact*: for each profile's float
``duration_threshold`` the compiler finds the largest integer ``cut``
with ``cut / 1e6 <= threshold``, so ``duration_us > cut`` decides
exactly like the scalar path's ``duration_us / 1e6 > threshold``.
Equivalence is enforced bit-for-bit by ``tests/core/test_columnar.py``.

Compiled tables are immutable snapshots of one model **generation**
(:attr:`~repro.core.model.OutlierModel.generation`); retraining bumps
the generation and consumers recompile (the invalidation-on-retrain
contract, DESIGN §13).  The same tables back ``python -m repro rules``
(:mod:`repro.core.rules`), which renders them as readable per-stage
rule text.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as _np

from repro.telemetry import NULL_REGISTRY

from .features import StageKey
from .interning import SignatureIdSpace
from .model import _LABEL_NEW_SIGNATURE, OutlierModel, TaskLabel
from .synopsis import FRAME_HEADER, SYNOPSIS_HEADER

#: Verdict flag bits in :attr:`CompiledStage.flags` (0 == novel).
KNOWN = 1
FLOW_OUTLIER = 2
PERF_ELIGIBLE = 4

#: Sentinel cut for signatures without a finite duration threshold: no
#: encodable (int32) wire duration exceeds it, so the comparison path
#: needs no None checks.
NO_CUT = 1 << 62

#: Bits reserved for sig-ids inside packed (stage, sig-id) cell keys;
#: must cover :data:`repro.core.interning.MAX_SIGNATURE_IDS`.
SIG_BITS = 17

_HEADER_SIZE = SYNOPSIS_HEADER.size
_FRAME_HEADER_SIZE = FRAME_HEADER.size
_ENTRY_SIZE = 6

#: Byte offset and width of each ``SYNOPSIS_HEADER`` (``<BBIQiB``) field
#: inside a record; ``duration_us`` is the one signed field.
_HEADER_FIELDS = {
    "host_id": (0, 1),
    "stage_id": (1, 1),
    "uid": (2, 4),
    "ts_ms": (6, 8),
    "duration_us": (14, 4),
    "n_entries": (18, 1),
}


def exact_duration_cut(threshold: float) -> int:
    """Largest integer ``cut`` with ``cut / 1_000_000.0 <= threshold``.

    ``duration_us > exact_duration_cut(t)`` then decides exactly like
    the scalar path's ``duration_us / 1_000_000.0 > t`` for every wire
    duration — the float division is monotone in the integer numerator,
    so a single integer boundary separates the two verdicts.
    """
    # Wire durations are int32; thresholds beyond that range need no
    # search (also guards against absurd thresholds making the
    # correction loops below walk far).
    if threshold >= 2147.483647:  # (2**31 - 1) / 1e6
        return NO_CUT
    if threshold < -2147.483648:  # -(2**31) / 1e6
        return -NO_CUT
    cut = int(threshold * 1_000_000.0)
    while cut / 1_000_000.0 > threshold:
        cut -= 1
    while (cut + 1) / 1_000_000.0 <= threshold:
        cut += 1
    return cut


class CompiledStage:
    """One stage's classifier lowered to flat verdict tables.

    ``flags[sig_id]`` holds the verdict bits (:data:`KNOWN`,
    :data:`FLOW_OUTLIER`, :data:`PERF_ELIGIBLE`); ``cuts[sig_id]`` holds
    the exact integer microsecond duration cut (:data:`NO_CUT` when the
    profile has no usable threshold).  Ids at or past ``len(flags)`` —
    signatures first seen after compilation — fall back to the
    novel-signature verdict, exactly like the scalar path's dict miss.
    """

    __slots__ = ("stage_key", "flags", "cuts", "total_tasks", "flow_outlier_share")

    def __init__(
        self,
        stage_key: StageKey,
        flags: bytearray,
        cuts: List[int],
        total_tasks: int = 0,
        flow_outlier_share: float = 0.0,
    ):
        self.stage_key = stage_key
        self.flags = flags
        self.cuts = cuts
        self.total_tasks = total_tasks
        self.flow_outlier_share = flow_outlier_share

    def rule(self, sig_id: int) -> Tuple[int, int]:
        """``(flags, cut)`` for one sig-id; ``(0, NO_CUT)`` when novel."""
        if 0 <= sig_id < len(self.flags):
            flag = self.flags[sig_id]
            if flag & KNOWN:
                return flag, self.cuts[sig_id]
        return 0, NO_CUT

    def classify(self, sig_id: int, duration_us: int) -> TaskLabel:
        """Verdict for one (sig-id, integer µs duration) pair.

        Bit-identical to
        :meth:`repro.core.model.OutlierModel.classify_parts` on the
        decoded equivalents — the columnar equivalence suite holds the
        two paths to the same answers.
        """
        flag, cut = self.rule(sig_id)
        if not flag & KNOWN:
            return _LABEL_NEW_SIGNATURE
        return TaskLabel(
            flow_outlier=bool(flag & FLOW_OUTLIER),
            new_signature=False,
            perf_outlier=bool(flag & PERF_ELIGIBLE) and duration_us > cut,
            perf_eligible=bool(flag & PERF_ELIGIBLE),
        )


class CompiledModel:
    """Every stage of one trained model, lowered (see :func:`compile_model`).

    Holds the :class:`~repro.core.interning.SignatureIdSpace` that
    defines the sig-id vocabulary of its tables, the source model's
    ``generation`` for staleness checks, and the per-stage
    :class:`CompiledStage` tables keyed by the packed stage int
    (``host_id << 8 | stage_id``; plain ``stage_id`` when the model
    ignores hosts).
    """

    __slots__ = ("model", "generation", "space", "stages", "per_host")

    def __init__(
        self,
        model: OutlierModel,
        space: SignatureIdSpace,
        stages: Dict[int, CompiledStage],
    ):
        self.model = model
        self.generation = model.generation
        self.space = space
        self.stages = stages
        self.per_host = model.config.per_host

    @property
    def stale(self) -> bool:
        """True when the source model has been retrained since compile."""
        return self.generation != self.model.generation

    def stage(self, host_id: int, stage_id: int) -> Optional[CompiledStage]:
        """The compiled table for one stage key, or None when untrained."""
        key = (host_id << 8) | stage_id if self.per_host else stage_id
        return self.stages.get(key)

    def rule(self, cell: int) -> Tuple[int, int]:
        """``(flags, cut)`` for a packed ``stage_int << SIG_BITS | sig_id``
        cell key; ``(0, NO_CUT)`` for untrained stages (novel verdict)."""
        stage = self.stages.get(cell >> SIG_BITS)
        if stage is None:
            return 0, NO_CUT
        return stage.rule(cell & ((1 << SIG_BITS) - 1))

    def classify(self, host_id: int, stage_id: int, sig_id: int, duration_us: int) -> TaskLabel:
        """Verdict for one task from its columnar fields."""
        stage = self.stage(host_id, stage_id)
        if stage is None:
            return _LABEL_NEW_SIGNATURE
        return stage.classify(sig_id, duration_us)


def compile_model(
    model: OutlierModel,
    space: Optional[SignatureIdSpace] = None,
    registry=None,
) -> CompiledModel:
    """Lower a trained model into :class:`CompiledStage` verdict tables.

    Every signature the model knows is assigned a dense id in ``space``
    (fresh by default) *before* the tables are sized, so any id minted
    later by live traffic is novel by construction.  ``registry``
    receives the ``compile_*`` counters (defaults to the null registry —
    compilation is rare, but the telemetry shows when it happens).

    Raises ``RuntimeError`` for an untrained model, mirroring
    :meth:`~repro.core.model.OutlierModel.classify_parts`.
    """
    if not model.trained:
        raise RuntimeError("model must be trained before compilation")
    registry = registry if registry is not None else NULL_REGISTRY
    m_stages = registry.counter(
        "compile_stages", "stage classifier tables lowered by the model compiler"
    )
    m_signatures = registry.counter(
        "compile_signatures", "signature rules lowered into verdict tables"
    )
    space = space if space is not None else SignatureIdSpace()
    per_host = model.config.per_host
    # First pass assigns ids so every stage's table covers the full
    # compile-time vocabulary (stages share one id space).
    for stage_model in model.stages.values():
        for signature in stage_model.signatures:
            space.id_of(signature)
    size = len(space)
    stages: Dict[int, CompiledStage] = {}
    for stage_key, stage_model in model.stages.items():
        host_id, stage_id = stage_key
        flags = bytearray(size)
        cuts = [NO_CUT] * size
        for signature, profile in stage_model.signatures.items():
            sig_id = space.id_of(signature)
            if sig_id is None or sig_id >= size:  # id space exhausted
                continue
            flag = KNOWN
            if profile.is_flow_outlier:
                flag |= FLOW_OUTLIER
            if profile.perf_eligible:
                flag |= PERF_ELIGIBLE
                if profile.duration_threshold is not None:
                    cuts[sig_id] = exact_duration_cut(profile.duration_threshold)
            flags[sig_id] = flag
            m_signatures.inc()
        cell = (host_id << 8) | stage_id if per_host else stage_id
        stages[cell] = CompiledStage(
            stage_key=stage_key,
            flags=flags,
            cuts=cuts,
            total_tasks=stage_model.total_tasks,
            flow_outlier_share=stage_model.flow_outlier_share,
        )
        m_stages.inc()
    return CompiledModel(model, space, stages)


def scan_frames(
    data, offset: int = 0, strict: bool = False, one_frame: bool = False
) -> Tuple[List[int], int, Optional[str]]:
    """Walk concatenated wire frames; collect each synopsis's offset.

    Returns ``(offsets, end_offset, error)`` where ``error`` is the
    message the scalar path would raise for the same malformed input
    (None for a clean scan).  Offsets cover every *complete* synopsis
    scanned before the error point, so a caller can ingest exactly what
    the scalar path would have ingested before raising — the batch path
    relies on this for error-for-error equivalence.

    ``one_frame=True`` scans exactly one frame (an empty buffer is a
    truncated header); ``end_offset`` is where it ended, so the caller
    can tell trailing bytes.  ``strict=True`` is
    :func:`repro.core.synopsis.decode_frame`'s contract: one frame, and
    a negative wire duration is an error too — the one field check
    building a :class:`~repro.core.synopsis.TaskSynopsis` makes that
    classifying straight from the bytes does not.  The collector
    validates frames with it and never decodes them.
    """
    one_frame = one_frame or strict
    offsets: List[int] = []
    unpack_frame = FRAME_HEADER.unpack_from
    end = offset
    total = len(data)
    while one_frame or offset < total:
        if total - offset < _FRAME_HEADER_SIZE:
            return offsets, end, "truncated frame header"
        length, count = unpack_frame(data, offset)
        start = offset + _FRAME_HEADER_SIZE
        frame_end = start + length
        if total < frame_end:
            return offsets, end, "truncated frame payload"
        record = start
        seen = 0
        error = None
        while record < frame_end:
            if frame_end - record < _HEADER_SIZE:
                error = "truncated synopsis header"
                break
            record_end = record + _HEADER_SIZE + _ENTRY_SIZE * data[record + 18]
            if record_end > frame_end:
                error = "truncated synopsis log point entries"
                break
            offsets.append(record)
            seen += 1
            record = record_end
        if strict:
            # Checked after the walk so the detect path's loop pays
            # nothing for it; a record before the break point still
            # reports first, as the object decoder would.
            for record in offsets:
                if data[record + 17] > 0x7F:  # sign of the int32 duration
                    duration_us = SYNOPSIS_HEADER.unpack_from(data, record)[4]
                    return offsets, end, f"negative duration {duration_us / 1_000_000.0}"
        if error is None and seen != count:
            error = f"frame count mismatch: header says {count}, payload holds {seen}"
        if error is not None:
            return offsets, end, error
        offset = end = frame_end
        if one_frame:
            break
    return offsets, end, None


def header_column(b, offs, name: str):
    """One ``SYNOPSIS_HEADER`` field of the records at ``offs``, as int64.

    ``b`` is the buffer as a uint8 array, ``offs`` the record offsets
    (:func:`scan_frames`) as an int64 array, ``name`` one of ``host_id``,
    ``stage_id``, ``uid``, ``ts_ms``, ``duration_us``, ``n_entries``.
    """
    at, nbytes = _HEADER_FIELDS[name]
    value = b[offs + at].astype(_np.int64)
    for i in range(1, nbytes):
        value |= b[offs + at + i].astype(_np.int64) << (8 * i)
    if name == "duration_us":
        value = value.astype(_np.uint32).view(_np.int32).astype(_np.int64)
    return value


def resolve_sig_ids(b, offs, counts, space: SignatureIdSpace):
    """Sig-id column for the records at ``offs`` (numpy path).

    ``counts`` is the per-record log-point entry count column.  Records
    are grouped by entry count; within a group the fixed-width entry
    byte patterns are gathered into rows and deduplicated
    (``np.unique`` on a void view — exact byte equality, no hashing
    tricks), so the Python-level signature interning runs once per
    *distinct* pattern instead of once per task.  Returns None when the
    id space fills up mid-batch (callers fall back to the exact scalar
    path).
    """
    sig_ids = _np.empty(len(offs), dtype=_np.int64)
    for n in _np.unique(counts):
        member = _np.flatnonzero(counts == n)
        if n == 0:
            sig_id = space.resolve_entry(b"")
            if sig_id is None:
                return None
            sig_ids[member] = sig_id
            continue
        width = _ENTRY_SIZE * int(n)
        rows = b[offs[member, None] + _np.arange(width, dtype=_np.int64)]
        patterns, inverse = _np.unique(
            _np.ascontiguousarray(rows).view(_np.dtype((_np.void, width))).ravel(),
            return_inverse=True,
        )
        ids = _np.empty(len(patterns), dtype=_np.int64)
        for i, pattern in enumerate(patterns):
            sig_id = space.resolve_entry(pattern.tobytes())
            if sig_id is None:
                return None
            ids[i] = sig_id
        sig_ids[member] = ids[inverse]
    return sig_ids


class FrameColumns:
    """Decoded frames as parallel columns (the columnar exchange format).

    Attributes are numpy ``int64`` arrays, one element per synopsis in
    scan order: ``host_id``, ``stage_id``, ``sig_id`` (dense ids in
    ``space``), ``duration_us``, ``ts_ms``, and ``uid``.  No per-task
    objects are constructed; :meth:`signature` recovers the shared
    :class:`~repro.core.interning.InternedSignature` behind an id.
    """

    __slots__ = ("host_id", "stage_id", "sig_id", "duration_us", "ts_ms", "uid", "space")

    def __init__(self, host_id, stage_id, sig_id, duration_us, ts_ms, uid, space):
        self.host_id = host_id
        self.stage_id = stage_id
        self.sig_id = sig_id
        self.duration_us = duration_us
        self.ts_ms = ts_ms
        self.uid = uid
        self.space = space

    def __len__(self) -> int:
        """Number of decoded synopses."""
        return len(self.host_id)

    def signature(self, sig_id: int):
        """The interned signature object behind one dense id."""
        return self.space.signature_of(sig_id)


def decode_columns(
    data, offset: int = 0, space: Optional[SignatureIdSpace] = None
) -> FrameColumns:
    """Explode concatenated wire frames into a :class:`FrameColumns`.

    Raises ``ValueError`` with the scalar decoder's message on
    malformed input.  Mostly a debugging/analysis surface — the detector
    fuses this decode with counting and never materializes all columns.
    """
    space = space if space is not None else SignatureIdSpace()
    offsets, _, error = scan_frames(data, offset)
    if error is not None:
        raise ValueError(error)
    b = _np.frombuffer(bytes(data), dtype=_np.uint8)
    offs = _np.asarray(offsets, dtype=_np.int64)
    column = {name: header_column(b, offs, name) for name in _HEADER_FIELDS}
    sig_ids = resolve_sig_ids(b, offs + _HEADER_SIZE, column.pop("n_entries"), space)
    if sig_ids is None:
        raise ValueError("signature id space exhausted while decoding columns")
    return FrameColumns(sig_id=sig_ids, space=space, **column)


def window_boundaries(
    ts_lo: int, ts_hi: int, width: float, max_windows: int = 4096
) -> Optional[Tuple[int, List[int]]]:
    """Exact integer-ms window boundaries covering ``[ts_lo, ts_hi]``.

    The scalar path maps a task to its window with float math —
    ``int((ts_ms / 1000.0) // width)`` — and the batch path must agree
    bit-for-bit.  Rather than trusting vectorized float semantics, the
    mapping is reduced to integer comparisons: because it is monotone
    in ``ts_ms``, each window index has a first integer millisecond,
    found here by bisection *using the scalar expression itself*.
    Returns ``(first_index, boundaries)`` where ``boundaries[j]`` is
    the first ``ts_ms`` of window ``first_index + 1 + j``; a
    searchsorted against them reproduces the scalar mapping exactly.

    Returns None when the span covers more than ``max_windows`` windows
    (callers fall back to the scalar path instead of building a huge
    table).
    """

    def index_of(ts_ms: int) -> int:
        return int((ts_ms / 1000.0) // width)

    first = index_of(ts_lo)
    last = index_of(ts_hi)
    if last - first > max_windows:
        return None
    boundaries: List[int] = []
    lo = ts_lo
    for index in range(first + 1, last + 1):
        # First integer t in (lo, ts_hi] with index_of(t) >= index.
        hi = ts_hi
        while lo < hi:
            mid = (lo + hi) // 2
            if index_of(mid) >= index:
                hi = mid
            else:
                lo = mid + 1
        boundaries.append(lo)
    return first, boundaries


__all__ = [
    "CompiledModel",
    "CompiledStage",
    "FLOW_OUTLIER",
    "FrameColumns",
    "KNOWN",
    "NO_CUT",
    "PERF_ELIGIBLE",
    "SIG_BITS",
    "compile_model",
    "decode_columns",
    "exact_duration_cut",
    "header_column",
    "resolve_sig_ids",
    "scan_frames",
    "window_boundaries",
]
