"""Online anomaly detection over the synopsis stream (paper Sec. 3.3.3).

The detector buckets classified tasks into fixed time windows per stage
key.  Every ingest route classifies what the wire carries (the start in
whole ms, the duration in whole µs) against one classifier, the compiled
rule table of :func:`repro.core.columnar.compile_model`.  When a window
closes (event time passes its end) it runs:

* **Flow anomaly test** — reject H0 "proportion of flow outliers <= the
  training proportion" at ``alpha``; *or* any never-seen signature.
* **Performance anomaly test** — per (stage, signature) group, reject H0
  "proportion of performance outliers <= the training proportion".

Emitted :class:`AnomalyEvent` objects carry everything the reporting
layer needs to render a human-readable root-cause hint.

Hot-path notes: an open window is keyed by one int, ``index << 16 |
stage_int``; open windows are indexed by a min-heap of window indices,
and the ripeness test (a peek at the earliest deadline) runs only when
the integer watermark rises or a bucket opens, since nothing else can
ripen a window (closing is O(ripe · log open) amortized); per-(stage,
signature) performance baselines are memoized per model generation, and
a model swap or a retrain starts the memo afresh.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.telemetry import MetricsRegistry

from . import columnar
from .columnar import FLOW_OUTLIER, KNOWN, PERF_ELIGIBLE
from .config import SAADConfig
from .features import Signature, StageKey
from .interning import (
    SignatureIdSpace,
    canonical_tuple,
    intern_signature,
    signature_of_entries,
)
from .model import OutlierModel
from .stats import ProportionTest, proportion_exceeds_test
from .synopsis import SYNOPSIS_ENTRY, SYNOPSIS_HEADER, TaskSynopsis, wire_header

FLOW = "flow"
PERFORMANCE = "performance"

#: Bound on the record route's rule cache (stage, raw entry bytes -> the
#: signature and its compiled verdict) and the vector kernel's cell table
#: together.  Real streams repeat a handful of shapes per stage; the cap
#: only matters for adversarial inputs.
_WIRE_RULE_CACHE_MAX = 1 << 16

#: Records per vectorized slice of the batch detect path.  Bounds the
#: working set of the gathered columns (~1 MiB of int64 per column).
_BATCH_CHUNK = 1 << 16

#: Bits of a packed stage|sig-id cell: 8 host + 8 stage + sig-id.
_CELL_BITS = columnar.SIG_BITS + 16

#: Scanned batches with fewer records than this take the per-record
#: loop; at or above it, the vector kernel.  Both are exact; the choice
#: is by cost alone.  The kernel's fixed cost per batch is about what the
#: loop spends on 100 records, and the measured table in DESIGN §13 puts
#: the crossover between 128 and 256.
_VECTOR_MIN_RECORDS = 256

#: Window-close triggers tolerated per chunk before the remainder of the
#: chunk degrades to the per-record path.  Each trigger rescans the
#: chunk's tail, so an adversarial close-every-task stream would
#: otherwise make the scan quadratic; real streams close a handful of
#: windows per chunk.
_BATCH_MAX_TRIGGERS = 64

#: Timestamps at/above 2**53 ms lose integer precision as float64; the
#: batch path hands such records to the exact per-record path.
_BATCH_TS_LIMIT = 1 << 53

#: Window indices must leave room for the packed (index, cell) count
#: keys to fit a signed 64-bit lane.
_BATCH_INDEX_LIMIT = 1 << 28

#: Bits below the window index in a bucket key (``index << 16 |
#: stage_int``, stage_int = host << 8 | stage) and below the duration in
#: a packed exemplar candidate (``duration_us << 40 | host << 32 | uid``).
_STAGE_BITS = 16
_TRACE_BITS = 40
_TRACE_MASK = (1 << _TRACE_BITS) - 1


def _wire_bytes(frames) -> bytes:
    """Wire input as ``bytes``: ``bytes`` as is, ``bytearray`` or
    ``memoryview`` copied (so the rule cache's keys are hashable and
    never pin the caller's buffer), an iterable of chunks joined."""
    if isinstance(frames, bytes):
        return frames
    if isinstance(frames, (bytearray, memoryview)):
        return bytes(frames)
    return b"".join(bytes(chunk) for chunk in frames)


@dataclass(frozen=True)
class AnomalyEvent:
    """One detected anomaly for one stage in one window.

    ``exemplars`` carries up to K pinned :class:`~repro.tracing.
    TaskTrace` objects — concrete evidence for the verdict (new-signature
    tasks first, then the window's slowest) — when the deployment runs
    with tracing enabled; empty otherwise.  Excluded from equality so
    events compare on the verdict itself.
    """

    kind: str  # FLOW or PERFORMANCE
    host_id: int
    stage_id: int
    window_start: float
    window_end: float
    outliers: int
    n: int
    baseline: float
    p_value: float
    new_signatures: Tuple[Signature, ...] = ()
    offending_signatures: Tuple[Signature, ...] = ()
    exemplars: Tuple = field(default=(), compare=False)

    @property
    def stage_key(self) -> StageKey:
        """(host_id, stage_id) key of the stage this event belongs to."""
        return (self.host_id, self.stage_id)


@dataclass(slots=True)
class _WindowBucket:
    """Accumulator for one (stage key, window index).

    What the cyclic GC tracks: the bucket itself, and its
    ``new_signatures`` set and exemplar lists once they exist (they are
    created on first use: a novel signature, a traced task).  The two
    perf-count dicts map a signature's canonical tuple of ints to an
    int; the collector untracks such tuples, and a dict holding only
    untracked keys and ints is never tracked, so a steady-state window
    costs the collector one object.
    """

    n: int = 0
    flow_outliers: int = 0
    # canonical signature -> perf-eligible tasks, in first-seen order ...
    perf_tasks: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    # ... and -> those past the duration cut (an entry once one is).
    perf_outliers: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    new_signatures: Optional[Set[Signature]] = None
    # Exemplar candidates, tracked only when tracing is on: trace keys
    # ``host << 32 | uid`` of new-signature tasks (first K, arrival
    # order) ...
    new_sig_keys: Optional[List[int]] = None
    # ... and a min-heap of ``duration_us << 40 | trace key`` for the K
    # slowest, which orders as ``(duration_us, (host, uid))`` does.
    slowest: Optional[List[int]] = None


class AnomalyDetector:
    """Streaming detector; feed :meth:`observe`, call :meth:`flush` at end.

    Windows are closed by *event time*: when a task with
    ``start_time >= window_end + lateness`` arrives for any stage, all
    windows ending earlier are finalized.  ``flush()`` closes the rest.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.OutlierModel`.  Assigning
        another model to :attr:`model`, or retraining this one, takes
        effect at the next task: verdict tables and baselines are
        memoized per model generation.
    config:
        Analyzer configuration; defaults to the model's own.
    lateness_s:
        Allowed event-time lateness before a window is considered ripe.
    registry:
        Telemetry registry for the ``detector_*`` metrics; defaults to
        a private :class:`~repro.telemetry.MetricsRegistry`, or pass a
        :class:`~repro.telemetry.NullRegistry` to disable (the
        benchmark's unmetered leg).
    tracer:
        The deployment's :class:`~repro.tracing.Tracer`; when enabled,
        each anomalous window pins up to ``exemplars_per_window``
        buffered traces and attaches them to the emitted events.
        Defaults to the inert :data:`~repro.tracing.NULL_TRACER`.
    exemplars_per_window:
        Cap on exemplar traces per flagged window (new-signature tasks
        first, then slowest).
    on_event:
        Optional callback invoked with each emitted
        :class:`AnomalyEvent` (after exemplar attachment), on the
        thread that closed the window.  The facade uses it to correlate
        anomalies with health incidents
        (:meth:`~repro.health.HealthEngine.note_anomaly`); a raising
        callback propagates to the caller.

    Telemetry: the per-task path and window opening touch plain private
    state read by callbacks (``detector_tasks_observed``, ``_bucket_probes``,
    ``_windows_opened``, the ``detector_windows_open`` gauge); the window
    close path uses real locked metrics — ``detector_windows_closed{stage}``,
    the ``detector_close_lag_seconds`` histogram,
    ``detector_anomalies{kind}``, ``detector_new_signatures``.
    """

    def __init__(
        self,
        model: OutlierModel,
        config: Optional[SAADConfig] = None,
        lateness_s: float = 0.0,
        registry=None,
        tracer=None,
        exemplars_per_window: int = 3,
        on_event: Optional[Callable[["AnomalyEvent"], None]] = None,
    ):
        self.model = model
        self.config = config or model.config
        self.lateness_s = lateness_s
        if tracer is None:
            from repro.tracing import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self._tracing = bool(tracer.enabled)
        if exemplars_per_window < 0:
            raise ValueError(f"exemplars_per_window must be >= 0: {exemplars_per_window}")
        self.exemplars_per_window = exemplars_per_window
        self._on_event = on_event
        # Open windows by bucket key ``index << 16 | stage_int``.
        self._buckets: Dict[int, _WindowBucket] = {}
        # Ripeness index: min-heap of open window indices plus, per index,
        # the bucket keys opened in arrival order (for deterministic close
        # order matching the insertion-ordered scan it replaces).
        self._index_heap: List[int] = []
        self._index_keys: Dict[int, List[int]] = {}
        # Highest task start in whole ms; -1 before the first task.
        self._watermark_ms = -1
        # The record loop's cached window: (width, lo, hi, index), every
        # whole ms in [lo, hi) maps to ``index``.
        self._window_span: Tuple[float, int, int, int] = (0.0, 0, 0, 0)
        self.anomalies: List[AnomalyEvent] = []
        self._tasks_seen = 0
        self._bucket_probe_count = 0
        self._windows_opened = 0
        self._windows_closed = 0
        # (stage_key, canonical signature) -> baseline proportion for the
        # perf test, for the model and generation in ``_perf_baselines_of``.
        self._perf_baselines: Dict[Tuple[StageKey, Tuple[int, ...]], float] = {}
        self._perf_baselines_of: Optional[Tuple[OutlierModel, int]] = None
        # Read off ``_compiled`` and reset with it: the rule cache's stage
        # int -> (stage key, {signature or raw entry bytes -> (signature,
        # flags, cut)}) and the kernel's stage|sig-id cell -> (signature,
        # flags, cut).
        self._wire_rules: Dict[int, Tuple[StageKey, Dict[object, tuple]]] = {}
        self._cells: Dict[int, tuple] = {}
        self._wire_rule_count = 0
        # Columnar batch path: compiled verdict tables plus the dense
        # signature-id space they are indexed by.  The space outlives
        # recompiles (it is append-only), so ids stay stable across model
        # generations while stale tables are rebuilt lazily.
        self._compiled: Optional[columnar.CompiledModel] = None
        self._sig_space: Optional[SignatureIdSpace] = None
        self._columnar_tasks = 0
        self._columnar_fallback_tasks = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.counter(
            "detector_tasks_observed", "synopses/features classified"
        ).set_function(lambda: self._tasks_seen)
        registry.counter(
            "detector_bucket_probes", "ripeness-index probes (heap peeks/pops)"
        ).set_function(lambda: self._bucket_probe_count)
        registry.counter(
            "columnar_tasks", "synopses ingested through the batch detect path"
        ).set_function(lambda: self._columnar_tasks)
        registry.counter(
            "columnar_fallback_tasks",
            "batch-path synopses that degraded to the exact per-task path",
        ).set_function(lambda: self._columnar_fallback_tasks)
        self._m_columnar_batches = registry.counter(
            "columnar_batches", "observe_batch calls ingested"
        )
        registry.counter(
            "detector_windows_opened", "window buckets opened"
        ).set_function(lambda: self._windows_opened)
        registry.gauge(
            "detector_windows_open", "window buckets currently open"
        ).set_function(lambda: len(self._buckets))
        self._m_windows_closed = registry.counter(
            "detector_windows_closed",
            "windows finalized (ripe closes + flush)",
            labels=("stage",),
        )
        # Per-stage children resolved once, then cached: _close_window
        # runs per window, but labels() takes the family lock.
        self._m_closed_by_stage: Dict[int, object] = {}
        self._m_close_lag = registry.histogram(
            "detector_close_lag_seconds",
            "event-time lag between a closed window's end and the watermark",
        )
        self._m_anomalies = registry.counter(
            "detector_anomalies", "anomaly events emitted", labels=("kind",)
        )
        self._m_anomalies_flow = self._m_anomalies.labels(kind=FLOW)
        self._m_anomalies_perf = self._m_anomalies.labels(kind=PERFORMANCE)
        self._m_new_signatures = registry.counter(
            "detector_new_signatures",
            "distinct never-trained signatures observed in closed windows",
        )

    # -- accounting (telemetry-backed, read-only) ----------------------------
    @property
    def tasks_seen(self) -> int:
        """Synopses/features classified so far."""
        return self._tasks_seen

    @property
    def bucket_probe_count(self) -> int:
        """Buckets examined for ripeness so far — the old implementation
        visited every open bucket on every observe; the heap visits one
        per peek.  Exposed for tests/benchmarks."""
        return self._bucket_probe_count

    @property
    def windows_closed(self) -> int:
        """Windows finalized so far (ripe closes + flush)."""
        return self._windows_closed

    @property
    def watermark(self) -> float:
        """The event-time watermark: highest task start time observed.

        ``-inf`` before the first task.  A window ``[s, e)`` is closed
        once ``watermark - lateness_s >= e``, so a peer that knows this
        value knows exactly which of its replayed-elsewhere windows are
        already finalized here (the fleet reroute protocol's retention
        horizon, DESIGN.md §16).
        """
        if self._watermark_ms < 0:
            return float("-inf")
        return self._watermark_ms / 1000.0

    # -- ingestion -----------------------------------------------------------
    def observe(self, synopsis: TaskSynopsis) -> List[AnomalyEvent]:
        """Ingest one synopsis; returns anomalies from any closed windows.

        Classifies what the wire carries (:func:`~repro.core.synopsis.wire_header`:
        the start in whole ms, the duration in whole µs) against the
        compiled rule table, so a synopsis counts exactly as it would
        through :meth:`observe_frame` once encoded.  Raises ``ValueError``
        for a header field the wire cannot carry.
        """
        ts_ms, duration_us = wire_header(
            synopsis.uid, synopsis.start_time, synopsis.duration
        )
        compiled, model = self._compiled, self.model
        if (
            compiled is None
            or compiled.model is not model
            or compiled.generation != model.generation
        ):
            compiled = self.compiled_model()
        host_id, stage_id = synopsis.host_id, synopsis.stage_id
        stage_int = (host_id << 8) | stage_id if compiled.per_host else stage_id
        stage = self._wire_rules.get(stage_int) or self._stage_rules(
            compiled, host_id, stage_id, stage_int
        )
        stage_key, rules = stage
        signature = synopsis.signature
        rule = rules.get(signature)
        if rule is None:
            rule = rules[signature] = self._wire_rule(
                compiled, host_id, stage_id, signature
            )
        _, flags, cut = rule
        return self._observe(
            stage_key,
            signature,
            flags,
            duration_us > cut,
            duration_us,
            ts_ms,
            host_id << 32 | synopsis.uid if self._tracing else None,
        )

    def _observe(
        self,
        stage_key: StageKey,
        signature: Signature,
        flags: int,
        past_cut: bool,
        duration_us: int,
        ts_ms: int,
        trace_key: Optional[int] = None,
    ) -> List[AnomalyEvent]:
        """Count one classified task into its window bucket and close
        what it ripened.  ``flags`` are its rule's verdict bits (0 for a
        novel signature) and ``past_cut`` whether its duration is past
        the rule's cut; ``trace_key`` is its ``host_id << 32 | uid`` when
        tracing is on, else None.  The one-task accounting step of the
        object route; :meth:`_observe_records` inlines the same steps."""
        self._tasks_seen += 1
        width = self.config.window_s
        index = int((ts_ms / 1000.0) // width)
        key = index << _STAGE_BITS | stage_key[0] << 8 | stage_key[1]
        bucket = self._buckets.get(key)
        check = bucket is None
        if check:
            bucket = self._open_bucket(key, index)
        bucket.n += 1
        if flags & PERF_ELIGIBLE:
            canonical = signature.canonical
            perf = bucket.perf_tasks
            perf[canonical] = perf.get(canonical, 0) + 1
            if past_cut:
                perf = bucket.perf_outliers
                perf[canonical] = perf.get(canonical, 0) + 1
        if not flags:
            bucket.flow_outliers += 1
            if bucket.new_signatures is None:
                bucket.new_signatures = {signature}
            else:
                bucket.new_signatures.add(signature)
        elif flags & FLOW_OUTLIER:
            bucket.flow_outliers += 1
        if trace_key is not None and self.exemplars_per_window:
            # Exemplar candidates.  Candidate turnover is O(K log n) over
            # a window, so the steady-state cost is two comparisons.
            k = self.exemplars_per_window
            if not flags:
                if bucket.new_sig_keys is None:
                    bucket.new_sig_keys = [trace_key]
                elif len(bucket.new_sig_keys) < k:
                    bucket.new_sig_keys.append(trace_key)
            slowest = bucket.slowest
            if slowest is None:
                bucket.slowest = [duration_us << _TRACE_BITS | trace_key]
            elif len(slowest) < k:
                heapq.heappush(slowest, duration_us << _TRACE_BITS | trace_key)
            elif duration_us > slowest[0] >> _TRACE_BITS:
                heapq.heapreplace(slowest, duration_us << _TRACE_BITS | trace_key)
        if ts_ms > self._watermark_ms:
            self._watermark_ms = ts_ms
            check = True
        # Only a new bucket or a higher watermark can ripen a window.
        # _close_ripe_windows' own peek, inlined: the bucket above is
        # open, so the heap is not empty.
        if check:
            if (self._index_heap[0] + 1) * width <= (
                self._watermark_ms / 1000.0 - self.lateness_s
            ):
                return self._close_ripe_windows()
            self._bucket_probe_count += 1
        return []

    def _open_bucket(self, key: int, index: int) -> _WindowBucket:
        """Open the bucket ``key`` of window ``index``; call only on a miss."""
        bucket = self._buckets[key] = _WindowBucket()
        keys = self._index_keys.get(index)
        if keys is None:
            self._index_keys[index] = [key]
            heapq.heappush(self._index_heap, index)
        else:
            keys.append(key)
        self._windows_opened += 1
        return bucket

    def observe_frame(self, frame, offset: int = 0) -> List[AnomalyEvent]:
        """Ingest one length-prefixed wire frame straight from its bytes.

        ``frame`` is ``bytes``, ``bytearray`` or ``memoryview``; bytes
        past the frame's end are ignored.  Each synopsis is classified
        from the packed layout without materializing a
        :class:`TaskSynopsis` — semantically identical to decoding the
        frame and calling :meth:`observe` per synopsis.

        Returns anomalies from any windows the frame's tasks closed.
        Raises ``ValueError`` on a truncated or inconsistent frame with
        :func:`repro.core.synopsis.decode_frame`'s message, after
        ingesting the complete records before the fault.
        """
        data = _wire_bytes(frame)
        offsets, _, error = columnar.scan_frames(data, offset, one_frame=True)
        events = self._observe_records(data, offsets)
        if error is not None:
            raise ValueError(error)
        return events

    # -- columnar batch ingestion (DESIGN §13) -------------------------------
    def compiled_model(self) -> columnar.CompiledModel:
        """The compiled verdict tables for the current model generation.

        Compiled lazily and cached; a retrain (generation bump) or a
        model swap invalidates the cache and the next batch recompiles —
        the invalidation-on-retrain contract of DESIGN §13.  The dense
        signature-id space is shared across recompiles, so ids already
        handed out stay valid.
        """
        compiled = self._compiled
        model = self.model
        if (
            compiled is None
            or compiled.model is not model
            or compiled.generation != model.generation
        ):
            if self._sig_space is None:
                self._sig_space = SignatureIdSpace()
            compiled = columnar.compile_model(
                model, space=self._sig_space, registry=self.registry
            )
            self._compiled = compiled
            self._reset_rules()
        return compiled

    def _reset_rules(self) -> None:
        """Drop the record route's rule cache and the kernel's cell table."""
        self._wire_rules.clear()
        self._cells.clear()
        self._wire_rule_count = 0

    def observe_batch(self, frames, offset: int = 0) -> List[AnomalyEvent]:
        """Ingest a run of concatenated wire frames through the columnar path.

        ``frames`` is a bytes-like object holding one or more
        length-prefixed frames back to back (or an iterable of such
        chunks, which is joined).  The batch path explodes the frames
        into columns, classifies them against the compiled per-stage
        tables (:meth:`compiled_model`), and applies window-bucket
        counts a column run at a time — **bit-identical** to calling
        :meth:`observe_frame` per frame, including event order, exemplar
        pins, and the error/partial-state behaviour on truncated input
        (the complete prefix is ingested, then ``ValueError`` raises
        with the scalar path's message).

        A batch too small to repay the vector kernel's fixed cost (the
        deployed default: one 64-synopsis frame per call) runs the same
        records through the exact per-record loop instead; the choice is
        made from the scanned record count alone and is not a fallback.
        The loop is also the fallback (``columnar_fallback_tasks``) when
        tracing is on — exemplar candidates need per-task trace keys —
        and for a chunk that trips an exactness guard (timestamp or
        window-index range, signature-id exhaustion, close storms).

        Returns the anomalies from every window the batch closed, in
        close order.
        """
        data = _wire_bytes(frames)
        self._m_columnar_batches.inc()
        before = self._tasks_seen
        offsets, _, error = columnar.scan_frames(data, offset)
        try:
            if self._tracing:
                events = self._degrade_records(data, offsets)
            elif len(offsets) < _VECTOR_MIN_RECORDS:
                events = self._observe_records(data, offsets)
            else:
                events = []
                np = columnar._np
                compiled = self.compiled_model()
                b = np.frombuffer(data, dtype=np.uint8)
                offs_all = np.asarray(offsets, dtype=np.int64)
                for lo in range(0, len(offs_all), _BATCH_CHUNK):
                    self._ingest_chunk(
                        np, b, data, offs_all[lo : lo + _BATCH_CHUNK], compiled, events
                    )
        finally:
            self._columnar_tasks += self._tasks_seen - before
        if error is not None:
            # Every complete record before the fault is ingested above,
            # which is the state decoding and observing one by one leaves.
            raise ValueError(error)
        return events

    def _ingest_chunk(self, np, b, data, offs, compiled, events) -> None:
        """Decode, classify, and apply one chunk of records.

        Any exactness guard tripping hands the (rest of the) chunk to
        :meth:`_degrade_records`; otherwise counts are grouped by
        (window, stage, signature, verdict) and applied in
        first-occurrence order, which reproduces the scalar path's
        bucket / perf-dict creation order exactly.
        """
        m = len(offs)
        ts_ms = columnar.header_column(b, offs, "ts_ms")
        ts_lo, ts_hi = int(ts_ms.min()), int(ts_ms.max())
        width = self.config.window_s
        bounds = None
        if 0 <= ts_lo and ts_hi < _BATCH_TS_LIMIT:
            bounds = columnar.window_boundaries(ts_lo, ts_hi, width)
            if bounds is not None:
                first, _ = bounds
                if not 0 <= first < _BATCH_INDEX_LIMIT - 4096:
                    bounds = None
        sig = None
        if bounds is not None:
            sig = columnar.resolve_sig_ids(
                b,
                offs + SYNOPSIS_HEADER.size,
                columnar.header_column(b, offs, "n_entries"),
                compiled.space,
            )
        if sig is None:
            events.extend(self._degrade_records(data, offs.tolist()))
            return
        first, boundaries = bounds
        idx = first + np.searchsorted(
            np.asarray(boundaries, dtype=np.int64), ts_ms, side="right"
        )
        stage_int = columnar.header_column(b, offs, "stage_id")
        if self.model.config.per_host:
            stage_int |= columnar.header_column(b, offs, "host_id") << 8
        # Count keys: (window index, stage|sig-id cell).
        keys = (idx << _CELL_BITS) | (stage_int << columnar.SIG_BITS) | sig
        duration = columnar.header_column(b, offs, "duration_us")
        lateness = self.lateness_s
        pos = 0
        triggers = 0
        while pos < m:
            # Running heap-min / watermark the scalar path would hold
            # after each record (no closes happen inside a segment, so
            # both are pure accumulates seeded with the current state).
            seg_min = np.minimum.accumulate(idx[pos:])
            if self._index_heap:
                seg_min = np.minimum(seg_min, self._index_heap[0])
            seg_wm = np.maximum.accumulate(ts_ms[pos:])
            seg_wm = np.maximum(seg_wm, self._watermark_ms)
            # Same IEEE ops as _close_ripe_windows' ripeness test, so the
            # first hit is exactly where the scalar path would close.
            hits = np.flatnonzero((seg_min + 1) * width <= seg_wm / 1000.0 - lateness)
            t = int(hits[0]) if hits.size else m - pos - 1
            stop = pos + t + 1
            self._apply_counts(np, keys[pos:stop], duration[pos:stop], compiled)
            self._watermark_ms = int(seg_wm[t])
            pos += t + 1
            if hits.size:
                emitted = self._close_ripe_windows()
                if emitted:
                    events.extend(emitted)
                triggers += 1
                if triggers >= _BATCH_MAX_TRIGGERS and pos < m:
                    events.extend(self._degrade_records(data, offs[pos:].tolist()))
                    return

    def _apply_counts(self, np, keys, duration, compiled) -> None:
        """Apply one segment's counts, grouped by (window, cell), to the
        window buckets.  Groups are applied in order of first occurrence,
        so buckets and per-signature perf entries are created in exactly
        the order the scalar per-task loop would create them (close order
        and worst-offender tie-breaks depend on it).
        """
        unique_keys, firsts, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        cells = self._cells
        rules = [
            cells.get(cell) or self._cell_rule(compiled, cell)
            for cell in (unique_keys & ((1 << _CELL_BITS) - 1)).tolist()
        ]
        cuts = np.array([rule[2] for rule in rules], dtype=np.int64)
        slow = np.bincount(inverse[duration > cuts[inverse]], minlength=len(rules))
        order = np.argsort(firsts)
        buckets = self._buckets
        for j, key, count, outliers in zip(
            order.tolist(),
            # (index, cell) >> SIG_BITS is the bucket key index << 16 | stage_int.
            (unique_keys[order] >> columnar.SIG_BITS).tolist(),
            counts[order].tolist(),
            slow[order].tolist(),
        ):
            signature, flags, _ = rules[j]
            bucket = buckets.get(key)
            if bucket is None:
                bucket = self._open_bucket(key, key >> _STAGE_BITS)
            bucket.n += count
            if not flags & KNOWN:
                bucket.flow_outliers += count
                if bucket.new_signatures is None:
                    bucket.new_signatures = {signature}
                else:
                    bucket.new_signatures.add(signature)
            else:
                if flags & FLOW_OUTLIER:
                    bucket.flow_outliers += count
                if flags & PERF_ELIGIBLE:
                    canonical = signature.canonical
                    perf = bucket.perf_tasks
                    perf[canonical] = perf.get(canonical, 0) + count
                    if outliers:
                        perf = bucket.perf_outliers
                        perf[canonical] = perf.get(canonical, 0) + outliers
        self._tasks_seen += len(keys)

    def _cell_rule(self, compiled, cell: int) -> tuple:
        """``(signature, flags, cut)`` for a cell-table miss."""
        self._count_rule()
        signature = compiled.space.signature_of(cell & ((1 << columnar.SIG_BITS) - 1))
        rule = signature, *compiled.rule(cell)
        self._cells[cell] = rule
        return rule

    def _count_rule(self) -> None:
        """Count one cached rule; both caches restart at the cap."""
        if self._wire_rule_count >= _WIRE_RULE_CACHE_MAX:
            self._reset_rules()
        self._wire_rule_count += 1

    def _degrade_records(self, data: bytes, records: List[int]) -> List[AnomalyEvent]:
        """:meth:`_observe_records` as a fallback (tracing on, or a chunk
        guard tripped): counted in ``columnar_fallback_tasks``."""
        before = self._tasks_seen
        try:
            return self._observe_records(data, records)
        finally:
            self._columnar_fallback_tasks += self._tasks_seen - before

    def _observe_records(self, data: bytes, records: List[int]) -> List[AnomalyEvent]:
        """The per-record route over scanned record offsets.

        Unpacks each record, classifies it against the compiled verdict
        tables the vector kernel reads (through the rule cache, keyed by
        stage and entry bytes) and counts it inline: :meth:`_observe`'s
        steps, with detector state in locals, the window index read off
        a cached exact ms range (:func:`~repro.core.columnar.window_range`)
        and the ripeness test run only when the watermark rises or a
        bucket opens.  Serves :meth:`observe_frame`, small or traced
        batches, and guard-tripped chunks of the vector kernel.
        """
        if not records:
            return []
        compiled = self.compiled_model()
        events: List[AnomalyEvent] = []
        unpack_header = SYNOPSIS_HEADER.unpack_from
        header_size = SYNOPSIS_HEADER.size
        entry_size = SYNOPSIS_ENTRY.size
        cache = self._wire_rules
        per_host = compiled.per_host
        k = self.exemplars_per_window if self._tracing else 0
        buckets = self._buckets
        heap = self._index_heap
        width = self.config.window_s
        lateness = self.lateness_s
        span_width, lo, hi, current = self._window_span
        if span_width != width:
            lo = hi = 0
        wm = self._watermark_ms
        horizon = wm / 1000.0 - lateness
        seen = probes = 0
        try:
            for record in records:
                host_id, stage_id, uid, ts_ms, duration_us, n = unpack_header(data, record)
                stage_int = (host_id << 8) | stage_id if per_host else stage_id
                stage = cache.get(stage_int) or self._stage_rules(
                    compiled, host_id, stage_id, stage_int
                )
                rules = stage[1]
                start = record + header_size
                entry_bytes = data[start : start + entry_size * n]
                rule = rules.get(entry_bytes)
                if rule is None:
                    rule = rules[entry_bytes] = self._wire_rule(
                        compiled, host_id, stage_id, signature_of_entries(entry_bytes)
                    )
                signature, flags, cut = rule
                seen += 1
                if lo <= ts_ms < hi:
                    index = current
                elif ts_ms >= hi:
                    current, lo, hi = columnar.window_range(ts_ms, width)
                    index = current
                else:  # late data: the scalar expression
                    index = int((ts_ms / 1000.0) // width)
                key = index << _STAGE_BITS | stage_int
                bucket = buckets.get(key)
                check = bucket is None
                if check:
                    bucket = self._open_bucket(key, index)
                bucket.n += 1
                if flags & PERF_ELIGIBLE:
                    canonical = signature.canonical
                    perf = bucket.perf_tasks
                    perf[canonical] = perf.get(canonical, 0) + 1
                    if duration_us > cut:
                        perf = bucket.perf_outliers
                        perf[canonical] = perf.get(canonical, 0) + 1
                if not flags:
                    bucket.flow_outliers += 1
                    if bucket.new_signatures is None:
                        bucket.new_signatures = {signature}
                    else:
                        bucket.new_signatures.add(signature)
                elif flags & FLOW_OUTLIER:
                    bucket.flow_outliers += 1
                if k:
                    trace_key = host_id << 32 | uid
                    if not flags:
                        if bucket.new_sig_keys is None:
                            bucket.new_sig_keys = [trace_key]
                        elif len(bucket.new_sig_keys) < k:
                            bucket.new_sig_keys.append(trace_key)
                    slowest = bucket.slowest
                    if slowest is None:
                        bucket.slowest = [duration_us << _TRACE_BITS | trace_key]
                    elif len(slowest) < k:
                        heapq.heappush(slowest, duration_us << _TRACE_BITS | trace_key)
                    elif duration_us > slowest[0] >> _TRACE_BITS:
                        heapq.heapreplace(slowest, duration_us << _TRACE_BITS | trace_key)
                if ts_ms > wm:
                    wm = ts_ms
                    horizon = wm / 1000.0 - lateness
                    check = True
                if check:
                    if (heap[0] + 1) * width <= horizon:
                        self._watermark_ms = wm
                        self._tasks_seen += seen
                        seen = 0
                        emitted = self._close_ripe_windows()
                        if emitted:
                            events.extend(emitted)
                    else:
                        probes += 1
        finally:
            self._watermark_ms = wm
            self._tasks_seen += seen
            self._bucket_probe_count += probes
            self._window_span = (width, lo, hi, current)
        return events

    def _stage_rules(self, compiled, host_id, stage_id, stage_int) -> tuple:
        """Open the rule cache's ``(stage key, rules)`` entry for a stage;
        ``rules`` maps a signature (object route) or raw entry bytes
        (record route) to ``(signature, flags, cut)``."""
        stage_key = (host_id, stage_id) if compiled.per_host else (0, stage_id)
        self._wire_rules[stage_int] = stage = (stage_key, {})
        return stage

    def _wire_rule(self, compiled, host_id, stage_id, signature) -> tuple:
        """``(signature, flags, cut)`` for a rule-cache miss, read off
        :meth:`~repro.core.columnar.CompiledModel.signature_rule`."""
        self._count_rule()  # at the cap, the caller's stage entry goes too
        return (signature, *compiled.signature_rule(host_id, stage_id, signature))

    def flush(self) -> List[AnomalyEvent]:
        """Close every open window (end of stream)."""
        emitted: List[AnomalyEvent] = []
        for index in sorted(self._index_keys):
            for key in self._index_keys[index]:
                emitted.extend(self._close_window(key))
        self._buckets.clear()
        self._index_keys.clear()
        self._index_heap.clear()
        return emitted

    # -- fleet reroute support (DESIGN.md §16) ----------------------------------
    def disown(self, stage_ids) -> int:
        """Drop every open window of the given stages without emitting.

        The fleet reroute path: when a consistent-hash ring change moves
        a stage to another analyzer, the *old* owner must forget its
        partially filled windows for that stage — the router replays the
        same synopses to the new owner, which rebuilds those windows
        whole.  Closing (and emitting from) the partial buckets here
        would double-count against the new owner's full rebuild.

        Returns the number of window buckets dropped.
        """
        stages = set(stage_ids)
        if not stages:
            return 0
        dropped = 0
        for key in [key for key in self._buckets if key & 0xFF in stages]:
            del self._buckets[key]
            index = key >> _STAGE_BITS
            keys = self._index_keys[index]
            keys.remove(key)
            if not keys:
                del self._index_keys[index]
            dropped += 1
        if dropped:
            # Rebuild the ripeness heap in place: indices whose last
            # bucket was disowned must not linger (an index miss would
            # KeyError in _close_ripe_windows' pop).
            self._index_heap[:] = self._index_keys
            heapq.heapify(self._index_heap)
        return dropped

    def absorb_frame(self, frame, offset: int = 0) -> List[AnomalyEvent]:
        """Ingest one *replayed* wire frame, deferring window closes.

        The new-owner half of a fleet reroute: replayed synopses are
        old data, so this detector's watermark may already be past
        their windows' close horizon.  Observing them through the
        normal path would close each rebuilt window after its *first*
        task — emitting from a one-task partial bucket.  This path
        suspends ripe closes while the whole frame is applied, then
        runs one close sweep, so every replayed window is finalized
        only once it holds everything the frame carried for it.
        """
        saved = self.lateness_s
        self.lateness_s = float("inf")
        try:
            self.observe_frame(frame, offset)
        finally:
            self.lateness_s = saved
        return self._close_ripe_windows()

    # -- window lifecycle -------------------------------------------------------
    def _close_ripe_windows(self) -> List[AnomalyEvent]:
        heap = self._index_heap
        if not heap:
            return []
        width = self.config.window_s
        horizon = self._watermark_ms / 1000.0 - self.lateness_s
        self._bucket_probe_count += 1
        if (heap[0] + 1) * width > horizon:
            return []  # earliest open window is not ripe — nothing to scan
        emitted: List[AnomalyEvent] = []
        while heap and (heap[0] + 1) * width <= horizon:
            index = heapq.heappop(heap)
            self._bucket_probe_count += 1
            for key in self._index_keys.pop(index):
                emitted.extend(self._close_window(key))
                del self._buckets[key]
        return emitted

    def _close_window(self, key: int) -> List[AnomalyEvent]:
        self._windows_closed += 1
        bucket = self._buckets[key]
        index = key >> _STAGE_BITS
        host_id, stage_id = key >> 8 & 0xFF, key & 0xFF
        stage_key = (host_id, stage_id)
        width = self.config.window_s
        window_start, window_end = index * width, (index + 1) * width
        events: List[AnomalyEvent] = []
        stage_model = self.model.stage_model(stage_key)
        closed_child = self._m_closed_by_stage.get(stage_id)
        if closed_child is None:
            closed_child = self._m_windows_closed.labels(stage=str(stage_id))
            self._m_closed_by_stage[stage_id] = closed_child
        closed_child.inc()
        self._m_close_lag.observe(max(0.0, self.watermark - window_end))
        if bucket.new_signatures:
            self._m_new_signatures.inc(len(bucket.new_signatures))
        flow_baseline = stage_model.flow_outlier_share if stage_model else 0.0

        # A *new* signature is a flow anomaly regardless of volume (paper
        # Sec. 3.3.3: "we observe a new signature that we have not seen
        # during training"); the proportion tests need min_window_tasks.
        flow_p_value = 0.0 if bucket.new_signatures else None
        if bucket.n >= self.config.min_window_tasks:
            flow_test = proportion_exceeds_test(
                bucket.flow_outliers, bucket.n, flow_baseline, self.config.alpha
            )
            if flow_test.reject:
                flow_p_value = flow_test.p_value
        if flow_p_value is not None:
            events.append(
                AnomalyEvent(
                    kind=FLOW,
                    host_id=host_id,
                    stage_id=stage_id,
                    window_start=window_start,
                    window_end=window_end,
                    outliers=bucket.flow_outliers,
                    n=bucket.n,
                    baseline=flow_baseline,
                    p_value=flow_p_value,
                    new_signatures=tuple(
                        sorted(bucket.new_signatures or (), key=canonical_tuple)
                    ),
                )
            )
            self._m_anomalies_flow.inc()

        # A group's eligible count never exceeds bucket.n, so a window too
        # small for the flow test skips every group here too.
        offending: List[Tuple[int, ...]] = []
        worst: Optional[ProportionTest] = None
        perf_outliers = bucket.perf_outliers
        for canonical, eligible in bucket.perf_tasks.items():
            if eligible < self.config.min_window_tasks:
                continue
            baseline = self._perf_baseline(stage_key, stage_model, canonical)
            test = proportion_exceeds_test(
                perf_outliers.get(canonical, 0), eligible, baseline, self.config.alpha
            )
            if test.reject:
                offending.append(canonical)
                if worst is None or test.p_value < worst.p_value:
                    worst = test
        if offending and worst is not None:
            total_eligible = sum(bucket.perf_tasks.values())
            total_outliers = sum(perf_outliers.values())
            events.append(
                AnomalyEvent(
                    kind=PERFORMANCE,
                    host_id=host_id,
                    stage_id=stage_id,
                    window_start=window_start,
                    window_end=window_end,
                    outliers=total_outliers,
                    n=total_eligible,
                    baseline=worst.baseline,
                    p_value=worst.p_value,
                    offending_signatures=tuple(map(intern_signature, sorted(offending))),
                )
            )
            self._m_anomalies_perf.inc()
        return self._emit(events, bucket)

    def _emit(
        self, events: List[AnomalyEvent], bucket: _WindowBucket
    ) -> List[AnomalyEvent]:
        """Attach exemplar traces (tracing on) and record the events."""
        if events and self._tracing and self.exemplars_per_window:
            exemplars = self._pin_exemplars(bucket)
            if exemplars:
                events = [replace(event, exemplars=exemplars) for event in events]
        self.anomalies.extend(events)
        if events and self._on_event is not None:
            for event in events:
                self._on_event(event)
        return events

    def _pin_exemplars(self, bucket: _WindowBucket) -> Tuple:
        """Pin up to K of the window's candidate traces as exemplars.

        New-signature tasks come first (they *are* the flow anomaly),
        then the slowest tasks, slowest first; candidates whose trace
        was sampled out or already evicted are skipped.
        """
        exemplars = []
        seen: Set[int] = set()
        slowest = sorted(bucket.slowest or (), reverse=True)
        for packed in (*(bucket.new_sig_keys or ()), *slowest):
            trace_key = packed & _TRACE_MASK
            if trace_key in seen:
                continue
            seen.add(trace_key)
            trace = self.tracer.pin((trace_key >> 32, trace_key & 0xFFFFFFFF))
            if trace is not None:
                exemplars.append(trace)
                if len(exemplars) >= self.exemplars_per_window:
                    break
        return tuple(exemplars)

    def _perf_baseline(
        self, stage_key: StageKey, stage_model, canonical: Tuple[int, ...]
    ) -> float:
        """Memoized ``max(1 - q, trained outlier share)`` for the group of
        the signature whose canonical tuple is ``canonical``."""
        of = (self.model, self.model.generation)
        if self._perf_baselines_of != of:
            self._perf_baselines.clear()
            self._perf_baselines_of = of
        memo_key = (stage_key, canonical)
        baseline = self._perf_baselines.get(memo_key)
        if baseline is None:
            baseline = 1.0 - self.config.duration_percentile
            if stage_model is not None:
                profile = stage_model.signatures.get(intern_signature(canonical))
                if profile is not None:
                    baseline = max(baseline, profile.perf_outlier_share)
            self._perf_baselines[memo_key] = baseline
        return baseline
