"""Online anomaly detection over the synopsis stream (paper Sec. 3.3.3).

The detector buckets classified tasks into fixed time windows per stage
key.  When a window closes (event time passes its end) it runs:

* **Flow anomaly test** — reject H0 "proportion of flow outliers <= the
  training proportion" at ``alpha``; *or* any never-seen signature.
* **Performance anomaly test** — per (stage, signature) group, reject H0
  "proportion of performance outliers <= the training proportion".

Emitted :class:`AnomalyEvent` objects carry everything the reporting
layer needs to render a human-readable root-cause hint.

Hot-path notes: open windows are indexed by a min-heap of window indices,
so each ``observe`` peeks at the earliest deadline instead of scanning
every open bucket (closing is O(ripe · log open) amortized); per-(stage,
signature) performance baselines are memoized because the model is frozen
for the detector's lifetime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.telemetry import MetricsRegistry

from . import columnar
from .config import SAADConfig
from .features import FeatureVector, Signature, StageKey
from .interning import SignatureIdSpace, canonical_tuple, signature_of_entries
from .model import OutlierModel
from .stats import ProportionTest, proportion_exceeds_test
from .synopsis import SYNOPSIS_ENTRY, SYNOPSIS_HEADER, TaskSynopsis

FLOW = "flow"
PERFORMANCE = "performance"

#: Bound on the wire-ingest signature cache (raw entry bytes -> interned
#: signature).  Real streams repeat a handful of shapes per stage; the
#: cap only matters for adversarial inputs, where the cache resets.
_WIRE_SIGNATURE_CACHE_MAX = 1 << 16

#: Records per vectorized slice of the batch detect path.  Bounds the
#: working set of the gathered columns (~1 MiB of int64 per column).
_BATCH_CHUNK = 1 << 16

#: Scanned batches with fewer records than this take the per-record
#: loop; at or above it, the vector kernel.  Both are exact; the choice
#: is by cost alone.  The kernel pays a fixed ~300 us of numpy call
#: overhead per batch, the loop ~1.8 us per record: the measured table
#: in DESIGN §13 puts the crossover at 512.
_VECTOR_MIN_RECORDS = 512

#: Window-close triggers tolerated per chunk before the remainder of the
#: chunk degrades to the per-record path.  Each trigger rescans the
#: chunk's tail, so an adversarial close-every-task stream would
#: otherwise make the scan quadratic; real streams close a handful of
#: windows per chunk.
_BATCH_MAX_TRIGGERS = 64

#: Timestamps at/above 2**53 ms lose integer precision as float64; the
#: batch path hands such records to the exact per-record path.
_BATCH_TS_LIMIT = 1 << 53

#: Window indices must leave room for the packed (index, stage, sig-id,
#: verdict-bit) count keys to fit a signed 64-bit lane.
_BATCH_INDEX_LIMIT = 1 << 28


def _wire_bytes(frames) -> bytes:
    """Wire input as ``bytes``: ``bytes`` as is, ``bytearray`` or
    ``memoryview`` copied (so the signature cache's keys are hashable and
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


@dataclass
class _WindowBucket:
    """Accumulator for one (stage key, window index)."""

    n: int = 0
    flow_outliers: int = 0
    new_signatures: Set[Signature] = field(default_factory=set)
    # signature -> [perf outliers, eligible task count]
    perf: Dict[Signature, List[int]] = field(default_factory=dict)
    # Exemplar candidates, tracked only when tracing is on:
    # trace keys of new-signature tasks (first K, arrival order) ...
    new_sig_keys: List[Tuple[int, int]] = field(default_factory=list)
    # ... and a min-heap of (duration, trace key) for the K slowest.
    slow: List[Tuple[float, Tuple[int, int]]] = field(default_factory=list)


class AnomalyDetector:
    """Streaming detector; feed :meth:`observe`, call :meth:`flush` at end.

    Windows are closed by *event time*: when a task with
    ``start_time >= window_end + lateness`` arrives for any stage, all
    windows ending earlier are finalized.  ``flush()`` closes the rest.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.OutlierModel`; frozen for
        the detector's lifetime (baselines are memoized off it).
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

    Telemetry: the per-task path mutates plain private ints exposed via
    callback-backed counters (``detector_tasks_observed``,
    ``detector_bucket_probes``); the rare window-lifecycle path uses real
    locked metrics — ``detector_windows_opened`` / ``_closed{stage}`` /
    the ``detector_windows_open`` gauge, the ``detector_close_lag_seconds``
    histogram, ``detector_anomalies{kind}``, ``detector_new_signatures``.
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
        self._buckets: Dict[Tuple[StageKey, int], _WindowBucket] = {}
        # Ripeness index: min-heap of open window indices plus, per index,
        # the stage keys opened in arrival order (for deterministic close
        # order matching the insertion-ordered scan it replaces).
        self._index_heap: List[int] = []
        self._index_keys: Dict[int, List[StageKey]] = {}
        self._watermark = float("-inf")
        self.anomalies: List[AnomalyEvent] = []
        self._tasks_seen = 0
        self._bucket_probe_count = 0
        self._windows_closed = 0
        # (stage_key, signature) -> baseline proportion for the perf test.
        self._perf_baselines: Dict[Tuple[StageKey, Signature], float] = {}
        # Wire ingest path: raw entry bytes -> interned signature.
        self._wire_signatures: Dict[bytes, Signature] = {}
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
        self._m_windows_opened = registry.counter(
            "detector_windows_opened", "window buckets opened"
        )
        self._m_windows_open = registry.gauge(
            "detector_windows_open", "window buckets currently open"
        )
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
        return self._watermark

    # -- ingestion -----------------------------------------------------------
    def observe(self, synopsis: TaskSynopsis) -> List[AnomalyEvent]:
        """Ingest one synopsis; returns anomalies from any closed windows.

        Fast path: classifies straight from the synopsis fields without
        materializing a :class:`FeatureVector`.
        """
        stage_key = (
            (synopsis.host_id, synopsis.stage_id)
            if self.model.config.per_host
            else (0, synopsis.stage_id)
        )
        return self._observe(
            stage_key,
            synopsis.signature,
            synopsis.duration,
            synopsis.start_time,
            (synopsis.host_id, synopsis.uid) if self._tracing else None,
        )

    def observe_feature(self, feature: FeatureVector) -> List[AnomalyEvent]:
        """Ingest one already-extracted :class:`FeatureVector`.

        Same semantics as :meth:`observe`; used by replay paths that
        work from training traces rather than live synopses.
        """
        return self._observe(
            self.model.stage_key_for(feature),
            feature.signature,
            feature.duration,
            feature.start_time,
            (feature.host_id, feature.uid) if self._tracing else None,
        )

    def _observe(
        self,
        stage_key: StageKey,
        signature: Signature,
        duration: float,
        start_time: float,
        trace_key: Optional[Tuple[int, int]] = None,
    ) -> List[AnomalyEvent]:
        """Classify one task into its window bucket; ``trace_key`` is its
        ``(host_id, uid)`` when tracing is on, else None."""
        self._tasks_seen += 1
        label = self.model.classify_parts(stage_key, signature, duration)
        index = int(start_time // self.config.window_s)
        bucket = self._buckets.get((stage_key, index))
        if bucket is None:
            bucket = self._open_bucket(stage_key, index)
        bucket.n += 1
        if label.any_flow:
            bucket.flow_outliers += 1
        if label.new_signature:
            bucket.new_signatures.add(signature)
        if label.perf_eligible:
            counts = bucket.perf.get(signature)
            if counts is None:
                counts = bucket.perf[signature] = [0, 0]
            counts[1] += 1
            if label.perf_outlier:
                counts[0] += 1
        if trace_key is not None:
            # Exemplar candidates.  Candidate turnover is O(K log n) over
            # a window, so the steady-state cost is two comparisons.
            k = self.exemplars_per_window
            if label.new_signature and len(bucket.new_sig_keys) < k:
                bucket.new_sig_keys.append(trace_key)
            slow = bucket.slow
            if len(slow) < k:
                heapq.heappush(slow, (duration, trace_key))
            elif slow and duration > slow[0][0]:
                heapq.heapreplace(slow, (duration, trace_key))
        if start_time > self._watermark:
            self._watermark = start_time
        return self._close_ripe_windows()

    def _open_bucket(self, stage_key: StageKey, index: int) -> _WindowBucket:
        """Open the (stage key, window index) bucket; call only on a miss."""
        bucket = self._buckets[(stage_key, index)] = _WindowBucket()
        keys = self._index_keys.get(index)
        if keys is None:
            self._index_keys[index] = [stage_key]
            heapq.heappush(self._index_heap, index)
        else:
            keys.append(stage_key)
        self._m_windows_opened.inc()
        self._m_windows_open.inc()
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
        return compiled

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
        cell = (stage_int << columnar.SIG_BITS) | sig
        duration = columnar.header_column(b, offs, "duration_us")
        unique_cells, inverse = np.unique(cell, return_inverse=True)
        cuts = np.empty(len(unique_cells), dtype=np.int64)
        for j, packed in enumerate(unique_cells):
            cuts[j] = compiled.rule(int(packed))[1]
        bit = (duration > cuts[inverse]).astype(np.int64)
        span = columnar.SIG_BITS + 16  # cell bits: 8 host + 8 stage + sig
        kk = (idx * (1 << span) + cell) * 2 + bit
        ts_sec = ts_ms / 1000.0
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
            seg_wm = np.maximum.accumulate(ts_sec[pos:])
            seg_wm = np.maximum(seg_wm, self._watermark)
            # Same IEEE ops as _close_ripe_windows' ripeness test, so the
            # first hit is exactly where the scalar path would close.
            hits = np.flatnonzero((seg_min + 1) * width <= seg_wm - lateness)
            t = int(hits[0]) if hits.size else m - pos - 1
            self._apply_counts(np, kk[pos : pos + t + 1], compiled)
            self._watermark = float(seg_wm[t])
            pos += t + 1
            if hits.size:
                emitted = self._close_ripe_windows()
                if emitted:
                    events.extend(emitted)
                triggers += 1
                if triggers >= _BATCH_MAX_TRIGGERS and pos < m:
                    events.extend(self._degrade_records(data, offs[pos:].tolist()))
                    return

    def _apply_counts(self, np, kk, compiled) -> None:
        """Apply one segment's grouped counts to the window buckets.

        Groups are applied in order of first occurrence, so buckets and
        per-signature perf entries are created in exactly the order the
        scalar per-task loop would create them (close order and
        worst-offender tie-breaks depend on it).
        """
        unique_keys, firsts, counts = np.unique(
            kk, return_index=True, return_counts=True
        )
        space = compiled.space
        span = columnar.SIG_BITS + 16
        cell_mask = (1 << span) - 1
        sig_mask = (1 << columnar.SIG_BITS) - 1
        buckets = self._buckets
        for j in np.argsort(firsts):
            packed = int(unique_keys[j])
            count = int(counts[j])
            outlier_bit = packed & 1
            rest = packed >> 1
            index = rest >> span
            cell = rest & cell_mask
            stage_int = cell >> columnar.SIG_BITS
            stage_key = (stage_int >> 8, stage_int & 0xFF)
            bucket = buckets.get((stage_key, index))
            if bucket is None:
                bucket = self._open_bucket(stage_key, index)
            bucket.n += count
            flags, _ = compiled.rule(cell)
            if not flags & columnar.KNOWN:
                bucket.flow_outliers += count
                bucket.new_signatures.add(space.signature_of(cell & sig_mask))
            else:
                if flags & columnar.FLOW_OUTLIER:
                    bucket.flow_outliers += count
                if flags & columnar.PERF_ELIGIBLE:
                    signature = space.signature_of(cell & sig_mask)
                    perf = bucket.perf.get(signature)
                    if perf is None:
                        perf = bucket.perf[signature] = [0, 0]
                    perf[1] += count
                    if outlier_bit:
                        perf[0] += count
            self._tasks_seen += count

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

        Unpacks each record (signature through the entry-bytes cache,
        trace key when tracing is on) and funnels it through
        :meth:`_observe`.  Serves :meth:`observe_frame`, small or traced
        batches, and guard-tripped chunks of the vector kernel.
        """
        events: List[AnomalyEvent] = []
        unpack_header = SYNOPSIS_HEADER.unpack_from
        header_size = SYNOPSIS_HEADER.size
        entry_size = SYNOPSIS_ENTRY.size
        cache = self._wire_signatures
        per_host = self.model.config.per_host
        tracing = self._tracing
        observe = self._observe
        for record in records:
            host_id, stage_id, uid, ts_ms, duration_us, n = unpack_header(data, record)
            start = record + header_size
            entry_bytes = data[start : start + entry_size * n]
            signature = cache.get(entry_bytes)
            if signature is None:
                if len(cache) >= _WIRE_SIGNATURE_CACHE_MAX:
                    cache.clear()
                signature = cache[entry_bytes] = signature_of_entries(entry_bytes)
            emitted = observe(
                (host_id, stage_id) if per_host else (0, stage_id),
                signature,
                duration_us / 1_000_000.0,
                ts_ms / 1000.0,
                (host_id, uid) if tracing else None,
            )
            if emitted:
                events.extend(emitted)
        return events

    def flush(self) -> List[AnomalyEvent]:
        """Close every open window (end of stream).

        Also resets the per-window gauges: flush bypasses the ripe-close
        path that decrements ``detector_windows_open``, so without the
        explicit reset the gauge would stay stuck at the pre-flush open
        count forever.
        """
        emitted: List[AnomalyEvent] = []
        for index in sorted(self._index_keys):
            for stage_key in self._index_keys[index]:
                emitted.extend(self._close_window((stage_key, index)))
        self._buckets.clear()
        self._index_keys.clear()
        self._index_heap.clear()
        self._m_windows_open.set(0)
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
        for bucket_key in [
            key for key in self._buckets if key[0][1] in stages
        ]:
            del self._buckets[bucket_key]
            stage_key, index = bucket_key
            keys = self._index_keys[index]
            keys.remove(stage_key)
            if not keys:
                del self._index_keys[index]
            dropped += 1
            self._m_windows_open.dec()
        if dropped:
            # Rebuild the ripeness heap: indices whose last stage key
            # was disowned must not linger (an index miss would KeyError
            # in _close_ripe_windows' pop).
            self._index_heap = list(self._index_keys)
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
        horizon = self._watermark - self.lateness_s
        self._bucket_probe_count += 1
        if (heap[0] + 1) * width > horizon:
            return []  # earliest open window is not ripe — nothing to scan
        emitted: List[AnomalyEvent] = []
        while heap and (heap[0] + 1) * width <= horizon:
            index = heapq.heappop(heap)
            self._bucket_probe_count += 1
            for stage_key in self._index_keys.pop(index):
                key = (stage_key, index)
                emitted.extend(self._close_window(key))
                del self._buckets[key]
                self._m_windows_open.dec()
        return emitted

    def _close_window(self, key: Tuple[StageKey, int]) -> List[AnomalyEvent]:
        self._windows_closed += 1
        stage_key, index = key
        bucket = self._buckets[key]
        width = self.config.window_s
        window_start, window_end = index * width, (index + 1) * width
        events: List[AnomalyEvent] = []
        stage_model = self.model.stage_model(stage_key)
        host_id, stage_id = stage_key
        closed_child = self._m_closed_by_stage.get(stage_id)
        if closed_child is None:
            closed_child = self._m_windows_closed.labels(stage=str(stage_id))
            self._m_closed_by_stage[stage_id] = closed_child
        closed_child.inc()
        self._m_close_lag.observe(max(0.0, self._watermark - window_end))
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
                        sorted(bucket.new_signatures, key=canonical_tuple)
                    ),
                )
            )
            self._m_anomalies_flow.inc()

        # A group's eligible count never exceeds bucket.n, so a window too
        # small for the flow test skips every group here too.
        offending: List[Signature] = []
        worst: Optional[ProportionTest] = None
        for signature, (outliers, eligible) in bucket.perf.items():
            if eligible < self.config.min_window_tasks:
                continue
            baseline = self._perf_baseline(stage_key, stage_model, signature)
            test = proportion_exceeds_test(
                outliers, eligible, baseline, self.config.alpha
            )
            if test.reject:
                offending.append(signature)
                if worst is None or test.p_value < worst.p_value:
                    worst = test
        if offending and worst is not None:
            total_eligible = sum(counts[1] for counts in bucket.perf.values())
            total_outliers = sum(counts[0] for counts in bucket.perf.values())
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
                    offending_signatures=tuple(sorted(offending, key=canonical_tuple)),
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
        seen: Set[Tuple[int, int]] = set()
        slowest = [key for _, key in sorted(bucket.slow, reverse=True)]
        for trace_key in (*bucket.new_sig_keys, *slowest):
            if trace_key in seen:
                continue
            seen.add(trace_key)
            trace = self.tracer.pin(trace_key)
            if trace is not None:
                exemplars.append(trace)
                if len(exemplars) >= self.exemplars_per_window:
                    break
        return tuple(exemplars)

    def _perf_baseline(
        self, stage_key: StageKey, stage_model, signature: Signature
    ) -> float:
        """Memoized ``max(1 - q, trained outlier share)`` for one group."""
        memo_key = (stage_key, signature)
        baseline = self._perf_baselines.get(memo_key)
        if baseline is None:
            baseline = 1.0 - self.config.duration_percentile
            if stage_model is not None:
                profile = stage_model.signatures.get(signature)
                if profile is not None:
                    baseline = max(baseline, profile.perf_outlier_share)
            self._perf_baselines[memo_key] = baseline
        return baseline
