"""The tracer: bounded trace capture with head sampling + tail retention.

One :class:`Tracer` serves a whole deployment (the ``SAAD`` facade
shares it between every node's task execution tracker and the anomaly
detector).  Admission control keeps memory bounded and exemplars alive:

* **Head sampling** — a deterministic stride keeps ``sample_rate`` of
  ordinary traces (no RNG, so runs are reproducible).
* **Tail retention** — traces whose signature is rare, or whose duration
  exceeds the trained percentile threshold, are *always* kept in a
  separate retained ring, so the interesting tasks survive sampling.
  Before a model is installed (:meth:`set_model`), "rare" means a
  signature this tracer has never seen; afterwards the detector's
  compiled rule decides (never-trained or flow-outlier signatures, and
  whole-µs wire durations past the signature's integer cut), so a
  trace is kept exactly when the detector counts its task as evidence.
* **Pinning** — the detector pins exemplar traces onto anomaly events;
  pinned traces move to their own bounded store and are never evicted
  by ordinary traffic.

Disabling tracing is a type swap, not a flag check: the shared
:data:`NULL_TRACER` answers every call with a no-op, and producers gate
their per-event work on ``tracer.enabled`` — the same pattern the
telemetry registry uses (DESIGN.md §10).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.columnar import FLOW_OUTLIER, compile_model
from repro.core.synopsis import wire_header
from repro.telemetry import MetricsRegistry

from .spans import TaskTrace, TraceKey, trace_from_synopsis

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "TracerStats"]

#: Cap on the pre-model novel-signature memory; past this many distinct
#: signatures the tracer stops treating novelty as rarity (a model
#: should long since have been installed).
_MAX_NOVELTY_SIGNATURES = 4096


class TracerStats:
    """Plain-int accumulator behind the tracer's callback-backed metrics.

    Mutated under the tracer lock (admission runs once per task, not per
    log call); the telemetry registry reads the fields lazily at
    snapshot time.
    """

    def __init__(self) -> None:
        self.spans_recorded = 0
        self.spans_dropped = 0
        self.events_recorded = 0
        self.traces_recorded = 0
        self.traces_sampled_out = 0
        self.traces_evicted = 0
        self.traces_retained = 0
        self.traces_pinned = 0


class Tracer:
    """Thread-safe bounded trace store with sampling and retention.

    Parameters
    ----------
    capacity:
        Ring-buffer bound for head-sampled (ordinary) traces.
    retained_capacity:
        Separate bound for tail-retained traces (rare/slow exemplar
        candidates).
    pinned_capacity:
        Bound for traces pinned to anomaly events.  Events keep strong
        references to their exemplars, so eviction here only limits what
        :meth:`pinned_traces` can enumerate later.
    sample_rate:
        Fraction of ordinary traces kept by head sampling, in [0, 1].
        Deterministic stride, not random: a rate of 0.25 keeps every
        fourth trace.
    registry:
        Telemetry registry for the ``tracer_*`` self-metrics; defaults
        to a private :class:`~repro.telemetry.MetricsRegistry`, or pass
        a :class:`~repro.telemetry.NullRegistry` to disable.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 1024,
        retained_capacity: int = 256,
        pinned_capacity: int = 256,
        sample_rate: float = 1.0,
        registry=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if retained_capacity < 1:
            raise ValueError(f"retained_capacity must be >= 1: {retained_capacity}")
        if pinned_capacity < 1:
            raise ValueError(f"pinned_capacity must be >= 1: {pinned_capacity}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate out of [0, 1]: {sample_rate}")
        self.capacity = capacity
        self.retained_capacity = retained_capacity
        self.pinned_capacity = pinned_capacity
        self.sample_rate = sample_rate
        self.stats = TracerStats()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._ring: "OrderedDict[TraceKey, TaskTrace]" = OrderedDict()
        self._retained: "OrderedDict[TraceKey, TaskTrace]" = OrderedDict()
        self._pinned: "OrderedDict[TraceKey, TaskTrace]" = OrderedDict()
        self._sample_accum = 0.0
        self._seen_signatures: set = set()
        self._compiled = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        stats = self.stats
        for name, help_text, fn in (
            (
                "tracer_spans_recorded",
                "stage spans admitted into the trace ring",
                lambda: stats.spans_recorded,
            ),
            (
                "tracer_spans_dropped",
                "stage spans discarded by head sampling or ring eviction",
                lambda: stats.spans_dropped,
            ),
            (
                "tracer_events_recorded",
                "log-point events carried by admitted traces",
                lambda: stats.events_recorded,
            ),
            (
                "tracer_traces_retained",
                "traces kept by tail retention (rare signature / slow task)",
                lambda: stats.traces_retained,
            ),
            (
                "tracer_traces_pinned",
                "traces pinned to anomaly events as exemplars",
                lambda: stats.traces_pinned,
            ),
        ):
            self.registry.counter(name, help_text).set_function(fn)
        self.registry.gauge(
            "tracer_ring_traces", "traces currently buffered (all stores)"
        ).set_function(lambda: len(self))

    # -- model hook -----------------------------------------------------------
    def set_model(self, model) -> None:
        """Install a trained :class:`~repro.core.model.OutlierModel` to
        drive tail retention through its compiled rule table, recompiled
        whenever the model's generation moves.  Pass None to fall back
        to pre-model novelty retention.
        """
        compiled = compile_model(model) if model is not None else None
        with self._lock:
            self._compiled = compiled

    # -- producer side --------------------------------------------------------
    def finish(
        self, synopsis, events: List[Tuple[int, float]]
    ) -> Optional[TaskTrace]:
        """Build and admit the trace of one finished task.

        Called by the task execution tracker at task termination with the
        raw ``(lpid, time)`` event list it accumulated.  Retention reads
        the synopsis's own wire duration.  Returns the trace when
        admitted, None when sampled out.
        """
        trace = trace_from_synopsis(synopsis, events)
        return trace if self._record(trace, synopsis) else None

    def record(self, trace: TaskTrace) -> bool:
        """Admit one trace through sampling/retention; True when kept.
        Retention reads the trace's own start and duration."""
        return self._record(trace, trace)

    def _record(self, trace: TaskTrace, synopsis) -> bool:
        with self._lock:
            if self._should_retain(trace, synopsis):
                trace.retained = True
                self.stats.traces_retained += 1
                self._admit(self._retained, trace, self.retained_capacity)
                return True
            self._sample_accum += self.sample_rate
            if self._sample_accum >= 1.0:
                self._sample_accum -= 1.0
                self._admit(self._ring, trace, self.capacity)
                return True
            self.stats.traces_sampled_out += 1
            self.stats.spans_dropped += trace.n_spans
            return False

    def _should_retain(self, trace: TaskTrace, synopsis) -> bool:
        compiled = self._compiled
        if compiled is not None:
            if compiled.stale:
                compiled = self._compiled = compile_model(compiled.model)
            flags, cut = compiled.signature_rule(
                trace.host_id, trace.stage_id, trace.signature
            )
            if not flags or flags & FLOW_OUTLIER:
                return True
            try:
                _, duration_us = wire_header(
                    synopsis.uid, synopsis.start_time, synopsis.duration
                )
            except (ValueError, OverflowError):
                return False  # the wire cannot carry it; no detector counts it
            return duration_us > cut
        if trace.signature in self._seen_signatures:
            return False
        if len(self._seen_signatures) < _MAX_NOVELTY_SIGNATURES:
            self._seen_signatures.add(trace.signature)
            return True
        return False

    def _admit(self, store, trace: TaskTrace, capacity: int) -> None:
        store[trace.key] = trace
        self.stats.traces_recorded += 1
        self.stats.spans_recorded += trace.n_spans
        self.stats.events_recorded += trace.n_events
        while len(store) > capacity:
            _, evicted = store.popitem(last=False)
            self.stats.traces_evicted += 1
            self.stats.spans_dropped += evicted.n_spans

    # -- consumer side --------------------------------------------------------
    def get(self, key: TraceKey) -> Optional[TaskTrace]:
        """The buffered trace for ``key`` (pinned/retained/sampled), or None."""
        with self._lock:
            return (
                self._pinned.get(key)
                or self._retained.get(key)
                or self._ring.get(key)
            )

    def pin(self, key: TraceKey) -> Optional[TaskTrace]:
        """Pin the trace for ``key`` as an anomaly exemplar.

        Moves it to the pinned store (protected from ordinary eviction)
        and marks it; returns the trace, or None when it was never
        admitted or has already been evicted.  Idempotent.
        """
        with self._lock:
            trace = self._pinned.get(key)
            if trace is not None:
                return trace
            trace = self._retained.pop(key, None) or self._ring.pop(key, None)
            if trace is None:
                return None
            trace.pinned = True
            self.stats.traces_pinned += 1
            self._pinned[key] = trace
            while len(self._pinned) > self.pinned_capacity:
                self._pinned.popitem(last=False)
            return trace

    def pin_many(self, keys) -> List[TaskTrace]:
        """Pin every trace in ``keys``; the traces actually found.

        The batched form of :meth:`pin` the sharded coordinator uses
        when resolving a merged event's exemplar trace keys — one lock
        acquisition for the whole event rather than one per key.  Keys
        that were never admitted (or already evicted) are skipped.
        """
        with self._lock:
            out = []
            for key in keys:
                trace = self._pinned.get(key)
                if trace is None:
                    trace = self._retained.pop(key, None) or self._ring.pop(key, None)
                    if trace is None:
                        continue
                    trace.pinned = True
                    self.stats.traces_pinned += 1
                    self._pinned[key] = trace
                out.append(trace)
            while len(self._pinned) > self.pinned_capacity:
                self._pinned.popitem(last=False)
            return out

    def traces(self) -> List[TaskTrace]:
        """Every buffered trace, ordered by task start time."""
        with self._lock:
            out = (
                list(self._pinned.values())
                + list(self._retained.values())
                + list(self._ring.values())
            )
        out.sort(key=lambda t: (t.start_time, t.key))
        return out

    def pinned_traces(self) -> List[TaskTrace]:
        """Traces pinned to anomaly events, oldest pin first."""
        with self._lock:
            return list(self._pinned.values())

    def __len__(self) -> int:
        """Traces currently buffered across all three stores."""
        return len(self._ring) + len(self._retained) + len(self._pinned)


class NullTracer:
    """Tracing disabled: every call is a no-op, every lookup empty.

    Producers gate per-event work on ``enabled`` (False here), so the
    off path costs one attribute check — the budget the throughput
    benchmark's untraced legs measure.
    """

    enabled = False

    def set_model(self, model) -> None:
        """No-op."""

    def finish(self, synopsis, events) -> None:
        """No-op; never admits."""
        return None

    def record(self, trace) -> bool:
        """No-op; never admits."""
        return False

    def get(self, key) -> None:
        """Always None."""
        return None

    def pin(self, key) -> None:
        """Always None."""
        return None

    def pin_many(self, keys) -> List[TaskTrace]:
        """Always empty."""
        return []

    def traces(self) -> List[TaskTrace]:
        """Always empty."""
        return []

    def pinned_traces(self) -> List[TaskTrace]:
        """Always empty."""
        return []

    def __len__(self) -> int:
        """Always 0."""
        return 0


#: Shared inert tracer for "tracing off" call sites (the default).
NULL_TRACER = NullTracer()
