"""Metric primitives: counters, gauges, and log-scale histograms.

Three metric kinds, mirroring the Prometheus data model but with zero
dependencies:

* :class:`CounterFamily` — monotonically increasing counts (tasks
  observed, frames flushed, anomalies emitted).
* :class:`GaugeFamily` — instantaneous values that go up and down
  (open detection windows, pending wire payloads).
* :class:`HistogramFamily` — distributions over fixed log-scale
  buckets (window close lag).

Each *family* owns the metric name, help text, and declared label
names; :meth:`MetricFamily.labels` returns (creating on first use) the
*child* holding the actual value for one label combination, e.g.
``detector_windows_closed{stage="3"}``.  A family declared with no
label names acts directly as its own single child, so
``registry.counter("x").inc()`` works without a ``labels()`` hop.

Thread safety: one lock per family guards both child creation and all
value updates, so concurrent ``inc``/``observe`` calls never lose
updates.  Hot paths that cannot afford a lock per event should keep a
plain attribute and register a *callback-backed* child instead
(:meth:`_Child.set_function`): the value is read from the callable only
at collection time, making steady-state instrumentation free.  This is
the pattern the tracker and detector use (DESIGN.md §10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricFamily",
    "DEFAULT_BUCKETS",
    "log_buckets",
]


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` geometric bucket upper bounds: start, start*factor, ...

    The implicit ``+Inf`` bucket is always appended by the histogram, so
    the returned bounds only cover the finite range.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start > 0, factor > 1, count >= 1")
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Default histogram bounds: decades from 1 ms to 1000 s.  Latencies in
#: this codebase are event-time lags, bounded by a few window widths.
DEFAULT_BUCKETS = log_buckets(0.001, 10.0, 7)


class _Child:
    """Shared machinery of one (family, label-values) series."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Source this series from ``fn`` at collection time.

        Used for hot-path instrumentation: the instrumented object keeps
        a plain attribute and the registry reads it lazily, so the hot
        loop pays nothing.  Re-binding replaces the previous callable
        (the newest instrument owns the series).
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        """Current value (evaluates the callback for fn-backed series)."""
        fn = self._fn
        return float(fn()) if fn is not None else self._value


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        with self._lock:
            self._value += amount


class Gauge(_Child):
    """An instantaneous value that can go up and down."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount


class Histogram(_Child):
    """Cumulative-bucket histogram over fixed bounds.

    ``_counts[i]`` is the number of observations <= ``bounds[i]``-exclusive
    slot (non-cumulative internally; cumulated at collection), with one
    extra slot for the implicit ``+Inf`` bucket.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]):
        super().__init__(lock)
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs; the last bound is +Inf."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        with self._lock:
            for bound, count in zip(self._bounds, self._counts):
                cumulative += count
                out.append((bound, cumulative))
            out.append((float("inf"), cumulative + self._counts[-1]))
        return out


class MetricFamily:
    """Base family: name + help + label names + children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        # Unlabeled families exist (at zero) from the moment they are
        # registered — matching Prometheus client behavior and keeping
        # never-hit counters visible in snapshots — and keep that child
        # at hand, so family-level updates skip the label-key rebuild.
        self._unlabeled = None if self.label_names else self.labels()

    # -- children -------------------------------------------------------------
    def _new_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, **labels: object) -> "_Child":
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._new_child()
        return child

    def _default(self) -> "_Child":
        """The single child of an unlabeled family."""
        child = self._unlabeled
        if child is None:
            raise ValueError(
                f"{self.name} declares labels {self.label_names}; "
                f"call .labels(...) first"
            )
        return child

    def set_function(self, fn: Callable[[], float]) -> None:
        """Callback-source the unlabeled child (see :meth:`_Child.set_function`)."""
        self._default().set_function(fn)

    # -- collection -----------------------------------------------------------
    def collect(self) -> Dict[str, object]:
        """Snapshot this family as a plain JSON-able dict."""
        samples: List[Dict[str, object]] = []
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            sample: Dict[str, object] = {
                "labels": dict(zip(self.label_names, key))
            }
            if isinstance(child, Histogram):
                sample["count"] = child.count
                sample["sum"] = child.sum
                sample["buckets"] = [
                    ["+Inf" if bound == float("inf") else bound, count]
                    for bound, count in child.buckets()
                ]
            else:
                sample["value"] = child.value
            samples.append(sample)
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "samples": samples,
        }


class CounterFamily(MetricFamily):
    """Family of :class:`Counter` children."""

    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter(self._lock)

    def labels(self, **labels: object) -> Counter:
        """The :class:`Counter` child for one label combination."""
        return super().labels(**labels)  # type: ignore[return-value]

    def inc(self, amount: float = 1) -> None:
        """Increment the unlabeled child."""
        self._default().inc(amount)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        """Value of the unlabeled child."""
        return self._default().value


class GaugeFamily(MetricFamily):
    """Family of :class:`Gauge` children."""

    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge(self._lock)

    def labels(self, **labels: object) -> Gauge:
        """The :class:`Gauge` child for one label combination."""
        return super().labels(**labels)  # type: ignore[return-value]

    def set(self, value: float) -> None:
        """Set the unlabeled child."""
        self._default().set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1) -> None:
        """Increment the unlabeled child."""
        self._default().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1) -> None:
        """Decrement the unlabeled child."""
        self._default().dec(amount)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        """Value of the unlabeled child."""
        return self._default().value


class HistogramFamily(MetricFamily):
    """Family of :class:`Histogram` children sharing one bucket layout."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Tuple[str, ...] = (),
        buckets: Optional[Iterable[float]] = None,
    ):
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket bound")
        # Set before super().__init__: an unlabeled family materializes
        # its default child there, and _new_child reads bucket_bounds.
        self.bucket_bounds = bounds
        super().__init__(name, help, label_names)

    def _new_child(self) -> Histogram:
        return Histogram(self._lock, self.bucket_bounds)

    def labels(self, **labels: object) -> Histogram:
        """The :class:`Histogram` child for one label combination."""
        return super().labels(**labels)  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        """Observe into the unlabeled child."""
        self._default().observe(value)  # type: ignore[attr-defined]

    @property
    def count(self) -> int:
        """Observation count of the unlabeled child."""
        return self._default().count  # type: ignore[attr-defined]

    @property
    def sum(self) -> float:
        """Observation sum of the unlabeled child."""
        return self._default().sum  # type: ignore[attr-defined]
