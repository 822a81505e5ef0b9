"""Priority-aware load shedding for the TCP ingest edge.

Under sustained overload an ingest endpoint has exactly three options:
grow its buffers without bound, stop reading (backpressure), or drop
work.  The first is an outage with extra steps; the second is right for
short bursts but turns a 2x sustained overload into an ever-growing
node-side queue; the third — *shedding* — keeps goodput at capacity by
discarding the least valuable frames first.

What is least valuable is workload knowledge: the paper's detector is
counting-based, so dropping a slice of the head-sampled, steady-state
synopsis traffic thins every window's counts roughly uniformly and the
proportion tests degrade gracefully.  Frames carrying *novel-signature
or exemplar-bearing* tasks are a different matter — each may be the
only evidence of an anomaly — so they ride a higher priority and are
only dropped past a second, harder watermark.  Only novelty raises a
frame: flow and performance outliers do not, since about 1 - 0.99**64,
or 47 %, of 64-record frames hold a task past its 99th-percentile cut
and the sampled class would empty.

The ladder (see docs/OPERATIONS.md §8):

====================  ======================================
backlog               behavior
====================  ======================================
``< shed_watermark``  admit everything
``>= shed_watermark`` drop :data:`PRIORITY_SAMPLED` frames
``>= hard_watermark`` drop :data:`PRIORITY_EXEMPLAR` too
====================  ======================================

Credit/ack control traffic is never shed — it is what keeps the
clients' view of the world honest.

:class:`LoadShedder` makes the drop/admit decision and keeps the
per-priority accounting (``shed_frames_dropped{priority=...}``).
Priorities are assigned by the detector's own compiled rule table:
:meth:`~repro.core.columnar.CompiledModel.frame_priority` makes a wire
frame exemplar-bearing when any synopsis in it carries a signature
novel under its own (host, stage) key.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.columnar import PRIORITY_EXEMPLAR, PRIORITY_SAMPLED
from repro.telemetry import NULL_REGISTRY

__all__ = [
    "LoadShedder",
    "PRIORITY_SAMPLED",
    "PRIORITY_EXEMPLAR",
    "PRIORITY_NAMES",
]

#: Label values for the per-priority drop accounting.
PRIORITY_NAMES: Dict[int, str] = {
    PRIORITY_SAMPLED: "sampled",
    PRIORITY_EXEMPLAR: "exemplar",
}


class LoadShedder:
    """The drop/admit decision plus per-priority drop accounting.

    Parameters
    ----------
    shed_watermark:
        Backlog (bytes) at which :data:`PRIORITY_SAMPLED` frames start
        being dropped.
    hard_watermark:
        Backlog at which even :data:`PRIORITY_EXEMPLAR` frames are
        dropped; defaults to twice the shed watermark.  The gap between
        the two is the budget reserved for anomaly evidence.
    registry:
        Telemetry registry for ``shed_frames_dropped`` /
        ``shed_bytes_dropped`` (labelled by priority name) and the
        ``ingest_watermark_bytes{kind=shed|hard}`` gauges; defaults to
        :data:`~repro.telemetry.NULL_REGISTRY`.
    """

    def __init__(
        self,
        shed_watermark: int,
        hard_watermark: Optional[int] = None,
        registry=None,
    ):
        if shed_watermark < 1:
            raise ValueError(f"shed_watermark must be >= 1: {shed_watermark}")
        hard = hard_watermark if hard_watermark is not None else 2 * shed_watermark
        if hard < shed_watermark:
            raise ValueError(
                f"hard_watermark {hard} below shed_watermark {shed_watermark}"
            )
        self.shed_watermark = shed_watermark
        self.hard_watermark = hard
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_dropped = registry.counter(
            "shed_frames_dropped",
            "ingest frames dropped by the load shedder",
            labels=("priority",),
        )
        self._m_bytes = registry.counter(
            "shed_bytes_dropped",
            "frame bytes dropped by the load shedder",
            labels=("priority",),
        )
        watermarks = registry.gauge(
            "ingest_watermark_bytes",
            "configured ingest backlog watermarks (bytes)",
            labels=("kind",),
        )
        watermarks.labels(kind="shed").set_function(lambda: self.shed_watermark)
        watermarks.labels(kind="hard").set_function(lambda: self.hard_watermark)
        self._drops = {name: 0 for name in PRIORITY_NAMES.values()}

    def admit(self, priority: int, size: int, backlog: int) -> bool:
        """Admit (True) or shed (False) one frame.

        ``priority`` is the frame's declared priority, ``size`` its byte
        length, ``backlog`` the ingest backlog (pending bytes) at the
        moment of the decision.  Dropped frames are accounted under
        their priority's label; unknown priorities are treated as (and
        accounted like) :data:`PRIORITY_EXEMPLAR` so a newer client's
        higher classes are never shed more aggressively than intended.
        """
        if backlog < self.shed_watermark:
            return True
        if backlog < self.hard_watermark and priority != PRIORITY_SAMPLED:
            return True
        name = PRIORITY_NAMES.get(priority, PRIORITY_NAMES[PRIORITY_EXEMPLAR])
        self._drops[name] += 1
        self._m_dropped.labels(priority=name).inc()
        self._m_bytes.labels(priority=name).inc(size)
        return False

    def drops(self) -> Dict[str, int]:
        """Per-priority drop counts so far, keyed by priority name."""
        return dict(self._drops)
