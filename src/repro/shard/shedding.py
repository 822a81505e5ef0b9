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
only dropped past a second, harder watermark.

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
:class:`SignatureNovelty` is the sanctioned way to *assign* priorities:
built from a trained model, it classifies a wire frame as
exemplar-bearing when any synopsis in it carries a signature the model
never saw in training.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.core.synopsis import decode_frame
from repro.telemetry import NULL_REGISTRY

__all__ = [
    "LoadShedder",
    "SignatureNovelty",
    "PRIORITY_SAMPLED",
    "PRIORITY_EXEMPLAR",
    "PRIORITY_NAMES",
]

#: Ordinary head-sampled synopsis traffic: first to be shed.
PRIORITY_SAMPLED = 0

#: Frames carrying novel-signature / exemplar-bearing synopses: shed
#: only past the hard watermark.
PRIORITY_EXEMPLAR = 1

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


class SignatureNovelty:
    """Classify frames by signature novelty against a trained model.

    Holds, per stage id, the set of task signatures training has seen
    (merged across hosts — a signature that is routine *anywhere* is not
    evidence).  :meth:`frame_priority` decodes a wire frame and returns
    :data:`PRIORITY_EXEMPLAR` when any synopsis in it carries an unseen
    signature, else :data:`PRIORITY_SAMPLED` — a valid ``priority_fn``
    for :class:`~repro.shard.server.FrameClient`, which declares the
    priority in each data envelope for the server's shedder.
    """

    def __init__(self, known: Dict[int, Set[FrozenSet[int]]]):
        self._known = known

    @classmethod
    def from_model(cls, model) -> "SignatureNovelty":
        """Build from a trained :class:`~repro.core.model.OutlierModel`."""
        known: Dict[int, Set[FrozenSet[int]]] = {}
        for (_host, stage_id), stage_model in model.stages.items():
            known.setdefault(stage_id, set()).update(stage_model.signatures)
        return cls(known)

    def is_novel(self, synopsis) -> bool:
        """True when ``synopsis``'s signature was never seen in training."""
        seen = self._known.get(synopsis.stage_id)
        return seen is None or synopsis.signature not in seen

    def frame_priority(self, frame: bytes) -> int:
        """The priority of one wire frame (header + payload bytes).

        A frame that fails to decode is classified
        :data:`PRIORITY_EXEMPLAR`: garbage on the wire is itself a
        signal worth keeping over routine traffic, and the real decode
        error will surface (and be counted) at the ingest sink.
        """
        try:
            synopses, _ = decode_frame(frame, 0)
        except ValueError:
            return PRIORITY_EXEMPLAR
        for synopsis in synopses:
            if self.is_novel(synopsis):
                return PRIORITY_EXEMPLAR
        return PRIORITY_SAMPLED
