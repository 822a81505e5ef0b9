"""The scalar oracle and the task ledger.

Correct means what this repository has always meant by it: the event
list equals what one scalar ``AnomalyDetector.observe`` loop produces
from the same synopses in the same arrival order.  The oracle runs
after the timed passes (and after peak RSS is read), decoding the very
frames the system under test ingested.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from repro.core import AnomalyDetector, AnomalyEvent, decode_frame
from repro.shard import EVENT_ORDER
from repro.telemetry import NULL_REGISTRY

#: A trace whose fault phase raised fewer events than this would make
#: the equality check close to vacuous.
MIN_ORACLE_EVENTS = 5


def replay(model, config, lateness_s: float, frames: Sequence[bytes]) -> List[AnomalyEvent]:
    """Events of the scalar reference detector, canonically ordered."""
    detector = AnomalyDetector(
        model, config, lateness_s=lateness_s, registry=NULL_REGISTRY
    )
    observe = detector.observe
    for frame in frames:
        for synopsis in decode_frame(frame)[0]:
            observe(synopsis)
    detector.flush()
    return sorted(detector.anomalies, key=EVENT_ORDER)


@dataclass
class Ledger:
    """What one pass offered, what the analyzer accounted, what it said."""

    offered: int
    accounted: int
    #: Frames shed, dropped, or raising on the way in.
    frames_lost: int
    events: List[AnomalyEvent]


def failed_ops(ledger: Ledger, oracle: List[AnomalyEvent]) -> int:
    """Operations of one pass that went wrong, in tasks-and-events.

    Tasks offered but not accounted, plus frames lost, plus the size of
    the symmetric difference between the produced events and the
    oracle's (``exemplars`` never take part in event equality).
    """
    produced = sorted(ledger.events, key=EVENT_ORDER)
    difference = Counter(produced)
    difference.subtract(Counter(oracle))
    wrong = sum(abs(n) for n in difference.values())
    if not wrong and produced != oracle:
        wrong = 1  # same multiset, different canonical order
    return abs(ledger.offered - ledger.accounted) + ledger.frames_lost + wrong
