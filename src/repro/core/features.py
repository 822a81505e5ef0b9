"""Feature creation (paper Sec. 3.3.1).

From each task synopsis the analyzer derives the feature vector
``<id, stage, signature, duration>``:

* **signature** — the set of distinct log points the task encountered;
  the slightest difference means the task executed different code.
* **duration** — seconds from task start to its last log point; the
  performance feature.

Signatures are interned (see :mod:`repro.core.interning`): vectorizing a
million tasks that executed the same code path yields a million feature
vectors sharing *one* frozenset object, so every downstream dict lookup
hits a cached hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from .interning import canonical_tuple
from .synopsis import TaskSynopsis

Signature = FrozenSet[int]
#: Stage key used throughout the analyzer: (host_id, stage_id).  The paper
#: trains and tests per host; set host_id to 0 everywhere for a pooled model.
StageKey = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """The analyzer-side view of one task."""

    uid: int
    host_id: int
    stage_id: int
    signature: Signature
    duration: float
    start_time: float

    @property
    def stage_key(self) -> StageKey:
        """(host_id, stage_id) grouping key for per-host analysis."""
        return (self.host_id, self.stage_id)

    @classmethod
    def from_synopsis(cls, synopsis: TaskSynopsis) -> "FeatureVector":
        """Vectorize one task synopsis (its signature interns on first read)."""
        return cls(
            uid=synopsis.uid,
            host_id=synopsis.host_id,
            stage_id=synopsis.stage_id,
            signature=synopsis.signature,
            duration=synopsis.duration,
            start_time=synopsis.start_time,
        )


def features_from(synopses: Iterable[TaskSynopsis]) -> List[FeatureVector]:
    """Vectorize a batch of synopses."""
    return [FeatureVector.from_synopsis(s) for s in synopses]


def format_signature(signature: Signature) -> str:
    """Stable human-readable form, e.g. ``{L1,L2,L4,L5}``."""
    return "{" + ",".join(f"L{lpid}" for lpid in canonical_tuple(signature)) + "}"
