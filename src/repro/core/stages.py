"""Stage identifiers.

A *stage* is a small code module of a staged server (the paper's Foo/Bar/
Baz; concretely ``DataXceiver``, ``Memtable``, ``Call``...).  Stage ids are
what ``set_context(stage_id)`` passes to the tracker at the beginning of
each stage; the registry maps them back to names for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass(frozen=True)
class Stage:
    """A registered stage: id, name, and which staging model it follows."""

    stage_id: int
    name: str
    model: str = "producer-consumer"  # or "dispatcher-worker"

    def __post_init__(self) -> None:
        if self.model not in ("producer-consumer", "dispatcher-worker"):
            raise ValueError(f"unknown staging model {self.model!r}")


class StageRegistry:
    """Assigns dense stage ids in registration order."""

    def __init__(self) -> None:
        self._stages: List[Stage] = []
        self._by_name: Dict[str, Stage] = {}

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages)

    def register(self, name: str, model: str = "producer-consumer") -> Stage:
        """Register a stage; idempotent on name."""
        if not name:
            raise ValueError("stage name must be non-empty")
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        stage = Stage(stage_id=len(self._stages), name=name, model=model)
        self._stages.append(stage)
        self._by_name[name] = stage
        return stage

    def get(self, stage_id: int) -> Stage:
        """The stage with id ``stage_id``; raises KeyError when unknown."""
        if 0 <= stage_id < len(self._stages):
            return self._stages[stage_id]
        raise KeyError(f"unknown stage id {stage_id}")

    def by_name(self, name: str) -> Stage:
        """The stage called ``name``; raises KeyError when unknown."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown stage {name!r}") from None

    def names(self) -> List[str]:
        """Every registered stage name, in stage-id order."""
        return [s.name for s in self._stages]
