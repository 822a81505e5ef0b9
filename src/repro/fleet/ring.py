"""Consistent-hash stage placement for the sharded pool and the fleet.

A modulo placement (``stage_id % shards``) would remap almost every
stage when the analyzer count changes by one, so every analyzer's
window state would have to move.  The ring bounds the blast radius:
each node projects ``vnodes`` virtual points onto a 64-bit circle, and
a stage byte is owned by the first vnode at or clockwise-after its own
point.  Adding or removing one of N nodes then moves only the arcs that
node's vnodes covered — ~1/N of the stage space in expectation, bounded
in tests at 1.5/N with the default vnode count
(tests/fleet/test_ring.py).

Hashing is ``blake2b`` (stdlib, keyed by nothing) rather than Python's
``hash``: placement must be identical across processes, interpreter
versions, and ``PYTHONHASHSEED`` — every router must agree on who owns
stage 0x2A without talking to each other.

Every mutation bumps :attr:`HashRing.version`, and routed frames are
attributable to the version that placed them, so reroute accounting
("stages moved on join") is exact rather than inferred.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual points per node.  128 keeps the movement bound under 1.5/N
#: for small fleets (the regime this repo's loopback fleets run in)
#: while a full ring rebuild stays ~microseconds.
DEFAULT_VNODES = 128

_STAGE_SPACE = 256


def _point(data: bytes) -> int:
    """A stable 64-bit position on the circle."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "little"
    )


class HashRing:
    """Deterministic ``stage byte -> node`` placement with vnodes.

    Parameters
    ----------
    nodes:
        Initial node ids (order-insensitive; placement depends only on
        the set).
    vnodes:
        Virtual points per node.  More vnodes smooth the arcs (tighter
        movement bound, better balance) at linear rebuild cost.
    """

    def __init__(self, nodes: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.vnodes = vnodes
        self.version = 0
        self._nodes: Dict[str, None] = {}
        self._points: List[Tuple[int, str]] = []
        self._table: Optional[List[str]] = None
        for node_id in nodes:
            self.add(node_id)

    # -- membership -----------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Current node ids, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add(self, node_id: str) -> bool:
        """Add a node; True if it was new.  Bumps :attr:`version`."""
        if node_id in self._nodes:
            return False
        self._nodes[node_id] = None
        for i in range(self.vnodes):
            point = _point(f"{node_id}#{i}".encode("utf-8"))
            self._points.append((point, node_id))
        self._points.sort()
        self._table = None
        self.version += 1
        return True

    def remove(self, node_id: str) -> bool:
        """Remove a node; True if it was present.  Bumps :attr:`version`."""
        if node_id not in self._nodes:
            return False
        del self._nodes[node_id]
        self._points = [entry for entry in self._points if entry[1] != node_id]
        self._table = None
        self.version += 1
        return True

    # -- placement ------------------------------------------------------------
    def owner(self, stage_id: int) -> str:
        """The node owning ``stage_id`` (clockwise-successor rule).

        Raises ``LookupError`` on an empty ring — routing with nobody
        to route to is a caller bug, not a placement question.
        """
        if not self._points:
            raise LookupError("empty ring: no nodes to own stages")
        point = _point(bytes([stage_id & 0xFF]))
        index = bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0  # wrap: the circle's first vnode succeeds the last
        return self._points[index][1]

    def table(self) -> List[str]:
        """``owner`` precomputed for every stage byte (0..255), cached."""
        if self._table is None:
            self._table = [self.owner(stage_id) for stage_id in range(_STAGE_SPACE)]
        return self._table

    def index_table(self) -> List[int]:
        """:meth:`table` as positions in :attr:`nodes`: the worker-index
        table :func:`~repro.shard.partition.route_payload` routes by."""
        order = {node_id: index for index, node_id in enumerate(self.nodes)}
        return [order[owner] for owner in self.table()]

    def ownership(self) -> Dict[str, int]:
        """``node -> owned stage-byte count`` (balance introspection)."""
        counts = {node_id: 0 for node_id in self._nodes}
        for owner in self.table():
            counts[owner] += 1
        return counts

    @staticmethod
    def moved(before: Sequence[str], after: Sequence[str]) -> List[int]:
        """Stage bytes whose owner differs between two tables."""
        return [
            stage_id
            for stage_id in range(min(len(before), len(after)))
            if before[stage_id] != after[stage_id]
        ]
