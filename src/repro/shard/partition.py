"""Stage partitioning for the sharded analyzer.

The paper's analyzer is stage-partitionable by construction (Middleware
'14 Sec. 3): every statistic the detector keeps — window buckets,
signature profiles, proportion tests — is keyed by ``(host, stage)``,
and a task's stage id travels in its wire synopsis's header.  Routing
``stage_id -> shard`` therefore never has to decode a synopsis: the
coordinator scans frame bytes, reads the stage byte and the entry count
byte, and slices each encoded synopsis straight into its shard's output
buffer (:func:`repro.core.columnar.route_payload`, beside the frame
scanner: ``repro.core`` alone knows the record layout).

Placement is a consistent-hash ring (:class:`~repro.fleet.ring.HashRing`)
over the pool's worker ids, the same placement the analyzer fleet
routes by; :func:`shard_table` flattens it into the 256-entry table
the routing scan indexes.
"""

from __future__ import annotations

from typing import List


def pool_ring(shards: int):
    """The ring a default ``ShardedAnalyzer(model, shards)`` places by:
    a :class:`~repro.fleet.ring.HashRing` over ``shard-0 .. shard-N-1``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    # Imported lazily: repro.fleet's package init reaches back into
    # repro.shard, so a module-level import would cycle.
    from repro.fleet.ring import HashRing

    return HashRing(f"shard-{i}" for i in range(shards))


def shard_table(shards: int) -> List[int]:
    """The stage-byte -> worker-index table a default
    ``ShardedAnalyzer(model, shards)`` routes by (0..255 -> 0..N-1).

    Deterministic across processes and runs: every task of one stage
    lands on one shard, so per-stage windows and tests never straddle
    workers.
    """
    return pool_ring(shards).index_table()
