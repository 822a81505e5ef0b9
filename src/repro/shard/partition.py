"""Stage partitioning for the sharded analyzer.

The paper's analyzer is stage-partitionable by construction (Middleware
'14 Sec. 3): every statistic the detector keeps — window buckets,
signature profiles, proportion tests — is keyed by ``(host, stage)``,
and a task's stage id travels in byte 1 of its wire synopsis.  Routing
``stage_id -> shard`` therefore never has to decode a synopsis: the
coordinator scans frame bytes, reads the stage byte and the entry count
byte, and slices each encoded synopsis straight into its shard's output
buffer.

Placement is a consistent-hash ring (:class:`~repro.fleet.ring.HashRing`)
over the pool's worker ids, the same placement the analyzer fleet
routes by; :func:`shard_table` flattens it into the 256-entry table
the routing scan indexes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.synopsis import SYNOPSIS_ENTRY, SYNOPSIS_HEADER

#: Wire offsets the routing scan reads (see ``repro.core.synopsis``):
#: byte 1 is the stage id, the last header byte is the entry count.
_HEADER_SIZE = SYNOPSIS_HEADER.size
_ENTRY_SIZE = SYNOPSIS_ENTRY.size
_STAGE_OFFSET = 1
_COUNT_OFFSET = _HEADER_SIZE - 1


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


def route_payload(
    payload: bytes,
    offset: int,
    end: int,
    table: Sequence[int],
    buckets: Sequence[List[bytes]],
) -> List[int]:
    """Route the encoded synopses in ``payload[offset:end]`` by stage.

    The coordinator's hot loop: for each synopsis, read the stage byte,
    look up its shard in ``table`` (from :func:`shard_table`), and
    append the synopsis's raw byte slice to ``buckets[shard]`` — no
    decoding, no object materialization.  Returns the number of
    synopses appended per shard.  Raises ``ValueError`` when the range
    does not hold a whole number of synopses.
    """
    counts = [0] * len(buckets)
    header_size = _HEADER_SIZE
    entry_size = _ENTRY_SIZE
    stage_off = _STAGE_OFFSET
    count_off = _COUNT_OFFSET
    while offset < end:
        if end - offset < header_size:
            raise ValueError("truncated synopsis header")
        stop = offset + header_size + entry_size * payload[offset + count_off]
        if stop > end:
            raise ValueError("truncated synopsis log point entries")
        shard = table[payload[offset + stage_off]]
        buckets[shard].append(payload[offset:stop])
        counts[shard] += 1
        offset = stop
    return counts
