"""Stage-sharded parallel analyzer (scale-out of the paper's Sec. 3 design).

Every statistic the analyzer keeps is keyed by ``(host, stage)``, which
makes the detection stage embarrassingly partitionable: route each
stage's synopses to one worker and N workers reproduce a single
detector's event set exactly.  This package provides the pieces —

* :mod:`~repro.shard.partition` — the pool's ``stage -> shard`` table
  (the decode-free byte router it feeds,
  :func:`~repro.core.columnar.route_payload`, is re-exported here),
* :mod:`~repro.shard.worker` — the spawn-safe worker process,
* :mod:`~repro.shard.coordinator` — :class:`ShardedAnalyzer`, the
  parent-side router/merger,
* :mod:`~repro.shard.server` — asyncio TCP ingest so node streams can
  ship frames over a socket, with credit-based backpressure, read
  pausing, and AIMD-adaptive client batching,
* :mod:`~repro.shard.shedding` — priority-aware load shedding for the
  ingest edge (drop head-sampled frames before anomaly evidence).

See DESIGN.md §12 for the partition/merge data flow and §15 for the
ingest-edge overload design (docs/OPERATIONS.md §8 is the operator
playbook).
"""

from repro.core.columnar import route_payload

from .coordinator import EVENT_ORDER, ShardedAnalyzer, ShardWorkerError
from .partition import shard_table
from .server import AdaptiveFlush, FrameClient, SynopsisServer
from .shedding import (
    PRIORITY_EXEMPLAR,
    PRIORITY_NAMES,
    PRIORITY_SAMPLED,
    LoadShedder,
)
from .worker import KeyPinner, WorkerInit, worker_main

__all__ = [
    "EVENT_ORDER",
    "PRIORITY_EXEMPLAR",
    "PRIORITY_NAMES",
    "PRIORITY_SAMPLED",
    "AdaptiveFlush",
    "FrameClient",
    "KeyPinner",
    "LoadShedder",
    "ShardWorkerError",
    "ShardedAnalyzer",
    "SynopsisServer",
    "WorkerInit",
    "route_payload",
    "shard_table",
    "worker_main",
]
