"""Seeded input generator: compact task scripts and the frames built from them.

``--seed`` is the only source of randomness.  A script is a handful of
parallel numpy arrays (host, stage, shape index, start, duration) in
*arrival order*; the program under test only ever sees what is derived
from one: scripted tracker calls (``node_to_event``) or wire frames
built with the public :func:`repro.core.encode_frame`.  Nothing here
holds a per-task Python object for longer than one frame.

Every trace carries one fault phase (see :data:`FAULT_S`) so the oracle
event list is never empty and the equality check is not vacuous.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.core import TaskSynopsis, encode_frame

HOSTS = 4
#: Share of a stage's tasks taking each trained flow, most common first.
#: The last flow stays under the model's 1 % flow-outlier cut.
SHAPE_WEIGHTS = (0.70, 0.15, 0.08, 0.04, 0.025, 0.005)
#: Event-time origin: a real wall-clock epoch (the wire timestamp is
#: 64-bit precisely so these round-trip).
T0_MS = 1_700_000_000_000
#: The fault phase lasts this long in event time ...
FAULT_S = 90.0
#: ... and within it, on one (host, stage), this share of tasks runs
#: ``FAULT_SLOWDOWN`` times long (a contextual, performance anomaly) ...
FAULT_SLOW_SHARE = 0.50
FAULT_SLOWDOWN = 6
#: ... and this share takes a truncated flow never seen in training
#: (a point, flow anomaly).
FAULT_TRUNCATED_SHARE = 0.15
#: Visit count of a flow's first, second, ... log point.
VISITS = (4, 3, 2, 1, 2, 1, 2, 1)


@dataclass(frozen=True)
class Spec:
    """The shape of one workload's input."""

    name: str
    #: Tasks in one pass.
    tasks: int
    stages: int
    window_s: float
    #: Event time one pass spans; fixed, so ``--quick`` thins windows
    #: instead of removing them.
    span_s: float
    #: Synopses per wire frame.
    frame: int
    train_tasks: int
    lateness_s: float = 0.0
    #: Share of tasks arriving up to one second of event time late.
    late_share: float = 0.0
    #: Tasks of the warm-up pass, of every traced pass and of the layer
    #: probes (rounded up to whole frames).
    prefix: int = 30_000


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="node_to_event",
            tasks=150_000,
            stages=8,
            window_s=30.0,
            span_s=300.0,
            frame=64,
            train_tasks=60_000,
        ),
        Spec(
            name="analyzer_bulk",
            tasks=500_000,
            stages=8,
            window_s=30.0,
            span_s=510.0,
            frame=4096,
            train_tasks=60_000,
        ),
        Spec(
            name="analyzer_churn",
            tasks=300_000,
            stages=128,
            window_s=2.0,
            span_s=150.0,
            frame=64,
            train_tasks=100_000,
            lateness_s=2.0,
            late_share=0.02,
        ),
        Spec(
            name="ingest_paced",
            tasks=160_000,
            stages=8,
            window_s=30.0,
            span_s=300.0,
            frame=64,
            train_tasks=60_000,
        ),
        Spec(
            name="pool_scaleout",
            tasks=500_000,
            stages=128,
            window_s=30.0,
            span_s=510.0,
            frame=4096,
            train_tasks=100_000,
        ),
    )
}


def scaled(spec: Spec, scale: float) -> Spec:
    """``spec`` with its task counts multiplied by ``scale`` (``--quick``)."""
    if scale == 1.0:
        return spec
    return replace(
        spec,
        tasks=max(2 * spec.frame, int(spec.tasks * scale)),
        train_tasks=max(5_000, int(spec.train_tasks * scale)),
        prefix=int(spec.prefix * scale),
    )


@dataclass
class Script:
    """Tasks in arrival order, one array element per task."""

    host: np.ndarray  # uint8
    stage: np.ndarray  # uint8
    #: Index into ``shapes[stage]``; indices >= len(SHAPE_WEIGHTS) are
    #: the truncated fault flows.
    shape: np.ndarray  # uint8
    start_ms: np.ndarray  # int64, event time
    dur_us: np.ndarray  # int64
    #: Per-host running task number, as a node's tracker assigns it.
    uid: np.ndarray  # int64
    #: Per stage, the log-point dict (lpid -> visit count) of each flow.
    shapes: List[List[Dict[int, int]]]

    def __len__(self) -> int:
        return len(self.host)

    def digest(self) -> int:
        """CRC of every array: equal seeds must give equal scripts."""
        crc = 0
        for array in (self.host, self.stage, self.shape, self.start_ms, self.dur_us):
            crc = zlib.crc32(array.tobytes(), crc)
        return zlib.crc32(repr(self.shapes).encode(), crc)


def _rng(spec: Spec, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(spec.name.encode()), stream])


def _shapes(spec: Spec, seed: int) -> List[List[Dict[int, int]]]:
    """Per stage: the trained flows, then one truncated variant of each.

    Flow ``i`` visits ``3 + i`` distinct log points, the first ones
    several times (:data:`VISITS`): nine log calls on the common flow,
    about ten on average.  Only *which* log points a flow visits depends
    on the seed, never how many, so every seed costs the same work.  A
    truncated variant keeps the first two log points, a set no trained
    flow has.
    """
    rng = _rng(spec, seed, 0)
    shapes = []
    for stage in range(spec.stages):
        base = stage * 40
        flows = []
        for i in range(len(SHAPE_WEIGHTS)):
            lpids = np.sort(rng.choice(30, size=3 + i, replace=False)) + base
            flows.append({int(lp): visits for lp, visits in zip(lpids, VISITS)})
        flows += [dict(list(flow.items())[:2]) for flow in flows]
        shapes.append(flows)
    return shapes


def make_script(spec: Spec, seed: int, training: bool = False) -> Script:
    """The seeded script of one pass (or of the fault-free training trace)."""
    n = spec.train_tasks if training else spec.tasks
    rng = _rng(spec, seed, 2 if training else 1)
    span_ms = int(spec.span_s * 1000)
    host = rng.integers(0, HOSTS, n).astype(np.uint8)
    stage = rng.integers(0, spec.stages, n).astype(np.uint8)
    shape = rng.choice(len(SHAPE_WEIGHTS), n, p=SHAPE_WEIGHTS).astype(np.uint8)
    start_ms = T0_MS + np.sort(rng.integers(0, span_ms, n))
    dur_us = (10_000 * rng.lognormal(0.0, 0.3, n)).astype(np.int64)
    if not training:
        fault_host = int(rng.integers(0, HOSTS))
        fault_stage = int(rng.integers(0, spec.stages))
        fault_from = T0_MS + span_ms // 3
        hit = (
            (host == fault_host)
            & (stage == fault_stage)
            & (start_ms >= fault_from)
            & (start_ms < fault_from + int(FAULT_S * 1000))
        )
        draw = rng.random(n)
        dur_us[hit & (draw < FAULT_SLOW_SHARE)] *= FAULT_SLOWDOWN
        truncated = hit & (draw >= 1.0 - FAULT_TRUNCATED_SHARE)
        shape[truncated] += len(SHAPE_WEIGHTS)
        if spec.late_share:
            late = rng.random(n) < spec.late_share
            arrival = start_ms + late * rng.integers(0, 1000, n)
            order = np.argsort(arrival, kind="stable")
            host, stage, shape = host[order], stage[order], shape[order]
            start_ms, dur_us = start_ms[order], dur_us[order]
    uid = np.empty(n, dtype=np.int64)
    for h in range(HOSTS):
        mine = host == h
        uid[mine] = np.arange(int(mine.sum()))
    return Script(host, stage, shape, start_ms, dur_us, uid, _shapes(spec, seed))


def synopses(script: Script, lo: int = 0, hi: int = None) -> List[TaskSynopsis]:
    """Tasks ``lo:hi`` of the script as the program's own synopsis objects.

    Start and duration are the values the wire decoder yields for the
    same fields, so object and frame consumers see identical numbers.
    """
    hi = len(script) if hi is None else hi
    shapes = script.shapes
    return [
        TaskSynopsis(host, stage, uid, start / 1000.0, dur / 1_000_000.0, shapes[stage][shape])
        for host, stage, uid, start, dur, shape in zip(
            script.host[lo:hi].tolist(),
            script.stage[lo:hi].tolist(),
            script.uid[lo:hi].tolist(),
            script.start_ms[lo:hi].tolist(),
            script.dur_us[lo:hi].tolist(),
            script.shape[lo:hi].tolist(),
        )
    ]


def frames(script: Script, frame: int, lo: int = 0, hi: int = None) -> List[bytes]:
    """Tasks ``lo:hi`` as wire frames of ``frame`` synopses each."""
    hi = len(script) if hi is None else hi
    return [
        encode_frame(synopses(script, at, min(at + frame, hi)))
        for at in range(lo, hi, frame)
    ]
