"""Overhead guardrails: telemetry and tracing on the detection hot path.

The paper's pitch is that SAAD is "extremely light-weight" (Fig. 7), so
the observability this reproduction adds must not eat the analyzer's
budget.  Three legs run the same synthetic million-task trace through
``AnomalyDetector.observe``:

* **unmetered** — ``NULL_REGISTRY`` (telemetry disabled);
* **metered** — a real ``MetricsRegistry``, the default everywhere;
* **traced** — metered plus a live ``Tracer`` (exemplar candidate
  tracking and pinning on window close).

The metered leg must stay within ``MAX_TELEMETRY_OVERHEAD_PCT`` of the
unmetered one, and the traced leg within ``MAX_TRACING_OVERHEAD_PCT``
of the metered one.  The legs alternate after a discarded warm-up pass
and each keeps its median of ``LEG_REPEATS`` runs, so a single quiet
scheduler slice cannot drive a measured overhead negative.

Throughput itself is measured by ``python -m bench`` (bench/README.md);
this file asserts ratios only and writes no file.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_overhead.py -q
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

import pytest

from repro.core import AnomalyDetector, OutlierModel, SAADConfig, TaskSynopsis
from repro.telemetry import NULL_REGISTRY
from repro.tracing import Tracer

pytestmark = pytest.mark.slow

HOSTS = 4
STAGES = 8

TRAIN_TASKS = 200_000
DETECT_TASKS = 1_000_000

#: Guardrail: default-on telemetry may cost at most this much of detect
#: throughput versus the NULL_REGISTRY fast path.
MAX_TELEMETRY_OVERHEAD_PCT = 5.0

#: Guardrail: a live tracer (exemplar tracking + pinning) may cost at
#: most this much of detect throughput versus the metered leg.
MAX_TRACING_OVERHEAD_PCT = 5.0

#: Alternating repetitions per leg; each side keeps its median, after
#: one discarded warm-up pass primes caches and the allocator.  Medians
#: (not minima) keep one lucky scheduler slice on either side from
#: pushing a measured overhead negative.
LEG_REPEATS = 5


def _stage_shapes(
    rng: random.Random,
) -> Dict[int, List[Tuple[Dict[int, int], float]]]:
    """Per stage: (shared log_points dict, cumulative weight) shapes."""
    shapes: Dict[int, List[Tuple[Dict[int, int], float]]] = {}
    weights = [0.70, 0.15, 0.08, 0.04, 0.02, 0.01]
    for stage in range(STAGES):
        base = stage * 40
        stage_shapes = []
        cumulative = 0.0
        for i, weight in enumerate(weights):
            lps = sorted(rng.sample(range(base, base + 30), 4 + i))
            cumulative += weight
            stage_shapes.append(({lp: 1 + (lp % 3) for lp in lps}, cumulative))
        shapes[stage] = stage_shapes
    return shapes


def _make_trace(n: int, shapes, rng: random.Random) -> List[TaskSynopsis]:
    """``n`` synopses at 2000 tasks/s over HOSTS x STAGES keys.

    Log-point dicts are *shared* between synopses of the same shape, as
    they would be after batch decoding from a handful of code paths.
    """
    trace: List[TaskSynopsis] = []
    now = 0.0
    for uid in range(n):
        stage = rng.randrange(STAGES)
        draw = rng.random()
        for log_points, cumulative in shapes[stage]:
            if draw <= cumulative:
                break
        trace.append(
            TaskSynopsis(
                host_id=rng.randrange(HOSTS),
                stage_id=stage,
                uid=uid,
                start_time=now,
                duration=0.01 * rng.lognormvariate(0.0, 0.3),
                log_points=log_points,
            )
        )
        now += 1.0 / 2000.0
    return trace


def test_telemetry_and_tracing_overhead():
    shapes = _stage_shapes(random.Random(1234))
    config = SAADConfig(window_s=30.0, min_window_tasks=8)
    model = OutlierModel(config).train(
        _make_trace(TRAIN_TASKS, shapes, random.Random(7))
    )
    assert model.trained and len(model.stages) == HOSTS * STAGES
    trace = _make_trace(DETECT_TASKS, shapes, random.Random(21))

    def run_leg(registry, tracer=None) -> float:
        # Every repetition pays the same interning cost on the shared trace.
        for synopsis in trace:
            synopsis._signature = None
        detector = AnomalyDetector(model, config, registry=registry, tracer=tracer)
        observe = detector.observe
        start = time.perf_counter()
        for synopsis in trace:
            observe(synopsis)
        detector.flush()
        seconds = time.perf_counter() - start
        assert detector.tasks_seen == DETECT_TASKS
        return seconds

    # Wall-clock noise on a shared box runs ~+-10% per 2 s leg, far
    # above the overhead being measured, so the warm-up pass absorbs
    # first-run costs (page faults, allocator growth) that would
    # otherwise land on whichever leg runs first, then the legs
    # alternate.
    run_leg(NULL_REGISTRY)
    unmetered: List[float] = []
    metered: List[float] = []
    traced: List[float] = []
    for _ in range(LEG_REPEATS):
        unmetered.append(run_leg(NULL_REGISTRY))
        metered.append(run_leg(None))
        traced.append(run_leg(None, tracer=Tracer(registry=NULL_REGISTRY)))
    unmetered_s = statistics.median(unmetered)
    metered_s = statistics.median(metered)
    traced_s = statistics.median(traced)

    telemetry_pct = 100.0 * (1.0 - unmetered_s / metered_s)
    tracing_pct = 100.0 * (1.0 - metered_s / traced_s)
    assert telemetry_pct <= MAX_TELEMETRY_OVERHEAD_PCT, (
        f"telemetry overhead {telemetry_pct:.1f}% exceeds the "
        f"{MAX_TELEMETRY_OVERHEAD_PCT}% budget (metered {metered_s:.3f} s "
        f"vs unmetered {unmetered_s:.3f} s, median of {LEG_REPEATS})"
    )
    assert tracing_pct <= MAX_TRACING_OVERHEAD_PCT, (
        f"tracing overhead {tracing_pct:.1f}% exceeds the "
        f"{MAX_TRACING_OVERHEAD_PCT}% budget (traced {traced_s:.3f} s "
        f"vs metered {metered_s:.3f} s, median of {LEG_REPEATS})"
    )
