"""One benchmark run: a workload, a seed, a length, traced or not.

``untraced`` measures the end-to-end metrics with no span recorder
anywhere; ``traced`` measures the per-layer metrics — span self times
from wrapped passes over the first 30k tasks, the layer probes, and the
readings only one workload has (paced latencies, pool reference and
fleet pass).  Both check every event list against the scalar oracle.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List

from repro.core import AnomalyDetector
from repro.fleet import AnalyzerFleet

from . import BENCH_DIR
from .oracle import MIN_ORACLE_EVENTS, failed_ops, replay
from .probes import layer_probes
from .runners import (
    REFERENCE_S,
    Pass,
    PoolRunner,
    Runner,
    make_runner,
    reference_loop,
)
from .spans import SpanRecorder
from .workloads import Spec

#: The program's set-up is repeated this often; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Reference loops timed on each side of one set-up.
SETUP_HOST_SAMPLES = 5
#: Layer self times must add up to the traced pass's wall time this closely.
SPAN_SUM_TOLERANCE_PCT = 2.0

#: Span layer -> the metric its self time is reported as: per task in
#: ns, except the pool's close, a once-per-pass cost in ms.
SPAN_METRICS = {
    "bench.driver": "bench.driver_self_ns",
    "tracker.task": "tracker.self_ns",
    "stream.sink": "stream.sink_self_ns",
    "stream.flush": "stream.sink_self_ns",
    "collector.feed": "collector.feed_self_ns",
    "detector.observe_batch": "detector.self_ns",
    "detector.flush": "detector.self_ns",
    "detector.on_event": "detector.on_event_self_ns",
    "server.sink": "server.sink_self_ns",
    "server.transport": "server.transport_self_ns",
    "coordinator.dispatch_frame": "coordinator.dispatch_ns",
    "coordinator.close": "coordinator.merge_ms",
}


def _freeze() -> None:
    """Take what exists so far out of the garbage collector's sight.

    The inputs (frames, scripts, the trained model) are the benchmark's
    ballast, not garbage the program made; left in place, every full
    collection during a timed pass walks them, and pass times swing by
    tens of percent with where those collections happen to land.
    """
    gc.collect()
    gc.freeze()


def _median_extras(passes: List[Pass]) -> Dict[str, float]:
    keys = {key for one in passes for key in one.extra}
    return {
        key: statistics.median(one.extra[key] for one in passes if key in one.extra)
        for key in keys
    }


def _check(runner: Runner, passes: List[Pass], lo: int, hi: int, min_events: int):
    """(attempted, failed) of ``passes`` over tasks ``lo:hi`` against the oracle."""
    oracle = replay(
        runner.model, runner.config, runner.spec.lateness_s, runner.frames_of(lo, hi)
    )
    failed = sum(failed_ops(one.ledger, oracle) for one in passes)
    if len(oracle) < min_events:
        failed += 1
    return sum(one.ledger.offered for one in passes), failed, len(oracle)


def untraced(spec: Spec, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one run."""
    began = time.perf_counter()
    runner = make_runner(spec, seed, seconds, traced=False)
    generate_s = time.perf_counter() - began
    try:
        setups, setup_slowdown = [], []
        for _ in range(SETUP_REPEATS):
            samples = [reference_loop() for _ in range(SETUP_HOST_SAMPLES)]
            began = time.perf_counter()
            runner.setup()
            setups.append(time.perf_counter() - began)
            samples += [reference_loop() for _ in range(SETUP_HOST_SAMPLES)]
            setup_slowdown.append(statistics.fmean(samples) / REFERENCE_S)
        _freeze()
        total = len(runner.script)
        passes: List[Pass] = []
        began = time.perf_counter()
        while len(passes) < runner.min_passes or time.perf_counter() - began < seconds:
            passes.append(runner.full_pass())
        # Read before the oracle builds its per-task objects.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, oracle_events = _check(
            runner, passes, 0, total, MIN_ORACLE_EVENTS
        )
    finally:
        runner.close()
    series = {
        "tasks_per_s": [one.tasks / one.wall_s * one.slowdown_x for one in passes],
        "cpu_us_per_task": [one.cpu_s / one.tasks * 1e6 / one.slowdown_x for one in passes],
        "wire_bytes_per_task": [one.wire_bytes / one.tasks for one in passes],
        "setup_s": [raw / slow for raw, slow in zip(setups, setup_slowdown)],
        "raw.setup_s": setups,
        "raw.tasks_per_s": [one.tasks / one.wall_s for one in passes],
        "raw.cpu_us_per_task": [one.cpu_s / one.tasks * 1e6 for one in passes],
        "host.slowdown_x": [one.slowdown_x for one in passes],
    }
    values = {name: statistics.median(raw) for name, raw in series.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values["failed_ops_share"] = failed / attempted
    values["bench.generate_s"] = generate_s
    values["oracle_events"] = oracle_events
    values.update(_median_extras(passes))
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "passes": series,
    }


def traced(spec: Spec, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one run."""
    began = time.perf_counter()
    runner = make_runner(spec, seed, seconds, traced=True)
    generate_s = time.perf_counter() - began
    try:
        began = time.perf_counter()
        runner.setup()
        setup_s = time.perf_counter() - began
        _freeze()
        n = runner.prefix
        plain: List[Pass] = []
        spanned: List[Pass] = []
        layer_ns: List[Dict[str, float]] = []
        sum_error_pct = 0.0
        began = time.perf_counter()
        while len(spanned) < 2 or time.perf_counter() - began < seconds / 2:
            # Alternate which side of the pair goes first.
            for with_spans in (False, True) if len(spanned) % 2 else (True, False):
                if not with_spans:
                    plain.append(runner.one_pass(0, n))
                    continue
                recorder = SpanRecorder()
                one = runner.one_pass(0, n, recorder)
                spanned.append(one)
                self_ns = recorder.self_times()
                sum_error_pct = max(
                    sum_error_pct,
                    abs(sum(self_ns.values()) / 1e9 - one.wall_s) / one.wall_s * 100,
                )
                layer_ns.append(self_ns)
        recorder.write(BENCH_DIR / "out" / f"spans-{spec.name}.json")
        attempted, failed, _ = _check(runner, plain + spanned, 0, n, 0)
        if sum_error_pct > SPAN_SUM_TOLERANCE_PCT:
            failed += 1

        values = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for layer, metric in SPAN_METRICS.items():
            samples = [ns[layer] for ns in layer_ns if layer in ns]
            if samples:
                per = 1e6 if metric.endswith("_ms") else n
                values[metric] += statistics.median(samples) / per
        # Pair by pair (the two passes of a pair ran back to back), so
        # drift over the run cancels instead of posing as overhead.
        values["trace_overhead_pct"] = statistics.median(
            (with_spans.wall_s - without.wall_s) / without.wall_s * 100
            for without, with_spans in zip(plain, spanned)
        )
        values["trace_span_sum_error_pct"] = sum_error_pct
        values["bench.generate_s"] = generate_s
        # The untraced passes of this run, un-normalised: the wall
        # clock as the host gave it, and how slow the host was.
        values["raw.tasks_per_s"] = statistics.median(one.tasks / one.wall_s for one in plain)
        values["raw.cpu_us_per_task"] = statistics.median(
            one.cpu_s / one.tasks * 1e6 for one in plain
        )
        values["raw.setup_s"] = setup_s
        values["host.slowdown_x"] = statistics.median(one.slowdown_x for one in plain)
        values.update(_median_extras(plain))
        values.update(layer_probes(runner))
        if spec.name == "ingest_paced":
            paced = runner.full_pass()
            more = _check(runner, [paced], 0, len(runner.script), MIN_ORACLE_EVENTS)
            attempted, failed = attempted + more[0], failed + more[1]
            values.update(paced.extra)
        if isinstance(runner, PoolRunner):
            more = _pool_readings(runner, values)
            attempted, failed = attempted + more[0], failed + more[1]
    finally:
        runner.close()
    return {"attempted": attempted, "failed": failed, "values": values, "passes": {}}


def _pool_readings(runner: PoolRunner, values: Dict[str, float]):
    """The pool against one process, and the fleet, on the same frames."""
    total = len(runner.script)
    pooled = runner.full_pass()
    detector = AnomalyDetector(runner.model, runner.config)
    detector.compiled_model()
    began = time.perf_counter()
    for frame in runner.frames:
        detector.observe_batch(frame)
    detector.flush()
    reference = detector.tasks_seen / (time.perf_counter() - began)
    values["pool.inproc_ref_tasks_per_s"] = reference
    values["pool.speedup_x"] = pooled.tasks / pooled.wall_s / reference
    values.update(pooled.extra)

    # The fleet's nodes are threads under one GIL, so a quarter of the
    # frames is plenty to read its (one-core) wall clock.
    quarter = runner.frames[: max(1, len(runner.frames) // 4)]
    tasks = min(len(quarter) * runner.spec.frame, total)
    dispatch_s = 0.0
    with AnalyzerFleet(runner.model, 2, config=runner.config) as fleet:
        began = time.perf_counter()
        for frame in quarter:
            entered = time.perf_counter()
            fleet.dispatch_frame(frame)
            dispatch_s += time.perf_counter() - entered
        fleet.close()
        wall = time.perf_counter() - began
    values["fleet.wall_tasks_per_s"] = tasks / wall
    values["fleet.router_dispatch_ns"] = dispatch_s / tasks * 1e9
    return _check(runner, [pooled], 0, total, MIN_ORACLE_EVENTS)[:2]
