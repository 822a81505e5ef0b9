"""Layer probes: public functions timed alone on a workload's own inputs.

Spans can only split costs at callables the benchmark hands across a
boundary.  What no wrapper can reach (``TaskSynopsis.encode`` inside
``SynopsisStream.sink``, ``scan_frames`` inside ``observe_batch``, the
tracker's three entry points, ...) is timed here by calling the public
function directly on the first ``runner.prefix`` tasks of the workload,
in its frame size.  Every figure is the median of :data:`REPEATS` runs,
per task unless its name says otherwise.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from repro.core import (
    AnomalyDetector,
    OutlierModel,
    TaskExecutionTracker,
    compile_model,
    decode_columns,
    decode_frame,
    encode_frame,
    proportion_exceeds_test,
)
from repro.core.columnar import scan_frames
from repro.core.synopsis import FRAME_HEADER
from repro.shard import route_payload, shard_table
from repro.telemetry import NULL_REGISTRY

from .runners import POOL_SHARDS, Runner, log_calls
from .workloads import frames, synopses

REPEATS = 3


def _median_s(run: Callable[[], None]) -> float:
    """Median wall seconds of ``REPEATS`` calls of ``run``."""
    times = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        run()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def _tracker(runner: Runner, n: int) -> Dict[str, float]:
    """The tracker's three entry points, stamped around each call group."""
    script = runner.script
    calls = log_calls(script.shapes)
    rows = list(
        zip(script.stage[:n].tolist(), script.shape[:n].tolist(), script.start_ms[:n].tolist())
    )
    clock_now = [0.0]
    samples: List[List[float]] = [[], [], []]
    log_calls_made = sum(len(calls[stage][shape]) for stage, shape, _ in rows)
    for _ in range(REPEATS):
        tracker = TaskExecutionTracker(
            host_id=0, clock=lambda: clock_now[0], registry=NULL_REGISTRY
        )
        set_context, on_log, end_task = tracker.set_context, tracker.on_log, tracker.end_task
        opened = logged = ended = 0
        stamp = time.perf_counter_ns
        for stage, shape, start_ms in rows:
            clock_now[0] = start_ms / 1000.0
            t0 = stamp()
            set_context(stage)
            t1 = stamp()
            for call in calls[stage][shape]:
                on_log(call)
            t2 = stamp()
            end_task()
            t3 = stamp()
            opened += t1 - t0
            logged += t2 - t1
            ended += t3 - t2
        samples[0].append(opened / n)
        samples[1].append(logged / log_calls_made)
        samples[2].append(ended / n)
    return {
        "tracker.set_context_ns": statistics.median(samples[0]),
        "tracker.on_log_ns": statistics.median(samples[1]),
        "tracker.finalize_ns": statistics.median(samples[2]),
    }


def layer_probes(runner: Runner) -> Dict[str, float]:
    """Every probe metric for ``runner``'s workload."""
    spec, model, config = runner.spec, runner.model, runner.config
    n = runner.prefix
    per_frame = spec.frame
    objects = synopses(runner.script, 0, n)
    batch = frames(runner.script, per_frame, 0, n)
    blob = b"".join(batch)
    ns = 1e9 / n
    out = _tracker(runner, n)

    out["synopsis.encode_ns"] = _median_s(lambda: [s.encode() for s in objects]) * ns
    out["synopsis.encode_frame_ns"] = (
        _median_s(
            lambda: [encode_frame(objects[at : at + per_frame]) for at in range(0, n, per_frame)]
        )
        * ns
    )
    out["synopsis.decode_frame_ns"] = _median_s(lambda: [decode_frame(f) for f in batch]) * ns
    out["synopsis.bytes_per_task"] = len(blob) / n

    out["columnar.scan_frames_ns"] = _median_s(lambda: scan_frames(blob)) * ns
    out["columnar.decode_columns_ns"] = _median_s(lambda: decode_columns(blob)) * ns
    out["columnar.compile_model_ms"] = (
        _median_s(lambda: compile_model(model, registry=NULL_REGISTRY)) * 1e3
    )

    def fresh(lateness_s: float = spec.lateness_s) -> AnomalyDetector:
        detector = AnomalyDetector(model, config, lateness_s=lateness_s)
        detector.compiled_model()
        return detector

    def scalar() -> None:
        observe = fresh().observe
        for synopsis in objects:
            observe(synopsis)

    def per_frame_scalar() -> None:
        observe_frame = fresh().observe_frame
        for frame in batch:
            observe_frame(frame)

    def per_frame_batch() -> None:
        observe_batch = fresh().observe_batch
        for frame in batch:
            observe_batch(frame)

    out["detector.observe_ns"] = _median_s(scalar) * ns
    out["detector.observe_frame_ns"] = _median_s(per_frame_scalar) * ns
    batch_s = _median_s(per_frame_batch)
    out["detector.observe_batch_ns"] = batch_s * ns
    out["detector.observe_batch_us_per_frame"] = batch_s / len(batch) * 1e6

    # A detector loaded under unbounded lateness closes nothing until
    # flush(), so the timed flush is window closes and nothing else.
    flush_s, windows = [], 0
    for _ in range(REPEATS):
        loaded = fresh(lateness_s=float("inf"))
        loaded.observe_batch(blob)
        began = time.perf_counter()
        loaded.flush()
        flush_s.append(time.perf_counter() - began)
        windows = loaded.windows_closed
    out["detector.flush_ms"] = statistics.median(flush_s) * 1e3
    out["detector.close_us_per_window"] = statistics.median(flush_s) / max(1, windows) * 1e6

    training = synopses(runner.training)
    out["model.train_ms"] = (
        _median_s(lambda: OutlierModel(config, registry=NULL_REGISTRY).train(training)) * 1e3
    )
    parts = [((s.host_id, s.stage_id), s.signature, s.duration) for s in objects]
    classify = model.classify_parts
    out["model.classify_parts_ns"] = (
        _median_s(lambda: [classify(key, sig, duration) for key, sig, duration in parts]) * ns
    )
    grid = [(k % 40, 40 + k % 400, 0.01 + (k % 7) / 100) for k in range(2_000)]
    out["stats.proportion_test_ns"] = (
        _median_s(
            lambda: [proportion_exceeds_test(o, total, p, config.alpha) for o, total, p in grid]
        )
        * 1e9
        / len(grid)
    )

    table = shard_table(POOL_SHARDS)
    head = FRAME_HEADER.size

    def route() -> None:
        buckets = [[] for _ in range(POOL_SHARDS)]
        for frame in batch:
            route_payload(frame, head, len(frame), table, buckets)

    out["partition.route_payload_ns"] = _median_s(route) * ns
    return out
