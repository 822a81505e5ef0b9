"""The five workloads: how each is set up, driven for one pass, and traced.

A runner drives the program only through public entry points.  Its life:

``__init__``
    generate the seeded inputs (the benchmark's own cost);
``setup``
    the *program's* set-up — train, compile, start pool or server, one
    warm-up pass; the command repeats it and reports the median as
    ``setup_s``;
``one_pass``
    the timed section over tasks ``lo:hi``; with a
    :class:`~bench.spans.SpanRecorder` every callable crossing a layer
    boundary is wrapped first, without one the section samples the
    host's speed as it goes (see :class:`_Timed`);
``close``
    stop what the runner keeps running between passes.
"""

from __future__ import annotations

import json
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core import SAAD, AnomalyDetector, OutlierModel, SAADConfig
from repro.loglib import DEBUG
from repro.loglib.record import LogCall
from repro.shard import ShardedAnalyzer, SynopsisServer
from repro.telemetry import MetricsRegistry
from repro.tracing import Tracer

from . import REPO_ROOT, counter_total
from .oracle import Ledger
from .spans import SpanRecorder
from .workloads import HOSTS, Script, Spec, frames, make_script, synopses

POOL_SHARDS = 2
#: The open-loop rates of ``ingest_paced``, tasks per second.
PACED_RATE = 20_000
PACED_HIGH_RATE = 40_000
#: Closed loops sample the host's speed about every this many tasks.
HOST_SAMPLE_TASKS = 16_384


@dataclass
class Pass:
    """The measurements of one timed section."""

    ledger: Ledger
    #: Tasks the analyzer accounted inside the timed section.
    tasks: int
    wall_s: float
    #: User+system CPU of the process(es) running the system under test.
    cpu_s: float
    #: Frame bytes the analyzer side was offered.
    wire_bytes: int
    #: Host slowdown sampled during the section (1.0: the reference
    #: host, or a section that is not host-normalised).
    slowdown_x: float = 1.0
    #: Workload-specific readings, keyed by metric name.
    extra: Dict[str, float] = field(default_factory=dict)


def _cpu_s(children: bool = False) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


#: What :func:`reference_loop` takes on a quiet host of the class this
#: benchmark was sized on (2 vCPU Xeon 2.1 GHz, CPython 3.11).
REFERENCE_S = 0.003


def reference_loop() -> float:
    """Wall seconds of a fixed piece of interpreter work (ints and a dict)."""
    began = time.perf_counter()
    total, counts = 0, {}
    for i in range(30_000):
        total += i * i
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return time.perf_counter() - began


class _Timed:
    """The stopwatch of one timed section: wall, CPU, and (traced) its root span.

    The root span's stamps sit directly inside the wall stopwatch's, so
    "layer self times add up to the pass's wall time" compares two
    independent readings of the same interval.

    :meth:`sample_host` pauses the stopwatch for one
    :func:`reference_loop`; ``slowdown_x`` is then the mean of those
    samples over :data:`REFERENCE_S` — how slow the host ran *during
    this section*.
    """

    def __init__(self, recorder: Optional[SpanRecorder], layer: str = "bench.driver",
                 children: bool = False, sample_edges: bool = True):
        self.recorder = recorder
        self.layer = recorder.layer_id(layer) if recorder else 0
        #: Whether CPU time includes reaped child processes.
        self.children = children
        #: Whether entering and leaving the section samples the host.
        self.sample_edges = sample_edges
        self.wall_s = self.cpu_s = 0.0
        self._samples: List[float] = []
        self._running = False

    def __enter__(self) -> "_Timed":
        if self.sample_edges:
            self.sample_host()
        self._running = True
        self.cpu_s = -_cpu_s(self.children)
        self.wall_s = -time.perf_counter()
        if self.recorder:
            self._root = self.recorder.begin(self.layer)
        return self

    def sample_host(self) -> None:
        """Time one reference loop; a running stopwatch is paused for it."""
        if self.recorder:
            return  # a traced pass is not an end-to-end measurement
        if self._running:
            self.wall_s += time.perf_counter()
            self.cpu_s += _cpu_s(self.children)
        self._samples.append(reference_loop())
        if self._running:
            self.cpu_s -= _cpu_s(self.children)
            self.wall_s -= time.perf_counter()

    def __exit__(self, *exc) -> None:
        if self.recorder:
            self.recorder.end(self._root)
        self.wall_s += time.perf_counter()
        self.cpu_s += _cpu_s(self.children)
        self._running = False
        if self.sample_edges:
            self.sample_host()

    @property
    def slowdown_x(self) -> float:
        return statistics.fmean(self._samples) / REFERENCE_S if self._samples else 1.0


def _detector_readings(detector: AnomalyDetector, tasks: int) -> Dict[str, float]:
    """Counts a detector publishes, read from its public counters."""
    registry = detector.registry
    return {
        "detector.windows_closed": detector.windows_closed,
        "detector.events": len(detector.anomalies),
        "detector.columnar_tasks": counter_total(registry, "columnar_tasks"),
        "detector.fallback_task_share": counter_total(registry, "columnar_fallback_tasks")
        / max(1, tasks),
    }


def _ignore(event) -> None:
    """An ``on_event`` callback that exists only to be wrapped."""


def _stream_detector(saad: SAAD, recorder: Optional[SpanRecorder]) -> AnomalyDetector:
    """``saad.stream_detector()``, compiled; traced, the same wiring by
    hand so the callables crossing into the detector can be wrapped."""
    if recorder:
        detector = AnomalyDetector(
            saad.model,
            saad.config,
            registry=saad.registry,
            on_event=recorder.wrap("detector.on_event", _ignore),
        )
        saad.collector.subscribe_frames(
            recorder.wrap("detector.observe_batch", detector.observe_batch)
        )
    else:
        detector = saad.stream_detector()
    detector.compiled_model()
    return detector


def _wrapper(recorder: Optional[SpanRecorder]):
    """``recorder.wrap``, or the identity when the pass is untraced."""
    return recorder.wrap if recorder else (lambda name, fn: fn)


class Runner:
    """What the workloads share: inputs, training, the frame prefix."""

    #: An end-to-end run times at least this many full passes.
    min_passes = 3

    def __init__(self, spec: Spec, seed: int, preframed: bool = True):
        self.spec = spec
        self.config = SAADConfig(window_s=spec.window_s)
        self.script: Script = make_script(spec, seed)
        self.training: Script = make_script(spec, seed, training=True)
        self.model: Optional[OutlierModel] = None
        #: Tasks of the warm-up and traced passes: whole frames.
        self.prefix = min(-(-spec.prefix // spec.frame) * spec.frame, len(self.script))
        self.frames = frames(self.script, spec.frame) if preframed else []

    def train(self) -> OutlierModel:
        """Train on the fault-free trace, as a deployment does once."""
        self.model = OutlierModel(self.config).train(synopses(self.training))
        return self.model

    def setup(self) -> None:
        """The program's set-up: train, then one warm-up pass (which
        compiles, and starts and stops any pool, server or generator)."""
        self.train()
        self.one_pass(0, self.prefix)

    def one_pass(self, lo: int, hi: int, recorder: Optional[SpanRecorder] = None) -> Pass:
        raise NotImplementedError

    def full_pass(self) -> Pass:
        """The timed section of an end-to-end run: every task, untraced."""
        return self.one_pass(0, len(self.script))

    def frames_of(self, lo: int, hi: int) -> List[bytes]:
        """Tasks ``lo:hi`` as the frames the analyzer got, in that order."""
        per_frame = self.spec.frame
        return self.frames[lo // per_frame : -(-hi // per_frame)]

    def close(self) -> None:
        """Stop what a pass left running after an error."""


# -- pre-framed, in-process ---------------------------------------------------
class DetectorRunner(Runner):
    """``analyzer_bulk`` and ``analyzer_churn``: frames into ``observe_batch``.

    ``traced_deployment`` attaches a live :class:`~repro.tracing.Tracer`,
    the configuration of a deployment that keeps exemplar traces.
    """

    def __init__(self, spec: Spec, seed: int, traced_deployment: bool = False):
        super().__init__(spec, seed)
        self.traced_deployment = traced_deployment

    def detector(self, on_event=None) -> AnomalyDetector:
        """A fresh detector with its verdict tables already compiled."""
        detector = AnomalyDetector(
            self.model,
            self.config,
            lateness_s=self.spec.lateness_s,
            tracer=Tracer() if self.traced_deployment else None,
            on_event=on_event,
        )
        detector.compiled_model()
        return detector

    def one_pass(self, lo, hi, recorder=None) -> Pass:
        batch = self.frames_of(lo, hi)
        wrap = _wrapper(recorder)
        detector = self.detector(wrap("detector.on_event", _ignore) if recorder else None)
        observe_batch = wrap("detector.observe_batch", detector.observe_batch)
        flush = wrap("detector.flush", detector.flush)
        every = max(1, HOST_SAMPLE_TASKS // self.spec.frame)
        with _Timed(recorder) as timed:
            for number, frame in enumerate(batch):
                if recorder:
                    recorder.current = number
                elif not number % every:
                    timed.sample_host()
                observe_batch(frame)
            flush()
        observed = int(counter_total(detector.registry, "detector_tasks_observed"))
        return Pass(
            Ledger(min(hi, len(self.script)) - lo, observed, 0, detector.anomalies),
            tasks=observed,
            wall_s=timed.wall_s,
            cpu_s=timed.cpu_s,
            wire_bytes=sum(map(len, batch)),
            slowdown_x=timed.slowdown_x,
            extra=_detector_readings(detector, observed),
        )


def log_calls(shapes) -> List[List[List[LogCall]]]:
    """Per (stage, flow): the log calls of one task, in call order.

    Only the last call's time reaches the synopsis (duration = last log
    time - start), so the driver re-stamps that one and reuses the rest.
    """
    return [
        [
            [
                LogCall(lpid=lp, level=DEBUG, logger_name="bench", time=0.0)
                for lp, n in flow.items()
                for _ in range(n)
            ]
            for flow in flows
        ]
        for flows in shapes
    ]


# -- node side in the loop ----------------------------------------------------
class _Clock:
    """The scripted clock every node reads."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class NodeRunner(Runner):
    """``node_to_event``: scripted log calls on four nodes, to events.

    Four ``SAAD.add_node(wire_format=True)`` runtimes under deployed
    defaults, their streams' ``frame_sink`` delivering into the
    collector's ``feed`` and on into ``SAAD.stream_detector()``.  The
    collector's object-path subscription that ``add_node`` also makes
    is removed: one transport per collector, or every synopsis is
    delivered twice (the repository's own run notes say the same).
    """

    def __init__(self, spec: Spec, seed: int):
        super().__init__(spec, seed, preframed=False)
        # (lo, hi) -> the frames an untraced pass over that range flushed.
        self._captured: Dict[tuple, List[bytes]] = {}
        self.calls = log_calls(self.script.shapes)
        self.stage_names = [f"stage{stage}" for stage in range(spec.stages)]

    def one_pass(self, lo, hi, recorder=None) -> Pass:
        saad = SAAD(self.config)
        for name in self.stage_names:
            saad.stages.register(name)
        saad.model = self.model
        clock = _Clock()
        nodes = [
            saad.add_node(f"host{host}", clock=clock, wire_format=True)
            for host in range(HOSTS)
        ]
        wrap = _wrapper(recorder)
        detector = _stream_detector(saad, recorder)
        feed = saad.collector.feed
        capture = None if recorder or (lo, hi) in self._captured else []
        sink_s = [0.0]

        def timed_sink(frame: bytes) -> None:
            began = time.perf_counter()
            feed(frame)
            sink_s[0] += time.perf_counter() - began
            if capture is not None:
                capture.append(frame)

        frame_sink = wrap("collector.feed", feed) if recorder else timed_sink
        for node in nodes:
            node.stream.frame_sink = frame_sink
            node.stream.subscribers.clear()
            node.tracker.sink = wrap("stream.sink", node.stream.sink)
        flush = wrap("stream.flush", saad.collector.flush)
        with _Timed(recorder) as timed:
            self._drive(nodes, clock, lo, hi, recorder, timed.sample_host)
            flush()
            detector.flush()
        if capture is not None:
            self._captured[lo, hi] = capture
        registry = saad.registry
        tasks = int(counter_total(registry, "detector_tasks_observed"))
        wire_bytes = int(counter_total(registry, "stream_frame_bytes"))
        saad.close()
        extra = _detector_readings(detector, tasks)
        extra.update(
            {
                "tracker.tasks": counter_total(registry, "tracker_tasks_completed"),
                "tracker.log_calls": counter_total(registry, "tracker_log_calls_tracked"),
                "stream.frames": counter_total(registry, "stream_frames"),
                "stream.frame_bytes": wire_bytes,
                "collector.frames": counter_total(registry, "collector_frames"),
            }
        )
        if not recorder:
            # What tracking costs the instrumented server per task:
            # everything but the time spent inside the frame sink.
            extra["node_us_per_task"] = (timed.wall_s - sink_s[0]) / max(1, tasks) * 1e6
        return Pass(
            Ledger(hi - lo, tasks, 0, detector.anomalies),
            tasks=tasks,
            wall_s=timed.wall_s,
            cpu_s=timed.cpu_s,
            wire_bytes=wire_bytes,
            slowdown_x=timed.slowdown_x,
            extra=extra,
        )

    def _drive(self, nodes, clock, lo, hi, recorder, sample_host) -> None:
        """What an instrumented server does per task: open, log, end."""
        script, calls, names = self.script, self.calls, self.stage_names
        task_layer = recorder.layer_id("tracker.task") if recorder else 0
        for at in range(lo, hi, 4096):
            sample_host()
            stop = min(at + 4096, hi)
            rows = zip(
                script.host[at:stop].tolist(),
                script.stage[at:stop].tolist(),
                script.shape[at:stop].tolist(),
                script.start_ms[at:stop].tolist(),
                script.dur_us[at:stop].tolist(),
            )
            for number, (host, stage, shape, start_ms, dur_us) in enumerate(rows, at):
                if recorder:
                    recorder.current = number
                    span = recorder.begin(task_layer)
                node = nodes[host]
                on_log = node.tracker.on_log
                sequence = calls[stage][shape]
                clock.now = start = start_ms / 1000.0
                node.set_context(names[stage])
                for call in sequence[:-1]:
                    on_log(call)
                on_log(LogCall(sequence[-1].lpid, DEBUG, "bench", start + dur_us / 1_000_000.0))
                node.end_task()
                if recorder:
                    recorder.end(span)

    def frames_of(self, lo: int, hi: int) -> List[bytes]:
        return self._captured[lo, hi]


# -- worker pool --------------------------------------------------------------
class PoolRunner(Runner):
    """``pool_scaleout``: frames through ``ShardedAnalyzer(model, 2)``."""

    def one_pass(self, lo, hi, recorder=None) -> Pass:
        batch = self.frames_of(lo, hi)
        # The host is sampled while no worker runs: before the pool
        # starts and after it is gone, never at the section's edges.
        timed = _Timed(recorder, children=True, sample_edges=False)
        for _ in range(3):
            timed.sample_host()
        pool = ShardedAnalyzer(self.model, POOL_SHARDS, registry=MetricsRegistry())
        try:
            wrap = _wrapper(recorder)
            dispatch = wrap("coordinator.dispatch_frame", pool.dispatch_frame)
            close = wrap("coordinator.close", pool.close)
            with timed:
                for number, frame in enumerate(batch):
                    if recorder:
                        recorder.current = number
                    dispatch(frame)
                close()
        finally:
            pool.close()
        for _ in range(3):
            timed.sample_host()
        stats = list(pool.worker_stats.values())
        tasks = [worker["tasks"] for worker in stats]
        return Pass(
            Ledger(min(hi, len(self.script)) - lo, sum(tasks), 0, pool.anomalies),
            tasks=sum(tasks),
            wall_s=timed.wall_s,
            cpu_s=timed.cpu_s,
            wire_bytes=sum(map(len, batch)),
            slowdown_x=timed.slowdown_x,
            extra={
                "worker.busy_s_max": max(worker["busy_seconds"] for worker in stats),
                "worker.task_skew": max(tasks) * len(tasks) / max(1, sum(tasks)),
                "detector.windows_closed": sum(w["windows_closed"] for w in stats),
                "detector.events": len(pool.anomalies),
            },
        )


# -- open loop over TCP -------------------------------------------------------
class PacedRunner(Runner):
    """``ingest_paced``: a generator process paces frames over loopback TCP.

    The measuring process is the ``SAAD(listen=...)`` +
    ``stream_detector()`` deployment, built by hand only so the
    server's sink can be stamped: ``SynopsisServer(sink)`` ->
    ``SynopsisCollector.feed`` -> ``observe_batch``.  The generator
    (:mod:`bench.loadgen`) holds the frames and sends on its own
    ``time.monotonic`` schedule; a frame's latency runs from its
    *scheduled* send instant to the instant the sink returned for it
    (``CLOCK_MONOTONIC`` is one clock for both processes).

    A full pass is paced: ``seconds`` at 20k tasks/s, then
    ``high_seconds`` at 40k tasks/s on the same connection and
    detector.  A partial pass (warm-up, traced pass) is sent back to
    back.

    Its passes are not host-normalised.  The schedule fixes the
    throughput, and at a third utilisation this process's CPU time
    stayed within 4-10 % over ten runs in the same hours that moved the
    closed loops by 10-20 %; sampling the host between bursts (on a
    core just woken from idle) only added noise.
    """

    #: The open loop is one pass that lasts ``seconds`` by itself.
    min_passes = 1

    def __init__(self, spec: Spec, seed: int, seconds: float, high_seconds: float = 0.0):
        plan = [(PACED_RATE, seconds)]
        if high_seconds:
            plan.append((PACED_HIGH_RATE, high_seconds))
        #: The paced phases of a full pass: [tasks per second, frames].
        self.plan = [
            [rate, max(2, int(rate * length) // spec.frame)] for rate, length in plan
        ]
        tasks = sum(count for _, count in self.plan) * spec.frame
        super().__init__(replace(spec, tasks=tasks), seed)
        self._server: Optional[SynopsisServer] = None
        # The generator is the benchmark's, not the program's: it is
        # started once, holds every frame, and serves all the passes.
        self._generator = subprocess.Popen(
            [sys.executable, "-m", "bench.loadgen"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(REPO_ROOT),
        )
        header = {"sizes": [len(frame) for frame in self.frames], "per_frame": spec.frame}
        blob = b"".join(self.frames)
        self._generator.stdin.write(json.dumps(header).encode() + b"\n")
        self._generator.stdin.write(struct.pack("<Q", len(blob)) + blob)
        self._generator.stdin.flush()

    def full_pass(self) -> Pass:
        return self.one_pass(0, len(self.script), plan=self.plan)

    def one_pass(self, lo, hi, recorder=None, plan=None) -> Pass:
        per_frame = self.spec.frame
        batch = self.frames_of(lo, hi)
        paced = plan is not None
        plan = plan or [[0, len(batch)]]

        saad = SAAD(self.config)
        saad.model = self.model
        wrap = _wrapper(recorder)
        detector = _stream_detector(saad, recorder)
        feed = wrap("collector.feed", saad.collector.feed)
        returned: List[float] = []

        def sink(frame: bytes) -> None:
            feed(frame)
            returned.append(time.monotonic())

        server = self._server = SynopsisServer(
            wrap("server.sink", sink), registry=saad.registry
        )
        server.start()
        try:
            reports = self._generate(lo // per_frame, plan, recorder)
        finally:
            server.close()
        flush = wrap("detector.flush", detector.flush)
        with _Timed(recorder, sample_edges=False) as flushed:
            flush()
        registry = saad.registry
        saad.close()

        first, count = reports[0], plan[0][1]
        sent = sum(report["frames"] for report in reports)
        delivered = int(counter_total(registry, "server_frames_delivered"))
        extra = _paced_readings(first, returned[:count])
        observed = int(counter_total(registry, "detector_tasks_observed"))
        extra.update(_detector_readings(detector, observed))
        extra["server.frames_shed"] = sent - delivered
        extra["collector.frames"] = counter_total(registry, "collector_frames")
        if len(reports) > 1:
            high = _paced_readings(reports[1], returned[count:])
            extra["server.latency_p50_ms_at_40k"] = high["latency_p50_ms"]
            extra["server.backlog_end_frames_at_40k"] = reports[1]["backlog_end_frames"]
        return Pass(
            Ledger(len(batch) * per_frame, observed, sent - delivered, detector.anomalies),
            tasks=min(count, len(returned)) * per_frame,
            # Paced: goodput, first due time to last sink return.
            # Back to back: the transport, then the flush.
            wall_s=extra.pop("goodput_wall_s") if paced else first["wall_s"] + flushed.wall_s,
            cpu_s=first["cpu_s"],
            wire_bytes=first["bytes_sent"],
            extra=extra,
        )

    def _generate(self, first: int, plan, recorder) -> List[dict]:
        """Have the generator send frames ``first...`` as ``plan`` says."""
        child = self._generator
        command = {"address": list(self._server.address), "first": first, "phases": plan}
        child.stdin.write(json.dumps(command).encode() + b"\n")
        child.stdin.flush()
        if child.stdout.readline().strip() != b"ready":
            raise RuntimeError("load generator failed to connect")
        reports = []
        for _ in plan:
            # The generator answers once every frame of the phase is
            # acked, and the server acks a frame after its sink returned.
            with _Timed(recorder, layer="server.transport", sample_edges=False) as timed:
                child.stdin.write(b"go\n")
                child.stdin.flush()
                line = child.stdout.readline()
            if not line:
                raise RuntimeError("load generator died mid-phase")
            report = json.loads(line)
            report["wall_s"], report["cpu_s"] = timed.wall_s, timed.cpu_s
            reports.append(report)
        return reports

    def close(self) -> None:
        """End the generator (end of its input) and any server left up."""
        child = self._generator
        if not child.stdin.closed:
            child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()
        if self._server is not None:
            self._server.close()


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _paced_readings(report: dict, returned: List[float]) -> Dict[str, float]:
    """Latency, lateness and per-frame costs of one generator phase."""
    due = report["due"]
    latency = sorted((done - at) * 1e3 for at, done in zip(due, returned))
    sent = report["frames"]
    return {
        "latency_samples": len(latency),
        "latency_p50_ms": _percentile(latency, 0.50),
        "latency_p90_ms": _percentile(latency, 0.90),
        "server.latency_p99_ms": _percentile(latency, 0.99),
        "server.latency_max_ms": latency[-1],
        "goodput_wall_s": returned[-1] - due[0],
        "client.send_us_per_frame": report["send_s"] / sent * 1e6,
        "client.credit_stalls": report["credit_stalls"],
        "generator.late_p99_ms": _percentile(sorted(report["late_ms"]), 0.99),
        "server.cpu_us_per_frame": report["cpu_s"] / sent * 1e6,
    }


def make_runner(spec: Spec, seed: int, seconds: float, traced: bool) -> Runner:
    """The runner for ``spec.name``."""
    if spec.name == "node_to_event":
        return NodeRunner(spec, seed)
    if spec.name == "analyzer_bulk":
        return DetectorRunner(spec, seed)
    if spec.name == "analyzer_churn":
        return DetectorRunner(spec, seed, traced_deployment=True)
    if spec.name == "pool_scaleout":
        return PoolRunner(spec, seed)
    if spec.name == "ingest_paced":
        if traced:  # half as long, then half of that again at twice the rate
            return PacedRunner(spec, seed, seconds / 2, high_seconds=seconds / 4)
        return PacedRunner(spec, seed, seconds)
    raise KeyError(spec.name)
