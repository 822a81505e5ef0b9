"""The shared deterministic demo deployment behind the tool CLIs.

``python -m repro stats`` (registry view), ``python -m repro trace``
(trace view), and ``python -m repro top`` (fleet health view) all run
the *same* small SAAD deployment — two nodes (one wire-format), a fake
clock, training, a detection pass with an injected novel signature, a
model save/load round-trip, a sharded TCP ingest loopback with the
overload machinery attached, a fleet observability pass (federated
edge telemetry + a wire health probe), and an elastic-fleet pass
(gossip membership, a mid-stream join, and a crash reshard).  It
exercises every metric family in the catalog (docs/OPERATIONS.md §4),
so the catalog test treats its registry as the ground-truth metric
inventory.

``python -m repro shard`` and ``python -m repro fleet`` draw their
synthetic workload from :func:`demo_trace` instead.
"""

from __future__ import annotations

import os
import random
import tempfile

__all__ = ["demo_deployment", "demo_registry", "demo_trace"]

_DEMO_STAGES = (1, 2, 3, 5, 8, 13)


def demo_trace(tasks: int, anomalous: bool = False):
    """A deterministic multi-stage synthetic trace (no wall clock).

    ``anomalous`` plants a novel-signature burst on stage 5 in the
    second half; the fault-free trace is what the demos train on.
    """
    from repro.core import TaskSynopsis

    rng = random.Random(42 if anomalous else 7)
    out = []
    for i in range(tasks):
        stage = _DEMO_STAGES[i % len(_DEMO_STAGES)]
        lps = (stage, stage + 1, stage + 3)
        if anomalous and stage == 5 and i > tasks // 2 and i % 2:
            lps = (stage, stage + 1, stage + 2, stage + 3)
        out.append(
            TaskSynopsis(
                host_id=i % 2,
                stage_id=stage,
                uid=i,
                start_time=i * 0.01,
                duration=0.01 * rng.lognormvariate(0, 0.3),
                log_points={lp: 1 for lp in lps},
            )
        )
    return out


def _emit_task(node, log, clock, stage, i, lps, retry=False):
    """One demo task: begin/end log points, optionally a retry burst."""
    lp_begin, lp_end, lp_retry = lps
    node.set_context(stage)
    log.info("step %s begins", i, lpid=lp_begin)
    clock[0] += 0.004
    if retry:
        log.warn("retrying step %s after transient fault", i, lpid=lp_retry)
    log.info("step %s ends", i, lpid=lp_end)


def demo_deployment():
    """Run the deterministic demo deployment; returns the SAAD facade.

    Tracing is enabled so the ``tracer_*`` self-metrics register and the
    injected novel-signature burst leaves pinned exemplar traces.
    """
    from repro.core import SAAD, SAADConfig, load_model, save_model

    config = SAADConfig(window_s=10.0, min_window_tasks=5, min_signature_samples=5)
    saad = SAAD(config, tracing=True)
    clock = [0.0]
    nodes = [
        saad.add_node("alpha", clock=lambda: clock[0]),
        saad.add_node("beta", clock=lambda: clock[0], wire_format=True),
    ]
    saad.stages.register("read")
    saad.stages.register("compact")
    lps = (
        saad.logpoints.register("step begins").lpid,
        saad.logpoints.register("step ends").lpid,
        saad.logpoints.register("retrying after transient fault").lpid,
    )
    loggers = [node.logger("demo.Stage") for node in nodes]

    # Fault-free training phase: two stages, steady shapes.
    for i in range(400):
        clock[0] = i * 0.05
        stage = "read" if i % 3 else "compact"
        _emit_task(nodes[i % 2], loggers[i % 2], clock, stage, i, lps)
    for node in nodes:
        node.end_task()
        node.stream.flush_wire()
    saad.train()

    # Detection phase: same workload plus a late burst with a novel log
    # point (a flow anomaly via never-trained signature).
    detector = saad.detector()
    trained = len(saad.collector.synopses)
    for i in range(300, 400):
        clock[0] = 30.0 + i * 0.05
        _emit_task(
            nodes[i % 2], loggers[i % 2], clock, "read", i, lps, retry=i > 380
        )
    for node in nodes:
        node.end_task()
        node.stream.flush_wire()
    for synopsis in saad.collector.synopses[trained:]:
        detector.observe(synopsis)
    detector.flush()

    # Columnar pass: replay the detection trace as one wire blob through
    # a batch detector, so the columnar_* ingest counters and the model
    # compiler's compile_* counters are live in this registry.
    from repro.core import AnomalyDetector
    from repro.core.synopsis import encode_frame

    replay = saad.collector.synopses[trained:]
    batch_detector = AnomalyDetector(saad.model, saad.config, registry=saad.registry)
    # Lower the tables up front: a replay this small stays on the
    # per-record route, which never needs them.
    batch_detector.compiled_model()
    batch_detector.observe_batch(encode_frame(replay))
    batch_detector.flush()

    # Persistence round-trip so the model_* counters are live too.
    handle, path = tempfile.mkstemp(suffix=".saad-model.json")
    os.close(handle)
    try:
        save_model(saad.model, path, registry=saad.registry)
        load_model(path, registry=saad.registry)
    finally:
        os.unlink(path)

    # Scale-out pass: replay the detection trace through a 2-shard pool
    # fed over the TCP ingest loopback — with the overload machinery
    # attached (shedder, compression, novelty-classified priorities) —
    # so the shard_* coordinator, shard_server_* transport, and the
    # overload families (server_*, shed_*, client_*, watermark gauges)
    # are all live in this registry too.  The same loopback doubles as
    # the fleet observability pass (docs/OPERATIONS.md §9): the sender
    # piggybacks a (separate) edge registry as a TELEMETRY snapshot —
    # federated under ``node=edge-beta`` — and round-trips one wire
    # HEALTH probe, so the federation_*, health_*, and probe counters
    # are live as well.
    import time

    from repro.shard import (
        FrameClient,
        LoadShedder,
        ShardedAnalyzer,
        SignatureNovelty,
        SynopsisServer,
    )
    from repro.telemetry import MetricsRegistry

    def _counter(name):
        for family in saad.registry.collect():
            if family["name"] == name:
                return sum(sample["value"] for sample in family["samples"])
        return 0.0

    edge = MetricsRegistry()
    edge.counter("tracker_tasks_started", "tasks started on the edge node").inc(42)
    edge.gauge("saad_nodes", "node runtimes on the edge deployment").set(1)

    novelty = SignatureNovelty.from_model(saad.model)
    shedder = LoadShedder(1 << 20, registry=saad.registry)
    with ShardedAnalyzer(
        saad.model, 2, registry=saad.registry, tracer=saad.tracer
    ) as pool:
        with SynopsisServer(
            pool.dispatch_frame,
            registry=saad.registry,
            shedder=shedder,
            federation=saad.registry.federation(),
            health=saad.health,
        ) as server:
            with FrameClient(
                server.address,
                registry=saad.registry,
                compression=True,
                priority_fn=novelty.frame_priority,
                node="edge-beta",
                telemetry_source=edge,
                telemetry_interval_s=0.0,
            ) as client:
                client.send(encode_frame(replay))
                client.wait_acked()
                client.health(timeout=10.0)
            # frames land on the server's loop thread; wait for delivery
            deadline = time.monotonic() + 10.0
            while (
                _counter("shard_server_frames") < 1
                or _counter("server_telemetry_snapshots") < 1
            ):
                if time.monotonic() > deadline:
                    raise RuntimeError("demo ingest frame never arrived")
                time.sleep(0.005)
        pool.close()

    # Elastic fleet pass: the same detection trace through a gossip-
    # coordinated analyzer fleet with a mid-stream join and a crash, so
    # the fleet_* membership/ring/reroute families (DESIGN.md §16) are
    # live in this registry too.
    fleet = saad.fleet(2)
    fleet.step_gossip(2)
    half = len(replay) // 2
    fleet.dispatch(replay[:half])
    fleet.join("node-2")
    fleet.kill("node-0")
    fleet.dispatch(replay[half:])
    fleet.close()
    return saad


def demo_registry():
    """The demo deployment's registry (catalog-test ground truth)."""
    return demo_deployment().registry
