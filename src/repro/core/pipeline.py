"""End-to-end SAAD wiring: node runtimes + the central analyzer.

:class:`SAAD` is the facade a deployment (or a simulation) uses:

* shared :class:`StageRegistry` and :class:`LogPointRegistry` produced by
  the one-time instrumentation pass;
* per-node :class:`NodeRuntime` bundling a logger repository, the task
  execution tracker, and a synopsis stream;
* a central :class:`SynopsisCollector`, :class:`OutlierModel` training,
  and the streaming :class:`AnomalyDetector`;
* the fleet health surface: a lazy
  :class:`~repro.health.HealthEngine` behind :meth:`SAAD.health`, fed
  by the registry (federated node snapshots included) and answering
  the wire ``HEALTH`` probe of a listening deployment.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional

from repro.loglib import INFO, LoggerRepository
from repro.telemetry import MetricsRegistry

from .config import SAADConfig
from .context import RealThreadContext, SimThreadContext, ThreadContextProvider
from .detector import AnomalyDetector, AnomalyEvent
from .logpoints import LogPointRegistry
from .model import OutlierModel
from .report import AnomalyReporter
from .stages import StageRegistry
from .stream import DEFAULT_FLUSH_SIZE, SynopsisCollector, SynopsisStream
from .synopsis import TaskSynopsis
from .tracker import TaskExecutionTracker


class NodeRuntime:
    """Everything SAAD installs on one server node: a logger repository,
    the task execution tracker intercepting it, and the synopsis stream
    the tracker feeds.  Construct through :meth:`SAAD.add_node` — the
    facade assigns host ids and threads its shared telemetry registry
    through (each node's metrics carry a ``host=<id>`` label)."""

    def __init__(
        self,
        saad: "SAAD",
        host_id: int,
        host_name: str,
        context: ThreadContextProvider,
        clock: Callable[[], float],
        log_level: int = INFO,
        wire_format: bool = False,
        wire_flush_size: int = DEFAULT_FLUSH_SIZE,
        tracker_enabled: bool = True,
    ):
        self.saad = saad
        self.host_id = host_id
        self.host_name = host_name
        registry = saad.registry
        self.stream = SynopsisStream(
            wire_format=wire_format,
            retain=False,
            flush_size=wire_flush_size,
            registry=registry,
            host=str(host_id),
        )
        self.tracker = TaskExecutionTracker(
            host_id=host_id,
            sink=self.stream.sink,
            context=context,
            clock=clock,
            enabled=tracker_enabled,
            registry=registry,
            tracer=saad.tracer,
        )
        self.repository = LoggerRepository(
            root_level=log_level,
            clock=clock,
            thread_namer=context.thread_name,
        )
        if tracker_enabled:
            self.repository.add_interceptor(self.tracker)
        self._client = None

    def logger(self, name: str):
        """A named logger from this node's repository (tracker attached)."""
        return self.repository.get_logger(name)

    def set_context(self, stage_name: str) -> None:
        """Stage delimiter by name (resolved through the shared registry)."""
        stage = self.saad.stages.by_name(stage_name)
        self.tracker.set_context(stage.stage_id)

    def end_task(self) -> Optional[TaskSynopsis]:
        """Explicitly finalize the current thread's open task."""
        return self.tracker.end_task()

    def connect(
        self,
        address,
        *,
        compression: bool = False,
        node: Optional[str] = None,
        telemetry_source=None,
        telemetry_interval_s: Optional[float] = 30.0,
    ) -> None:
        """Ship this node's wire frames to a remote analyzer over TCP.

        ``address`` is the ``(host, port)`` a
        :class:`~repro.shard.server.SynopsisServer` is listening on
        (e.g. :attr:`SAAD.address` of a ``SAAD(listen=...)``
        deployment).  Requires the node to run with ``wire_format=True``
        — frames are the transport unit.  The previous ``frame_sink``
        (if any) is replaced.  Connecting to this deployment's *own*
        listener (``node.connect(saad.address)``) makes the frames the
        one delivery into its collector: the object-path subscription
        :meth:`SAAD.add_node` made is dropped, or every synopsis would
        be received twice.  A node connected to a remote analyzer keeps
        its local object path.

        The sender negotiates the credit/ack ingest protocol and tunes
        this node's ``flush_size`` adaptively from ack round-trips (the
        client's :class:`~repro.shard.server.AdaptiveFlush` controller
        writes straight through to the stream).  ``compression=True``
        requests zlib frame compression; the server may decline.

        Telemetry federation (docs/OPERATIONS.md §9) is opt-in: pass
        ``telemetry_source`` (this node's deployment registry, or any
        ``collect()``-able / zero-arg callable) and registry snapshots
        piggyback on the data stream every ``telemetry_interval_s``
        seconds, landing in the analyzer's fleet view under
        ``node=<node>`` (default: this runtime's ``host_name``).  It is
        off by default because a loopback node shares :attr:`SAAD.
        registry` with its analyzer — federating that registry into
        itself would double-count; only ship a *remote* deployment's
        registry.
        """
        if not self.stream.wire_format:
            raise ValueError("connect() requires a wire_format=True node")
        from repro.shard.server import FrameClient

        if self._client is not None:
            self._client.close()
        stream = self.stream
        self._client = FrameClient(
            address,
            registry=self.saad.registry,
            compression=compression,
            on_flush_size=lambda size: setattr(stream, "flush_size", size),
            node=node or self.host_name,
            telemetry_source=telemetry_source,
            telemetry_interval_s=telemetry_interval_s,
        )
        self.stream.frame_sink = self._client
        collector = self.saad.collector
        own = self.saad.address
        if own is not None and tuple(address) == tuple(own):
            collector.detach_objects(stream)
        else:  # a reconnect elsewhere gets the object path back
            collector.attach(stream)

    def probe_health(self, timeout: Optional[float] = None) -> dict:
        """Ask the connected analyzer for its health report.

        Round-trips the wire ``HEALTH`` probe on this node's sender and
        returns the analyzer-side :meth:`SAAD.health` payload (state,
        firing alerts, per-rule statuses, incident flag).  Requires
        :meth:`connect` first.
        """
        if self._client is None:
            raise RuntimeError("probe_health() requires connect() first")
        return self._client.health(timeout=timeout)

    def disconnect(self) -> None:
        """Flush pending frames and close the TCP sender.  Idempotent."""
        if self._client is None:
            return
        self.stream.flush_wire()
        self._client.close()
        self._client = None
        self.stream.frame_sink = None
        self.saad.collector.attach(self.stream)


class SAAD:
    """The deployment facade tying registries, nodes, and the analyzer.

    Parameters
    ----------
    config:
        Analyzer configuration; defaults to a fresh :class:`SAADConfig`.
    registry:
        The deployment's shared telemetry registry.  Defaults to a fresh
        :class:`~repro.telemetry.MetricsRegistry`; every node runtime,
        the collector, training, and detectors created through this
        facade register into it, so one
        ``python -m repro stats`` snapshot covers the whole deployment.
        Pass a :class:`~repro.telemetry.NullRegistry` to disable.
    tracer:
        The deployment's shared :class:`~repro.tracing.Tracer`; pass
        one to control capacities/sampling.  Defaults to the inert
        :data:`~repro.tracing.NULL_TRACER` unless ``tracing=True``.
    tracing:
        Convenience switch: True builds a default
        :class:`~repro.tracing.Tracer` on the shared telemetry registry.
        Ignored when an explicit ``tracer`` is passed.
    shards:
        Scale-out switch: partition detection across this many worker
        processes (see :class:`~repro.shard.ShardedAnalyzer` and
        DESIGN.md §12).  :meth:`detect` then routes through a sharded
        pool, and :meth:`shard` hands out long-lived pools.  Default
        None keeps the single-process analyzer.
    listen:
        ``(host, port)`` to accept wire frames over TCP: starts a
        :class:`~repro.shard.SynopsisServer` feeding this deployment's
        collector (port 0 picks a free port; see :attr:`address`).
        Remote nodes connect with :meth:`NodeRuntime.connect`.
    fleet:
        Elastic scale-out switch: analyzer node ids (or a count) for a
        gossip-coordinated loopback fleet (see
        :class:`~repro.fleet.AnalyzerFleet` and DESIGN.md §16).
        :meth:`detect` then routes through a fleet, and :meth:`fleet`
        hands out long-lived ones with ``kill``/``join`` membership
        drills.  Mutually exclusive with ``shards``.
    """

    def __init__(
        self,
        config: Optional[SAADConfig] = None,
        registry=None,
        tracer=None,
        tracing: bool = False,
        shards: Optional[int] = None,
        listen=None,
        fleet=None,
    ):
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if fleet is not None and shards is not None:
            raise ValueError("pass shards= or fleet=, not both")
        if isinstance(fleet, int) and fleet < 1:
            raise ValueError(f"fleet needs at least one node: {fleet}")
        self.config = config or SAADConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            from repro.tracing import NULL_TRACER, Tracer

            tracer = Tracer(registry=self.registry) if tracing else NULL_TRACER
        self.tracer = tracer
        self.stages = StageRegistry()
        self.logpoints = LogPointRegistry()
        self.collector = SynopsisCollector(retain=True, registry=self.registry)
        self.nodes: Dict[str, NodeRuntime] = {}
        self.model: Optional[OutlierModel] = None
        self.shards = shards
        self.fleet_nodes = fleet
        self.server = None
        self._health_engine = None
        self.registry.gauge(
            "saad_nodes", "node runtimes registered with this deployment"
        ).set_function(lambda: len(self.nodes))
        if listen is not None:
            self.listen(*listen)

    # -- node management ----------------------------------------------------
    def add_node(
        self,
        host_name: str,
        context: Optional[ThreadContextProvider] = None,
        clock: Optional[Callable[[], float]] = None,
        log_level: int = INFO,
        wire_format: bool = False,
        wire_flush_size: int = DEFAULT_FLUSH_SIZE,
        tracker_enabled: bool = True,
    ) -> NodeRuntime:
        """Create and register the runtime for one node."""
        if host_name in self.nodes:
            raise ValueError(f"node {host_name!r} already registered")
        node = NodeRuntime(
            saad=self,
            host_id=len(self.nodes),
            host_name=host_name,
            context=context or RealThreadContext(),
            clock=clock or _time.time,
            log_level=log_level,
            wire_format=wire_format,
            wire_flush_size=wire_flush_size,
            tracker_enabled=tracker_enabled,
        )
        self.collector.attach(node.stream)
        self.nodes[host_name] = node
        return node

    def add_sim_node(self, host_name: str, env, **kwargs) -> NodeRuntime:
        """Node runtime wired to a simulation environment's clock/threads."""
        return self.add_node(
            host_name,
            context=SimThreadContext(env),
            clock=lambda: env.now,
            **kwargs,
        )

    @property
    def host_names(self) -> Dict[int, str]:
        """host_id -> host_name for every registered node."""
        return {node.host_id: name for name, node in self.nodes.items()}

    # -- analyzer -----------------------------------------------------------
    def train(self, synopses: Optional[List[TaskSynopsis]] = None) -> OutlierModel:
        """Train the outlier model (default: everything collected so far)."""
        trace = synopses if synopses is not None else self.collector.synopses
        self.model = OutlierModel(self.config, registry=self.registry).train(trace)
        # From here on the tracer's tail retention is model-driven: keep
        # traces the trained classifier would flag, not just novel ones.
        self.tracer.set_model(self.model)
        return self.model

    def detector(self, lateness_s: float = 0.0) -> AnomalyDetector:
        """A fresh streaming detector bound to the trained model."""
        if self.model is None:
            raise RuntimeError("call train() before creating a detector")
        return AnomalyDetector(
            self.model,
            self.config,
            lateness_s=lateness_s,
            registry=self.registry,
            tracer=self.tracer,
            on_event=self._note_anomaly,
        )

    def stream_detector(self, lateness_s: float = 0.0) -> AnomalyDetector:
        """A detector fed frame-wise by this deployment's collector.

        Builds a :meth:`detector` and subscribes its columnar
        :meth:`~repro.core.detector.AnomalyDetector.observe_batch` to
        the collector's frame fan-out
        (:meth:`~repro.core.stream.SynopsisCollector.subscribe_frames`),
        so wire frames arriving over TCP (:meth:`listen`) or from local
        wire-format nodes whose ``frame_sink`` is the collector's
        ``feed`` are classified straight from their bytes.  No
        :class:`TaskSynopsis` is built on the way: the collector
        validates each frame with a structural scan and retains the
        frame itself (decoded only if :meth:`train` or another reader
        of ``collector.synopses`` asks), and ``observe_batch`` picks
        its per-record or vector route from the frame's record count
        (DESIGN §13).  The caller owns the detector's lifecycle
        (``flush()`` at end of stream); its anomalies accumulate on
        ``detector.anomalies``.
        """
        detector = self.detector(lateness_s=lateness_s)
        self.collector.subscribe_frames(detector.observe_batch)
        return detector

    def shard(self, shards: Optional[int] = None, lateness_s: float = 0.0):
        """A sharded analyzer pool bound to the trained model.

        ``shards`` defaults to the facade's ``shards`` setting.  The
        pool shares this deployment's telemetry registry and tracer, so
        ``shard_*`` metrics land in the same snapshot and merged events
        resolve their exemplar trace keys against the deployment's
        traces.  Callers own the pool's lifecycle (``flush`` /
        ``close``, or use it as a context manager).
        """
        if self.model is None:
            raise RuntimeError("call train() before creating a sharded analyzer")
        shards = shards if shards is not None else self.shards
        if shards is None:
            raise ValueError("pass shards= here or to the SAAD constructor")
        from repro.shard import ShardedAnalyzer

        return ShardedAnalyzer(
            self.model,
            shards,
            lateness_s=lateness_s,
            registry=self.registry,
            tracer=self.tracer,
        )

    def fleet(self, nodes=None, lateness_s: float = 0.0, **kwargs):
        """A gossip-coordinated analyzer fleet bound to the trained model.

        ``nodes`` (ids or a count) defaults to the facade's ``fleet``
        setting.  The fleet shares this deployment's telemetry registry
        so ``fleet_*`` membership/ring/reroute metrics land in the same
        snapshot.  Callers own the fleet's lifecycle (``flush`` /
        ``close``, or use it as a context manager); ``kill``/``join``
        drive elastic resharding (DESIGN.md §16).
        """
        if self.model is None:
            raise RuntimeError("call train() before creating a fleet")
        nodes = nodes if nodes is not None else self.fleet_nodes
        if nodes is None:
            raise ValueError("pass nodes= here or fleet= to the SAAD constructor")
        from repro.fleet import AnalyzerFleet

        return AnalyzerFleet(
            self.model,
            nodes,
            config=self.config,
            lateness_s=lateness_s,
            registry=self.registry,
            **kwargs,
        )

    def detect(self, synopses: List[TaskSynopsis]) -> List[AnomalyEvent]:
        """Batch detection convenience: stream a list, flush, return events.

        With ``shards`` or ``fleet`` configured the batch runs through
        the corresponding scale-out path; the returned events are
        identical (canonically ordered) either way.
        """
        if self.fleet_nodes is not None:
            with self.fleet() as fleet:
                fleet.dispatch(synopses)
                events = fleet.close()
                for event in events:
                    self._note_anomaly(event)
                return events
        if self.shards is not None and self.shards > 1:
            with self.shard() as analyzer:
                analyzer.dispatch(synopses)
                analyzer.close()
                for event in analyzer.anomalies:
                    self._note_anomaly(event)
                return analyzer.anomalies
        from repro.shard import EVENT_ORDER

        detector = self.detector()
        for synopsis in synopses:
            detector.observe(synopsis)
        detector.flush()
        return sorted(detector.anomalies, key=EVENT_ORDER)

    # -- health -------------------------------------------------------------
    def health_engine(self, rules=None, **kwargs):
        """The deployment's :class:`~repro.health.HealthEngine` (lazy).

        Created on first use against the shared registry — with the
        built-in rule pack (:func:`~repro.health.builtin_rules`) unless
        ``rules`` is given; extra keyword arguments (hysteresis,
        history) pass through to the engine constructor.  Later calls
        return the existing engine and must be argument-free: the
        engine carries alert state and incident history, so silently
        rebuilding it would discard both.

        Once the engine exists, detector anomalies emitted through this
        facade (:meth:`detector`, :meth:`stream_detector`,
        :meth:`detect`) land on its incident timeline automatically.
        """
        if self._health_engine is None:
            from repro.health import HealthEngine

            self._health_engine = HealthEngine(
                self.registry, rules=rules, **kwargs
            )
        elif rules is not None or kwargs:
            raise RuntimeError(
                "health engine already created; it keeps alert/incident "
                "state, so reconfiguring it here would silently drop that"
            )
        return self._health_engine

    def health(self) -> dict:
        """One JSON-able health report for this deployment.

        Evaluates the rule pack against the live registry (federated
        node snapshots included) and returns
        :meth:`~repro.health.HealthEngine.report_dict`.  Creates the
        engine on first use; remote senders receive exactly this
        payload from the wire ``HEALTH`` probe
        (:meth:`NodeRuntime.probe_health`).
        """
        return self.health_engine().report_dict()

    def _note_anomaly(self, event) -> None:
        """Detector hook: correlate an anomaly with any open incident."""
        engine = self._health_engine
        if engine is not None:
            engine.note_anomaly(event)

    # -- transport ----------------------------------------------------------
    def listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        credit_window: Optional[int] = None,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        shed_watermark: Optional[int] = None,
        hard_watermark: Optional[int] = None,
        compression: bool = True,
    ):
        """Start (or return) the deployment's TCP synopsis server.

        Frames received on the socket feed the central collector via
        its reassembly inlet (:meth:`~repro.core.stream.
        SynopsisCollector.feed`), exactly as locally attached streams
        do.  Returns the bound ``(host, port)``.

        The overload knobs (docs/OPERATIONS.md §8) pass through to the
        server: ``credit_window`` bounds each connection's in-flight
        bytes, reads pause/resume at ``high_watermark`` /
        ``low_watermark`` of backlog, and a ``shed_watermark`` attaches
        a :class:`~repro.shard.LoadShedder` dropping head-sampled
        frames first (exemplar-bearing ones only past
        ``hard_watermark``, default twice the shed mark).  Omitted
        knobs take the server defaults; without ``shed_watermark`` no
        shedding happens — only backpressure.

        The server also carries the fleet observability plane
        (docs/OPERATIONS.md §9): ``TELEMETRY`` snapshots from senders
        merge into this registry's federation under ``node=<id>``
        labels, and ``HEALTH`` probes are answered with
        :meth:`health`.
        """
        if self.server is None:
            from repro.shard import LoadShedder, SynopsisServer

            shedder = None
            if shed_watermark is not None:
                shedder = LoadShedder(
                    shed_watermark, hard_watermark, registry=self.registry
                )
            self.server = SynopsisServer(
                self.collector.feed,
                host=host,
                port=port,
                registry=self.registry,
                credit_window=credit_window,
                high_watermark=high_watermark,
                low_watermark=low_watermark,
                shedder=shedder,
                compression=compression,
                federation=self.registry.federation(),
                health=self.health,
            )
            self.server.start()
        return self.server.address

    @property
    def address(self):
        """The TCP server's bound ``(host, port)``; None when not listening."""
        return self.server.address if self.server is not None else None

    def close(self) -> None:
        """Shut down transports and seal the collector.

        Disconnects every node's TCP sender (flushing pending frames
        first), stops the listen server, and closes the collector —
        which raises if a truncated frame would have lost the last
        batch (see :meth:`~repro.core.stream.SynopsisCollector.close`).
        """
        for node in self.nodes.values():
            node.disconnect()
        try:
            self.collector.close()
        finally:
            if self.server is not None:
                self.server.close()
                self.server = None

    def reporter(self) -> AnomalyReporter:
        """A reporter resolving ids through this deployment's registries."""
        return AnomalyReporter(self.stages, self.logpoints, self.host_names)
