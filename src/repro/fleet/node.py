"""Fleet analyzer nodes and the in-process loopback harness.

:class:`FleetNode` is one analyzer: a
:class:`~repro.core.detector.AnomalyDetector` behind a
:class:`~repro.shard.server.SynopsisServer` with the fleet hooks wired
— data frames observe, REPLAY frames absorb (deferred closes), DISOWN
drops, and every ack advertises the detector's watermark.  Events are
exported *at emit time* through the detector's ``on_event`` callback;
that continuous export is what makes a node's death lose only its
open-window events, which the router's retention rebuilds elsewhere.

:class:`AnalyzerFleet` wires N nodes, a gossip mesh (loopback hub), a
coordinator membership view, and a :class:`~repro.fleet.router.
FleetRouter` into one deployable object with the same dispatch/flush
surface as :class:`~repro.shard.coordinator.ShardedAnalyzer` — plus
:meth:`kill` and :meth:`join` for membership drills.  The merged event
feed is order-normalized by ``EVENT_ORDER`` and deduplicated by event
value: replay is at-least-once (an owner can finalize a window after
its last advertised watermark), and value-identical duplicates are the
proof that both closings saw the same task multiset (DESIGN.md §16).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.detector import AnomalyDetector, AnomalyEvent
from repro.core.model import OutlierModel
from repro.shard.coordinator import EVENT_ORDER
from repro.shard.server import FrameClient, SynopsisServer
from repro.telemetry import NULL_REGISTRY

from .gossip import Gossip, LoopbackHub
from .membership import MembershipTable
from .router import FleetRouter

__all__ = ["FleetNode", "AnalyzerFleet"]


class FleetNode:
    """One analyzer node: detector + ingest server + fleet hooks.

    The detector runs on the server's pump thread; ``lock`` serializes
    it against harness-side calls (flush, inspection).
    """

    def __init__(
        self,
        node_id: str,
        model: OutlierModel,
        config=None,
        *,
        lateness_s: float = 0.0,
        host: str = "127.0.0.1",
        registry=None,
        on_event: Optional[Callable[[str, AnomalyEvent], None]] = None,
    ):
        self.node_id = node_id
        self.lock = threading.Lock()
        self._on_event = on_event
        #: Detector CPU seconds on the ingest path — the fleet analogue
        #: of the shard workers' busy_seconds, and the denominator of
        #: the benchmark's pipeline-modeled throughput (each node's
        #: detector runs on its own server thread; on a machine with
        #: enough cores the bottleneck node's busy time is the wall).
        #: Accounted with ``time.thread_time`` — CPU actually spent by
        #: the pump thread, not wall time that a time-sliced core
        #: charges to whoever holds the GIL's neighbors.
        self.busy_seconds = 0.0
        self.detector = AnomalyDetector(
            model,
            config,
            lateness_s=lateness_s,
            exemplars_per_window=0,
            registry=NULL_REGISTRY,
            on_event=self._emit,
        )
        self.server = SynopsisServer(
            self._sink,
            host,
            0,
            registry=registry,
            replay_sink=self._absorb,
            disown=self._disown,
            watermark=lambda: self.detector.watermark,
        )
        self.server.start()
        self.alive = True

    @property
    def ingest(self) -> Tuple[str, int]:
        """The node's frame ingest address."""
        return self.server.address

    def _emit(self, event: AnomalyEvent) -> None:
        if self._on_event is not None:
            self._on_event(self.node_id, event)

    # Server-pump-side hooks (all run on the server's loop thread).
    def _sink(self, frame: bytes) -> None:
        with self.lock:
            start = time.thread_time()
            self.detector.observe_frame(frame)
            self.busy_seconds += time.thread_time() - start

    def _absorb(self, frame: bytes) -> None:
        with self.lock:
            start = time.thread_time()
            self.detector.absorb_frame(frame)
            self.busy_seconds += time.thread_time() - start

    def _disown(self, stage_ids: List[int]) -> None:
        with self.lock:
            self.detector.disown(stage_ids)

    # Harness-side controls.
    def flush(self) -> List[AnomalyEvent]:
        """Close every open window (end of stream / clean leave)."""
        with self.lock:
            return self.detector.flush()

    def kill(self) -> None:
        """Crash the node: the server dies, open windows are lost.

        Deliberately no flush — a crash emits nothing.  Whatever this
        node's open windows held is rebuilt at the stages' new owners
        from the router's retention.
        """
        self.alive = False
        self.server.close()

    def close(self) -> None:
        """Clean shutdown: flush, then stop the server.  Idempotent."""
        if not self.alive:
            return
        self.alive = False
        self.flush()
        self.server.close()


class AnalyzerFleet:
    """An in-process loopback fleet with gossip membership and reroute.

    Parameters
    ----------
    model:
        The trained :class:`~repro.core.model.OutlierModel` every
        analyzer detects against.
    nodes:
        Node ids (or a count; ids then default to ``node-0..N-1``).
    config, lateness_s:
        Detector settings, shared fleet-wide (the router's retention
        horizon is computed from the same window geometry).
    registry:
        Deployment registry receiving the ``fleet_*`` metrics.
    vnodes:
        Ring smoothness (virtual nodes per analyzer).
    suspect_after_s, dead_after_s:
        Failure-detector timeouts for the gossip layer.
    clock:
        Injectable membership clock (fake-clock drills).
    """

    def __init__(
        self,
        model: OutlierModel,
        nodes=3,
        *,
        config=None,
        lateness_s: float = 0.0,
        registry=None,
        vnodes: Optional[int] = None,
        suspect_after_s: float = 2.0,
        dead_after_s: float = 6.0,
        clock=None,
    ):
        if isinstance(nodes, int):
            if nodes < 1:
                raise ValueError(f"need at least one node: {nodes}")
            nodes = [f"node-{i}" for i in range(nodes)]
        names = list(nodes)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node ids: {names}")
        self.model = model
        self.config = config
        self.lateness_s = lateness_s
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.closed = False
        self._clock_kw = {} if clock is None else {"clock": clock}
        self._suspect_after_s = suspect_after_s
        self._dead_after_s = dead_after_s
        self.hub = LoopbackHub()
        self._events: List[AnomalyEvent] = []
        self._nodes: Dict[str, FleetNode] = {}
        self._gossips: Dict[str, Gossip] = {}

        # The coordinator participates in gossip as an observer member
        # (no ingest endpoint, never a ring owner): it learns joins and
        # deaths the same way every analyzer does.
        endpoint = self.hub.attach()
        self.membership = MembershipTable(
            "_coordinator",
            address=endpoint.address,
            suspect_after_s=suspect_after_s,
            dead_after_s=dead_after_s,
            **self._clock_kw,
        )
        self.gossip = Gossip(self.membership, endpoint, registry=self.registry)
        self._register_metrics()

        window_s = (config or model.config).window_s
        self.router = FleetRouter(
            self._connect,
            window_s=window_s,
            lateness_s=lateness_s,
            vnodes=vnodes,
            registry=self.registry,
        )
        for node_id in names:
            self.join(node_id)

    def _register_metrics(self) -> None:
        members = self.registry.gauge(
            "fleet_members",
            "fleet members by membership state (coordinator view)",
            labels=("state",),
        )
        for state in ("alive", "suspect", "left", "dead"):
            members.labels(state=state).set_function(
                lambda s=state: self.membership.counts()[s]
            )

    # -- membership drills -----------------------------------------------------
    def _connect(self, node_id: str) -> FrameClient:
        member = self.membership.members[node_id]
        if member.ingest is None:
            raise LookupError(f"member {node_id!r} has no ingest endpoint")
        return FrameClient(member.ingest, registry=self.registry)

    def join(self, node_id: str) -> FleetNode:
        """Start a new analyzer node and reshard onto it.

        The node joins the gossip mesh, the coordinator merges its
        digest, and the ring change replays every moved stage's
        retained tail to it — so windows that were open at the old
        owners continue here, whole.
        """
        self._check_open()
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already in the fleet")
        endpoint = self.hub.attach()
        node = FleetNode(
            node_id,
            self.model,
            self.config,
            lateness_s=self.lateness_s,
            registry=NULL_REGISTRY,
            on_event=self._collect,
        )
        table = MembershipTable(
            node_id,
            address=endpoint.address,
            ingest=node.ingest,
            suspect_after_s=self._suspect_after_s,
            dead_after_s=self._dead_after_s,
            **self._clock_kw,
        )
        # Seed both directions so the first gossip round can reach it.
        table.merge([self.membership.local.digest_entry()])
        self.membership.merge([table.local.digest_entry()])
        self._nodes[node_id] = node
        self._gossips[node_id] = Gossip(table, endpoint, registry=NULL_REGISTRY)
        self.sync()
        return node

    def kill(self, node_id: str) -> None:
        """Crash one analyzer: server down, gossip blackholed.

        The coordinator — which observed the death first-hand (its
        connection broke) — declares the member dead, SWIM-style, and
        gossip disseminates the verdict.  The following :meth:`sync`
        reshards the dead node's stages and replays their retained
        open-window tails to the new owners.
        """
        self._check_open()
        node = self._nodes[node_id]
        gossip = self._gossips.pop(node_id)
        self.hub.drop(gossip.table.local.address)
        gossip.close()
        node.kill()
        self.membership.declare_dead(node_id)
        self.sync()

    def step_gossip(self, rounds: int = 1) -> None:
        """Run synchronous gossip rounds across every live participant."""
        for _ in range(rounds):
            self.gossip.step()
            for gossip in self._gossips.values():
                gossip.step()

    def sync(self) -> List[int]:
        """Reconcile the router's ring with the coordinator's view."""
        routable = {
            member.node_id: member.ingest
            for member in self.membership.routable()
            if member.ingest is not None
        }
        return self.router.sync(routable)

    # -- data path -------------------------------------------------------------
    def _collect(self, node_id: str, event: AnomalyEvent) -> None:
        self._events.append(event)

    def dispatch_frame(self, frame: bytes, offset: int = 0) -> None:
        """Route one wire frame across the fleet (``frame_sink`` shape)."""
        self.router.dispatch_frame(frame, offset)

    def dispatch_payload(self, payload: bytes, offset: int, end: int) -> None:
        """Route bare encoded synopses (no frame header)."""
        self.router.dispatch_payload(payload, offset, end)

    def dispatch(self, synopses) -> None:
        """Route already-decoded synopses."""
        self.router.dispatch(synopses)

    def flush(self) -> List[AnomalyEvent]:
        """End of stream: drain the wire, close every node's windows.

        Returns the full merged, order-normalized, deduplicated event
        feed (everything collected since construction).
        """
        self._check_open()
        self.router.flush()
        self.router.wait_acked()
        for node in self._nodes.values():
            if node.alive:
                node.flush()
        return self.events()

    def events(self) -> List[AnomalyEvent]:
        """The canonical merged event feed (so far).

        Per-node streams are merged under ``EVENT_ORDER`` and
        deduplicated by event value — the at-least-once replay's
        double-closed windows collapse here, because both closings of
        a rebuilt window saw the identical task multiset.
        """
        return sorted(dict.fromkeys(self._events), key=EVENT_ORDER)

    @property
    def nodes(self) -> List[str]:
        """Analyzer node ids currently constructed (alive or not)."""
        return sorted(self._nodes)

    def node(self, node_id: str) -> FleetNode:
        """The named analyzer node."""
        return self._nodes[node_id]

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> List[AnomalyEvent]:
        """Flush and stop everything; the final merged feed.  Idempotent."""
        if self.closed:
            return []
        events = self.flush()
        self.closed = True
        self.router.close()
        for gossip in self._gossips.values():
            gossip.close()
        self.gossip.close()
        for node in self._nodes.values():
            node.close()
        return events

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("analyzer fleet is closed")

    def __enter__(self) -> "AnalyzerFleet":
        """Context-manager entry: the fleet itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the fleet."""
        self.close()
