"""The shard coordinator: route, dispatch, merge.

:class:`ShardedAnalyzer` is the parent-process half of the sharded
analyzer.  It owns a pool of worker processes (one detector per shard,
see :mod:`repro.shard.worker`), routes incoming synopses to them by
stage (:mod:`repro.shard.partition`), and merges the per-shard anomaly
event streams back into one deterministically ordered feed.

Hot path: frames arrive as raw wire bytes (from a
:class:`~repro.core.stream.SynopsisCollector` or straight off a
socket), the coordinator slices each encoded synopsis into its shard's
output buffer **without decoding**, re-frames per shard, and ships the
bytes over a ``multiprocessing.Pipe``.  Per-synopsis parent-side cost
is a table lookup and a slice.

Merging: all per-stage detector state lives wholly inside one shard, so
the union of the shards' event sets equals a single-process detector's
event set; the coordinator imposes the canonical order
``(window_start, window_end, host_id, stage_id, kind)``.  Events whose
exemplars crossed the boundary as trace keys are resolved against the
deployment tracer (:meth:`~repro.tracing.Tracer.pin_many`) — traces are
captured node-side and never shipped to workers.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.detector import AnomalyEvent
from repro.core.model import OutlierModel
from repro.core.persistence import broadcast_model
from repro.core.synopsis import FRAME_HEADER, MAX_FRAME_SYNOPSES, TaskSynopsis
from repro.telemetry import NULL_REGISTRY, merge_snapshots
from repro.tracing import NULL_TRACER

from .partition import route_payload
from .worker import WorkerInit, worker_main

__all__ = ["ShardedAnalyzer", "ShardWorkerError", "EVENT_ORDER"]


def EVENT_ORDER(event: AnomalyEvent):
    """The canonical merge order of the sharded event feed.

    Window first (start, then end), then stage identity, then kind —
    deterministic for any interleaving of per-shard streams, and
    identical to sorting a single-process detector's output.
    """
    return (
        event.window_start,
        event.window_end,
        event.host_id,
        event.stage_id,
        event.kind,
    )


class ShardWorkerError(RuntimeError):
    """A shard worker died or reported an exception."""


class ShardedAnalyzer:
    """Stage-sharded detection across a pool of worker processes.

    Parameters
    ----------
    model:
        The trained :class:`~repro.core.model.OutlierModel`; broadcast
        to every worker in persistence-format JSON, so each shard
        reconstructs it into its own process-local interning table.
    shards:
        Worker count.  Each stage byte is owned by one worker, chosen
        by ``ring`` (:meth:`shard_of` reads the placement back); any one
        stage's statistics live wholly in that worker.
    lateness_s, exemplars_per_window:
        Forwarded to each shard's detector.
    registry:
        Deployment registry receiving the coordinator's ``shard_*``
        metrics and the aggregated per-worker accounting; defaults to
        :data:`~repro.telemetry.NULL_REGISTRY`.
    tracer:
        Deployment tracer used to resolve exemplar trace keys on merge;
        defaults to :data:`~repro.tracing.NULL_TRACER` (workers then
        skip exemplar tracking entirely).
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); None uses the platform default.  The worker
        protocol is spawn-safe.
    batch_bytes:
        Dispatch watermark: a shard's routed-but-unsent buffer is
        flushed to its worker once it holds this many payload bytes.
    ring:
        The consistent-hash ring (:class:`~repro.fleet.ring.HashRing`)
        that owns stage placement — the routing source of truth since
        the fleet refactor (DESIGN.md §16).  Must hold exactly
        ``shards`` nodes; node ids map to worker indices in sorted
        order.  None builds a default ring over ``shard-0 ..
        shard-N-1``.  (The legacy ``shard_for`` / ``shard_table``
        mapping remains available from :mod:`repro.shard.partition`
        for fixed-pool callers, but the coordinator itself routes by
        ring so a pool and a fleet agree on placement mechanics.)
    """

    def __init__(
        self,
        model: OutlierModel,
        shards: int,
        *,
        lateness_s: float = 0.0,
        exemplars_per_window: int = 3,
        registry=None,
        tracer=None,
        start_method: Optional[str] = None,
        batch_bytes: int = 1 << 16,
        ring=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if batch_bytes < 1:
            raise ValueError(f"batch_bytes must be >= 1: {batch_bytes}")
        self.shards = shards
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.batch_bytes = batch_bytes
        self.anomalies: List[AnomalyEvent] = []
        self.worker_stats: Dict[int, dict] = {}
        self.worker_telemetry: Dict[int, list] = {}
        self.closed = False
        if ring is None:
            # Imported lazily: repro.fleet's package init reaches back
            # into repro.shard, so a module-level import would cycle.
            from repro.fleet.ring import HashRing

            ring = HashRing(f"shard-{i}" for i in range(shards))
        if len(ring) != shards:
            raise ValueError(
                f"ring holds {len(ring)} nodes but the pool has {shards} shards"
            )
        self.ring = ring
        order = ring.nodes
        self._table = [order.index(owner) for owner in ring.table()]
        self._pending: List[List[bytes]] = [[] for _ in range(shards)]
        self._pending_bytes = [0] * shards
        self._unmerged: List[AnomalyEvent] = []
        self._register_metrics()

        tracing = bool(self.tracer.enabled) and exemplars_per_window > 0
        payload = broadcast_model(model)
        context = multiprocessing.get_context(start_method)
        self._conns = []
        self._procs = []
        try:
            for shard_id in range(shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=worker_main,
                    args=(
                        child_conn,
                        WorkerInit(
                            shard_id=shard_id,
                            model_payload=payload,
                            lateness_s=lateness_s,
                            exemplars_per_window=exemplars_per_window,
                            tracing=tracing,
                        ),
                    ),
                    daemon=True,
                    name=f"saad-shard-{shard_id}",
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(process)
        except BaseException:
            self._terminate()
            raise
        self._m_workers.set(shards)

    # -- telemetry -------------------------------------------------------------
    def _register_metrics(self) -> None:
        registry = self.registry
        self._m_workers = registry.gauge(
            "shard_workers", "worker processes in the sharded analyzer pool"
        )
        self._m_synopses = registry.counter(
            "shard_synopses_dispatched",
            "synopses routed to shard workers",
            labels=("shard",),
        )
        self._m_frames = registry.counter(
            "shard_frames_dispatched",
            "wire frames shipped to shard workers",
            labels=("shard",),
        )
        self._m_bytes = registry.counter(
            "shard_bytes_dispatched",
            "frame payload bytes shipped to shard workers",
            labels=("shard",),
        )
        self._m_merged = registry.counter(
            "shard_events_merged", "anomaly events merged from shard workers"
        )
        self._m_pinned = registry.counter(
            "shard_exemplars_pinned",
            "exemplar trace keys resolved against the deployment tracer",
        )
        self._m_worker_tasks = registry.gauge(
            "shard_worker_tasks",
            "tasks observed by each shard worker (last snapshot)",
            labels=("shard",),
        )
        self._m_worker_windows = registry.gauge(
            "shard_worker_windows_closed",
            "windows closed by each shard worker (last snapshot)",
            labels=("shard",),
        )
        self._m_worker_busy = registry.gauge(
            "shard_worker_busy_seconds",
            "CPU seconds spent by each shard worker (last snapshot)",
            labels=("shard",),
        )

    def _record_stats(self, shard_id: int, stats: dict, snapshot: list) -> None:
        self.worker_stats[shard_id] = stats
        self.worker_telemetry[shard_id] = snapshot
        shard = str(shard_id)
        self._m_worker_tasks.labels(shard=shard).set(stats["tasks"])
        self._m_worker_windows.labels(shard=shard).set(stats["windows_closed"])
        self._m_worker_busy.labels(shard=shard).set(stats["busy_seconds"])

    def aggregate_telemetry(self) -> List[dict]:
        """Worker registries merged into one snapshot, summed per sample.

        Combines the last telemetry snapshot of every shard via
        :func:`~repro.telemetry.merge_snapshots` (the same arithmetic
        telemetry federation uses fleet-wide): samples of the same
        family and label set are summed (histograms per bucket), so
        ``detector_tasks_observed`` reports the pool-wide total with
        per-shard families intact under their labels.  The result uses
        the same plain-dict wire form as
        :meth:`~repro.telemetry.MetricsRegistry.collect`.
        """
        return merge_snapshots(self.worker_telemetry.values())

    # -- dispatch --------------------------------------------------------------
    def shard_of(self, stage_id: int) -> int:
        """Index of the worker that owns ``stage_id``, from the table
        every ``dispatch*`` method routes by."""
        return self._table[stage_id & 0xFF]

    def dispatch_frame(self, frame: bytes, offset: int = 0) -> None:
        """Route one length-prefixed wire frame to the shard buffers.

        Accepts exactly what :meth:`SynopsisCollector.receive_frame
        <repro.core.stream.SynopsisCollector.receive_frame>` accepts, so
        the bound method can serve as a stream's ``frame_sink`` or a
        socket server's delivery target.  Raises ``ValueError`` on a
        truncated frame.
        """
        if len(frame) - offset < FRAME_HEADER.size:
            raise ValueError("truncated frame header")
        length, _ = FRAME_HEADER.unpack_from(frame, offset)
        start = offset + FRAME_HEADER.size
        if len(frame) < start + length:
            raise ValueError("truncated frame payload")
        self.dispatch_payload(frame, start, start + length)

    def dispatch_payload(self, payload: bytes, offset: int, end: int) -> None:
        """Route the bare encoded synopses in ``payload[offset:end]``."""
        self._check_open()
        counts = route_payload(payload, offset, end, self._table, self._pending)
        pending_bytes = self._pending_bytes
        for shard_id, count in enumerate(counts):
            if not count:
                continue
            self._m_synopses.labels(shard=str(shard_id)).inc(count)
            size = sum(map(len, self._pending[shard_id]))
            pending_bytes[shard_id] = size
            if size >= self.batch_bytes:
                self._send_shard(shard_id)
        self._drain()

    def dispatch(self, synopses: Sequence[TaskSynopsis]) -> None:
        """Object-path convenience: route already-decoded synopses.

        Encodes each synopsis once and routes the bytes; useful for
        tests and the facade's batch ``detect``.  The wire path
        (:meth:`dispatch_frame`) is the hot one.
        """
        self._check_open()
        table = self._table
        pending = self._pending
        pending_bytes = self._pending_bytes
        for synopsis in synopses:
            encoded = synopsis.encode()
            shard_id = table[synopsis.stage_id & 0xFF]
            pending[shard_id].append(encoded)
            pending_bytes[shard_id] += len(encoded)
            self._m_synopses.labels(shard=str(shard_id)).inc()
            if pending_bytes[shard_id] >= self.batch_bytes:
                self._send_shard(shard_id)
        self._drain()

    def _send_shard(self, shard_id: int) -> None:
        """Re-frame and ship one shard's routed synopses to its worker."""
        bucket = self._pending[shard_id]
        if not bucket:
            return
        frames: List[bytes] = []
        for start in range(0, len(bucket), MAX_FRAME_SYNOPSES):
            chunk = bucket[start : start + MAX_FRAME_SYNOPSES]
            payload = b"".join(chunk)
            frames.append(FRAME_HEADER.pack(len(payload), len(chunk)))
            frames.append(payload)
            self._m_frames.labels(shard=str(shard_id)).inc()
            self._m_bytes.labels(shard=str(shard_id)).inc(len(payload))
        bucket.clear()
        self._pending_bytes[shard_id] = 0
        self._send(shard_id, ("frames", b"".join(frames)))

    def _send(self, shard_id: int, message) -> None:
        """Send to one worker; a dead worker surfaces as ShardWorkerError.

        A worker that hit an exception reports it and exits, so the
        parent's next send can race the exit and see a broken pipe —
        drain the pipe first so the worker's own traceback wins over a
        generic "pipe closed".
        """
        conn = self._conns[shard_id]
        try:
            conn.send(message)
        except (BrokenPipeError, ConnectionError, OSError):
            try:
                while conn.poll():
                    self._handle(conn.recv())
            except EOFError:
                pass
            raise ShardWorkerError(
                f"shard {shard_id} worker pipe closed unexpectedly"
            ) from None

    # -- merge -----------------------------------------------------------------
    def _drain(self) -> None:
        """Absorb whatever the workers have sent without blocking."""
        for conn in self._conns:
            while conn.poll():
                self._handle(conn.recv())

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "events":
            self._unmerged.extend(message[1])
        elif kind in ("snapshot", "done"):
            self._record_stats(message[1], message[2], message[3])
        elif kind == "error":
            raise ShardWorkerError(
                f"shard {message[1]} worker failed:\n{message[2]}"
            )
        else:
            raise ShardWorkerError(f"unexpected worker message {kind!r}")

    def _merge(self) -> List[AnomalyEvent]:
        """Order and resolve the events drained since the last merge."""
        events = sorted(self._unmerged, key=EVENT_ORDER)
        self._unmerged = []
        if self.tracer.enabled:
            resolved = []
            for event in events:
                if event.exemplars:
                    traces = self.tracer.pin_many(event.exemplars)
                    self._m_pinned.inc(len(traces))
                    event = replace(event, exemplars=tuple(traces))
                resolved.append(event)
            events = resolved
        else:
            # Workers only track exemplars when the deployment traces,
            # but strip defensively: keys must never pose as traces.
            events = [
                replace(event, exemplars=()) if event.exemplars else event
                for event in events
            ]
        self._m_merged.inc(len(events))
        self.anomalies.extend(events)
        return events

    def _collect_until(self, final_kind: str) -> None:
        """Block until every worker has answered with ``final_kind``."""
        for shard_id, conn in enumerate(self._conns):
            while True:
                try:
                    message = conn.recv()
                except EOFError:
                    raise ShardWorkerError(
                        f"shard {shard_id} worker exited unexpectedly"
                    ) from None
                if message[0] == final_kind:
                    self._handle(message)
                    break
                self._handle(message)

    def flush(self) -> List[AnomalyEvent]:
        """Flush every shard and return the newly merged ordered events.

        Sends any routed-but-unsent synopses, asks each worker to close
        its open windows, waits for all of them, and merges.  Also
        refreshes ``worker_stats`` / ``worker_telemetry`` and the
        ``shard_worker_*`` gauges from each worker's snapshot.
        """
        self._check_open()
        for shard_id in range(self.shards):
            self._send_shard(shard_id)
            self._send(shard_id, ("flush",))
        self._collect_until("snapshot")
        return self._merge()

    def close(self) -> List[AnomalyEvent]:
        """Shut the pool down; the final batch of merged ordered events.

        Flushes remaining windows in every worker, collects final stats
        and telemetry snapshots, and joins the processes.  Idempotent:
        closing twice returns an empty list.
        """
        if self.closed:
            return []
        self.closed = True
        try:
            for shard_id in range(self.shards):
                self._send_shard(shard_id)
                self._send(shard_id, ("close",))
            self._collect_until("done")
            return self._merge()
        finally:
            self._terminate()

    def _terminate(self) -> None:
        for conn in self._conns:
            conn.close()
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        self._m_workers.set(0)

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("sharded analyzer is closed")

    # -- context manager -------------------------------------------------------
    def __enter__(self) -> "ShardedAnalyzer":
        """Context-manager entry: the analyzer itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the pool."""
        self.close()
