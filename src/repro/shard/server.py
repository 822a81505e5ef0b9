"""Async TCP synopsis ingest (the paper's node -> analyzer transport).

:class:`SynopsisServer` is an asyncio TCP acceptor that reassembles the
length-prefixed wire frames produced by
:meth:`~repro.core.stream.SynopsisStream.flush_wire` and hands each
complete frame to a ``sink`` callable — typically
:meth:`SynopsisCollector.receive_frame
<repro.core.stream.SynopsisCollector.receive_frame>`,
:meth:`ShardedAnalyzer.dispatch_frame
<repro.shard.coordinator.ShardedAnalyzer.dispatch_frame>`, or the
columnar :meth:`AnomalyDetector.observe_batch
<repro.core.detector.AnomalyDetector.observe_batch>` for decode-free
single-process detection straight off the socket.  The event
loop runs in a daemon thread, so the server drops into synchronous
deployments (the ``SAAD`` facade, tests) without an async caller.

Overload behavior (DESIGN.md §15, docs/OPERATIONS.md §8): received
frames pass through admission control into one bounded delivery queue
drained by a pump task, so the ingest edge degrades gracefully instead
of buffering without bound —

* **Credit-based backpressure.**  A connection is granted a byte
  *credit window* at connect; every data envelope consumes credit and
  the server re-grants it (piggybacked on the per-frame ack) only when
  the frame has left the queue.  A stalled analyzer therefore
  stops the clients, not the other way around.
* **Read pausing.**  When the queue backlog crosses the high watermark
  every connection's read loop parks on a resume event
  (``transport.pause_reading``-style — the server simply stops calling
  ``readexactly``, letting TCP flow control push back), and resumes
  once the pump drains below the low watermark.
* **Load shedding.**  With a :class:`~repro.shard.shedding.LoadShedder`
  attached, admission drops head-sampled frames past the shed
  watermark (exemplar-bearing ones only past the hard watermark);
  dropped frames are acked immediately so clients keep their credit.

Protocol: every connection opens with the magic hello ``b"SAAD" +
version + flags``; one whose first bytes are anything else, or whose
version is not this server's, is closed and counted in
``shard_server_truncated``.  The client receives a hello-ack carrying
the server's version, the accepted flags (always 0: no hello flag is
honoured) and the initial credit, and then sends each frame verbatim
in a typed envelope ``(type, priority, length)``.  The server answers
each data envelope with a 9-byte ack ``(seq, credit-grant)`` that both
replenishes credit and gives the client its round-trip time signal.

Fleet observability rides the same socket (docs/OPERATIONS.md §9):

* **TELEMETRY envelopes** — a client periodically piggybacks a compact
  JSON snapshot of its local
  :class:`~repro.telemetry.MetricsRegistry`; the server files it with
  its :class:`~repro.telemetry.TelemetryFederation` under
  ``node=<id>`` labels, so one analyzer-side registry sees the whole
  fleet.  Telemetry is *control* traffic: handled inline on the loop
  (never queued, never shed) and exempt from the credit window.
* **HEALTH envelopes** — a zero-length probe any node can send; the
  server answers on the ack stream with a JSON health report from the
  attached engine (:mod:`repro.health`), so
  :meth:`FrameClient.health` gives every node a machine-readable
  ``ok``/``warn``/``critical`` verdict about its analyzer.

Framing is ``readexactly``-driven: a frame split across any number of
TCP segments reassembles correctly, and a peer that dies mid-frame is
detected (the partial tail is counted, never silently ingested).
Frames from all connections are delivered by the single pump task on
the event-loop thread, so a sink shared by many nodes sees frames
strictly sequentially; coordinate externally before feeding the same
sink from other threads as well.

:class:`FrameClient` is the node-side counterpart: a credit-respecting
blocking TCP sender whose instances are valid ``frame_sink`` callables
for :class:`~repro.core.stream.SynopsisStream`, with an
:class:`AdaptiveFlush` controller tuning the recommended frame batch
size from observed ack latency.
"""

from __future__ import annotations

import asyncio
import json
import select
import socket
import struct
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.synopsis import MAX_FRAME_SYNOPSES
from repro.telemetry import NULL_REGISTRY

from .shedding import PRIORITY_SAMPLED, LoadShedder

__all__ = ["SynopsisServer", "FrameClient", "AdaptiveFlush"]

_MAX_FRAME_PAYLOAD = 1 << 26  # 64 MiB: reject absurd length prefixes early

# -- ingest protocol ----------------------------------------------------------
#: Connection magic: the first four bytes of every hello and hello-ack.
_MAGIC = b"SAAD"
#: The envelope set below (data, control, reroute) and the watermark
#: ack record.  A client refuses a server that answers with any other
#: version, and the server closes a hello that carries one.
_PROTOCOL_VERSION = 3

#: Client hello: magic, version, requested flags.  The flags byte is
#: kept for layout compatibility; the server accepts none of them.
_HELLO = struct.Struct("<4sBB")

#: Server hello-ack: magic, version, accepted flags (always 0), credit
#: window.
_HELLO_ACK = struct.Struct("<4sBBI")

#: Data envelope header (client -> server): type, priority, length.
_ENVELOPE = struct.Struct("<BBI")
_ENV_DATA = 0  # payload is one wire frame, verbatim
_ENV_BYE = 2  # clean shutdown marker, length 0
_ENV_TELEMETRY = 3  # payload is a JSON registry snapshot (federation)
_ENV_HEALTH = 5  # health probe, length 0; answered on the ack stream
#: Fleet reroute envelopes (DESIGN.md §16).  Both ride the delivery
#: queue like data — a reroute instruction handled inline would
#: overtake data frames already queued ahead of it — but neither may
#: ever be shed: they carry correctness, not load.
_ENV_REPLAY = 6  # payload is one wire frame replayed after a ring change
_ENV_DISOWN = 7  # payload is raw stage-id bytes the analyzer must drop

#: Control envelopes are exempt from the credit window: they are small,
#: rare, handled inline on the loop (never queued), and must keep
#: flowing precisely when the data path is saturated.
_CONTROL_ENVELOPES = frozenset({_ENV_TELEMETRY, _ENV_HEALTH})

#: Ack (server -> client): type, cumulative data-envelope seq, grant.
_ACK = struct.Struct("<BII")
_ACK_GRANT = 0
#: Health report record on the ack stream: ``(type, 0, length)``
#: followed by ``length`` bytes of JSON report.
_ACK_HEALTH = 1
#: Watermark record on the ack stream: ``(type, 0, 8)`` followed by an
#: 8-byte little-endian double — the analyzer's event-time watermark.
#: Piggybacked on every data-frame grant when the server has a
#: ``watermark`` source, so senders learn which of their retained
#: windows the analyzer has already finalized (replay pruning).
_ACK_WATERMARK = 2
_WATERMARK = struct.Struct("<d")

#: Default per-connection credit window (bytes in flight).
DEFAULT_CREDIT_WINDOW = 1 << 18

#: Default delivery-queue watermarks (bytes): reads pause above high,
#: resume below low.
DEFAULT_HIGH_WATERMARK = 1 << 22


class SynopsisServer:
    """Asyncio TCP collector for wire frames, with overload control.

    Parameters
    ----------
    sink:
        Callable receiving each complete frame's bytes (header
        included) — the same contract as a stream's ``frame_sink``.
        May be a coroutine function; it is awaited by the pump, letting
        slow analyzers exert backpressure without blocking the loop.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`address`
        after :meth:`start`).
    registry:
        Telemetry registry for the ``shard_server_*`` / ``server_*``
        metrics; defaults to :data:`~repro.telemetry.NULL_REGISTRY`.
    credit_window:
        Byte credit granted to each connection at connect — its
        maximum in-flight wire bytes.  Must comfortably exceed the
        largest frame a node flushes or senders serialize on the ack
        round-trip.
    high_watermark, low_watermark:
        Delivery-queue backlog (bytes) at which connection reads pause
        / resume.  ``low_watermark`` defaults to half the high one.
    shedder:
        Optional :class:`~repro.shard.shedding.LoadShedder` consulted
        at admission; dropped frames never occupy queue memory and are
        acked immediately so the sender's credit survives.
    federation:
        Destination for TELEMETRY envelopes — anything with an
        ``absorb(node, families)`` method, typically
        ``registry.federation()`` (see
        :class:`~repro.telemetry.TelemetryFederation`).  None discards
        remote snapshots (still counted in
        ``server_telemetry_snapshots``).
    health:
        Zero-argument callable returning a JSON-able health report dict
        (e.g. a bound :meth:`repro.health.HealthEngine.report_dict`),
        answered to HEALTH probes.  None answers with an ``unknown``
        verdict so probing a bare collector still round-trips.
    replay_sink:
        Callable receiving REPLAY frames (fleet reroute, DESIGN.md
        §16) — typically :meth:`AnomalyDetector.absorb_frame
        <repro.core.detector.AnomalyDetector.absorb_frame>`, which
        defers window closes until the whole replayed frame is
        applied.  None falls back to ``sink`` (a plain collector
        treats replayed data as data).
    disown:
        Callable receiving a list of stage ids this analyzer must stop
        owning — typically :meth:`AnomalyDetector.disown
        <repro.core.detector.AnomalyDetector.disown>`.  None ignores
        DISOWN envelopes (counted, dropped).
    watermark:
        Zero-argument callable returning the analyzer's event-time
        watermark (:attr:`AnomalyDetector.watermark
        <repro.core.detector.AnomalyDetector.watermark>`); when set,
        every data-frame grant piggybacks the current value on the ack
        stream so senders can prune their replay-retention buffers.
    """

    def __init__(
        self,
        sink: Callable[[bytes], None],
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        *,
        credit_window: Optional[int] = None,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        shedder: Optional[LoadShedder] = None,
        federation=None,
        health: Optional[Callable[[], dict]] = None,
        replay_sink: Optional[Callable[[bytes], None]] = None,
        disown: Optional[Callable[[List[int]], None]] = None,
        watermark: Optional[Callable[[], float]] = None,
    ):
        self.sink = sink
        self.replay_sink = replay_sink
        self.disown = disown
        self.watermark = watermark
        self.host = host
        self.port = port
        self.credit_window = (
            credit_window if credit_window is not None else DEFAULT_CREDIT_WINDOW
        )
        self.high_watermark = (
            high_watermark if high_watermark is not None else DEFAULT_HIGH_WATERMARK
        )
        self.low_watermark = (
            low_watermark if low_watermark is not None else self.high_watermark // 2
        )
        if self.credit_window < 1:
            raise ValueError(f"credit_window must be >= 1: {self.credit_window}")
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ValueError(
                f"need 0 <= low_watermark <= high_watermark, got "
                f"{self.low_watermark} / {self.high_watermark}"
            )
        self.shedder = shedder
        self.federation = federation
        self.health = health
        self._sink_is_async = asyncio.iscoroutinefunction(sink)
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_connections = registry.counter(
            "shard_server_connections", "TCP synopsis connections accepted"
        )
        self._m_frames = registry.counter(
            "shard_server_frames", "wire frames ingested over TCP"
        )
        self._m_bytes = registry.counter(
            "shard_server_bytes", "wire bytes ingested over TCP (headers included)"
        )
        self._m_truncated = registry.counter(
            "shard_server_truncated",
            "connections closed on a malformed or truncated stream",
        )
        self._m_delivered = registry.counter(
            "server_frames_delivered",
            "ingested frames handed to the sink (received minus shed)",
        )
        self._m_credits = registry.counter(
            "server_credits_granted",
            "credit bytes granted to connections (window + acks)",
        )
        self._m_paused = registry.counter(
            "server_reads_paused",
            "times a connection's reads were paused at the high watermark",
        )
        self._m_paused_now = registry.gauge(
            "server_paused_connections",
            "connections currently parked at the high watermark "
            "(cleared on resume or connection teardown)",
        )
        self._m_telemetry = registry.counter(
            "server_telemetry_snapshots",
            "TELEMETRY envelopes received (federated registry snapshots)",
        )
        self._m_telemetry_rejected = registry.counter(
            "server_telemetry_rejected",
            "TELEMETRY envelopes dropped (undecodable payload)",
        )
        self._m_health_probes = registry.counter(
            "server_health_probes", "HEALTH probes answered on the ack stream"
        )
        self._m_replayed = registry.counter(
            "server_replay_frames",
            "REPLAY frames absorbed after a fleet reroute",
        )
        self._m_disowns = registry.counter(
            "server_disowns", "DISOWN envelopes applied (stages dropped)"
        )
        self._m_sink_errors = registry.counter(
            "server_sink_errors", "frames the sink raised on (dropped, counted)"
        )
        registry.gauge(
            "server_pending_bytes",
            "frame bytes admitted but not yet handed to the sink",
        ).set_function(lambda: self._pending_bytes)
        watermarks = registry.gauge(
            "ingest_watermark_bytes",
            "configured ingest backlog watermarks (bytes)",
            labels=("kind",),
        )
        watermarks.labels(kind="high").set_function(lambda: self.high_watermark)
        watermarks.labels(kind="low").set_function(lambda: self.low_watermark)
        self._pending_bytes = 0
        self._queue: Optional[asyncio.Queue] = None
        self._resume: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def pending_bytes(self) -> int:
        """Frame bytes admitted but not yet handed to the sink."""
        return self._pending_bytes

    # -- admission + delivery (event-loop side) ------------------------------
    async def _admit(
        self,
        frame: bytes,
        priority: int,
        writer,
        seq: int,
        wire: int,
        closed: "asyncio.Task",
        deliver: Optional[Callable[[bytes], None]] = None,
        sheddable: bool = True,
    ):
        """Admission control for one received frame.

        Sheds against the current backlog (acking immediately so the
        sender keeps its credit), else queues for the pump, then pauses
        this connection's reads while the backlog sits above the high
        watermark.  The pause is connection-aware:
        it also ends when this connection's transport dies, so an
        abruptly disconnected peer never leaves its handler — or the
        ``server_paused_connections`` gauge — wedged behind a stalled
        sink.

        ``deliver`` overrides the pump's sink for this frame (the
        reroute envelopes route to the replay/disown handlers but must
        stay *ordered* with queued data, so they ride the same queue);
        ``sheddable=False`` exempts it from the shedder — reroute
        envelopes carry correctness, not load.
        """
        if (
            sheddable
            and self.shedder is not None
            and not self.shedder.admit(priority, len(frame), self._pending_bytes)
        ):
            self._grant(writer, seq, wire)
            return
        self._pending_bytes += len(frame)
        self._queue.put_nowait((frame, writer, seq, wire, deliver))
        if self._pending_bytes > self.high_watermark and self._resume.is_set():
            self._resume.clear()
        if not self._resume.is_set():
            self._m_paused.inc()
            self._m_paused_now.inc()
            try:
                await self._pause(closed)
            finally:
                self._m_paused_now.dec()

    async def _pause(self, closed: "asyncio.Task") -> None:
        """Park until the pump drains below the low watermark — or until
        this connection's transport closes, whichever comes first.

        ``closed`` is the connection's long-lived close watcher (made
        once in :meth:`_handle`; cancelling a fresh ``wait_closed``
        task here would poison the protocol's shared close waiter).
        Raises ``ConnectionResetError`` when the peer died first, so
        the read loop tears the connection down instead of staying
        parked behind a sink that may never drain (the per-connection
        gauge-leak regression, tests/shard/test_federation.py).
        """
        resume = asyncio.ensure_future(self._resume.wait())
        done, _pending = await asyncio.wait(
            {resume, closed}, return_when=asyncio.FIRST_COMPLETED
        )
        if resume in done:
            return
        resume.cancel()
        await asyncio.gather(resume, return_exceptions=True)
        raise ConnectionResetError("peer disconnected while paused")

    def _grant(self, writer, seq: int, grant: int) -> None:
        """Ack one data envelope, re-granting its wire bytes as credit.

        With a ``watermark`` source attached the grant carries a
        watermark record right behind it — one extra 17-byte write per
        ack keeps every sender's replay-retention horizon current
        without a separate control channel.
        """
        record = _ACK.pack(_ACK_GRANT, seq, grant)
        if self.watermark is not None:
            try:
                mark = float(self.watermark())
            except Exception:
                mark = None
            if mark is not None:
                record += _ACK.pack(
                    _ACK_WATERMARK, 0, _WATERMARK.size
                ) + _WATERMARK.pack(mark)
        try:
            writer.write(record)
        except (ConnectionError, OSError, RuntimeError):
            pass  # peer already gone; its credit no longer matters
        self._m_credits.inc(grant)

    async def _pump(self) -> None:
        """Single consumer draining the delivery queue into the sink.

        Credit is re-granted only here (or at shed time), after the
        frame has left the queue — that is what makes the client-side
        credit window a bound on server-side ingest memory.
        """
        queue = self._queue
        while True:
            frame, writer, seq, wire, deliver = await queue.get()
            try:
                if deliver is not None:
                    deliver(frame)
                elif self._sink_is_async:
                    await self.sink(frame)
                else:
                    self.sink(frame)
                self._m_delivered.inc()
            except asyncio.CancelledError:
                raise
            except Exception:
                self._m_sink_errors.inc()
            finally:
                self._pending_bytes -= len(frame)
                self._grant(writer, seq, wire)
                if (
                    self._pending_bytes <= self.low_watermark
                    and not self._resume.is_set()
                ):
                    self._resume.set()
                queue.task_done()

    async def _handle(self, reader, writer) -> None:
        self._m_connections.inc()
        # One close watcher for the connection's whole life: _pause
        # selects on it, and it is never cancelled (cancelling a task
        # awaiting wait_closed poisons the protocol's close waiter).
        closed = asyncio.ensure_future(writer.wait_closed())
        try:
            try:
                hello = await reader.readexactly(_HELLO.size)
            except asyncio.IncompleteReadError as partial:
                if partial.partial:
                    self._m_truncated.inc()
                return
            magic, version, _flags = _HELLO.unpack(hello)
            if magic != _MAGIC or version != _PROTOCOL_VERSION:
                self._m_truncated.inc()
                return
            try:
                await self._serve(reader, writer, closed)
            except (ConnectionError, OSError):
                pass  # peer died mid-conversation; teardown below
        except asyncio.CancelledError:
            # Abrupt server close with this connection mid-read (fleet
            # kill drill): end quietly.  asyncio.streams' accept
            # callback calls task.exception(); a cancelled verdict
            # there is logged as "Exception in callback" noise.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            await asyncio.gather(closed, return_exceptions=True)

    async def _serve(self, reader, writer, closed) -> None:
        """The credit/ack envelope protocol behind the magic hello.

        Every hello is answered with accepted flags 0: a client that
        sets a hello flag learns it was declined and sends plain
        envelopes.
        """
        writer.write(_HELLO_ACK.pack(_MAGIC, _PROTOCOL_VERSION, 0, self.credit_window))
        self._m_credits.inc(self.credit_window)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            return
        seq = 0
        while True:
            try:
                head = await reader.readexactly(_ENVELOPE.size)
            except asyncio.IncompleteReadError as partial:
                if partial.partial:
                    self._m_truncated.inc()
                return
            etype, priority, length = _ENVELOPE.unpack(head)
            if etype == _ENV_BYE:
                return
            known = (
                etype in (_ENV_DATA, _ENV_REPLAY, _ENV_DISOWN)
                or etype in _CONTROL_ENVELOPES
            )
            if not known or length > _MAX_FRAME_PAYLOAD:
                self._m_truncated.inc()
                return
            try:
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                self._m_truncated.inc()
                return
            if etype == _ENV_HEALTH:
                self._answer_health(writer)
                continue
            if etype == _ENV_TELEMETRY:
                self._absorb_telemetry(payload)
                continue
            wire = _ENVELOPE.size + length
            if etype in (_ENV_REPLAY, _ENV_DISOWN):
                # Reroute traffic: queued (ordering with data frames is
                # the point), credit-accounted, never shed.
                seq += 1
                self._m_frames.inc()
                self._m_bytes.inc(wire)
                deliver = (
                    self._deliver_replay
                    if etype == _ENV_REPLAY
                    else self._deliver_disown
                )
                await self._admit(
                    payload, priority, writer, seq, wire, closed,
                    deliver=deliver, sheddable=False,
                )
                continue
            seq += 1
            self._m_frames.inc()
            self._m_bytes.inc(wire)
            await self._admit(payload, priority, writer, seq, wire, closed)

    # -- fleet reroute (queued control, DESIGN.md §16) -------------------------
    def _deliver_replay(self, frame: bytes) -> None:
        """Pump-side delivery of one REPLAY frame."""
        self._m_replayed.inc()
        sink = self.replay_sink if self.replay_sink is not None else self.sink
        sink(frame)

    def _deliver_disown(self, payload: bytes) -> None:
        """Pump-side delivery of one DISOWN envelope (stage-id bytes)."""
        self._m_disowns.inc()
        if self.disown is not None:
            self.disown(list(payload))

    # -- fleet observability (control envelopes) ------------------------------
    def _absorb_telemetry(self, payload: bytes) -> None:
        """File one TELEMETRY envelope with the federation.

        The payload is JSON ``{"node": <id>, "families": [...]}`` in the
        registry snapshot wire form; anything undecodable is counted and
        dropped — a misbehaving node must not take the ingest edge down.
        """
        try:
            record = json.loads(payload.decode("utf-8"))
            node = str(record["node"])
            families = record["families"]
        except (ValueError, KeyError, TypeError):
            self._m_telemetry_rejected.inc()
            return
        self._m_telemetry.inc()
        if self.federation is None:
            return
        try:
            self.federation.absorb(node, families)
        except (ValueError, KeyError, TypeError, AttributeError):
            self._m_telemetry_rejected.inc()

    def _answer_health(self, writer) -> None:
        """Answer one HEALTH probe on the ack stream."""
        report: Optional[dict] = None
        if self.health is not None:
            try:
                report = self.health()
            except Exception:
                report = {"state": "unknown", "error": "health engine raised"}
        if report is None:
            report = {"state": "unknown", "error": "no health engine attached"}
        body = json.dumps(report, sort_keys=True).encode("utf-8")
        try:
            writer.write(_ACK.pack(_ACK_HEALTH, 0, len(body)) + body)
        except (ConnectionError, OSError, RuntimeError):
            pass  # prober already gone
        self._m_health_probes.inc()

    # -- lifecycle (caller side) ---------------------------------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot():
            self._queue = asyncio.Queue()
            self._resume = asyncio.Event()
            self._resume.set()
            self._pump_task = loop.create_task(self._pump())
            return await asyncio.start_server(self._handle, self.host, self.port)

        try:
            self._server = loop.run_until_complete(boot())
            sockname = self._server.sockets[0].getsockname()
            self._address = (sockname[0], sockname[1])
        except BaseException as exc:  # bind failure -> surface in start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            # Cancel everything still pending — the pump plus any
            # connection handlers mid-read (an abrupt close with live
            # peers, e.g. a fleet kill drill, must not leak "task was
            # destroyed but it is pending" warnings at loop teardown).
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(
                    *pending, self._server.wait_closed(), return_exceptions=True
                )
            )
            loop.close()

    async def _drain_for_close(self) -> None:
        """Stop accepting, then give admitted frames a bounded window to
        reach the sink — a clean close should not lose the tail."""
        self._server.close()
        await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._queue.join(), timeout=5.0)
        except asyncio.TimeoutError:
            pass

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; the bound ``(host, port)``."""
        if self._thread is not None:
            return self.address
        self._thread = threading.Thread(
            target=self._run, name="saad-synopsis-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread = None
            raise error
        return self.address

    def close(self) -> None:
        """Stop accepting, drain admitted frames, close the loop, join
        the thread.  Idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                drained = asyncio.run_coroutine_threadsafe(
                    self._drain_for_close(), loop
                )
                drained.result(timeout=10)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    def __enter__(self) -> "SynopsisServer":
        """Context-manager entry: start and return the server."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the server."""
        self.close()


class AdaptiveFlush:
    """Bounded AIMD controller for the node-side frame batch size.

    Tracks a smoothed ack round-trip time and tunes the recommended
    ``flush_size`` (synopses per wire frame) the way a congestion window
    moves: *additive increase* — while the smoothed RTT sits at or under
    ``target_rtt_us``, grow by ``step`` to amortize per-frame header,
    syscall, and ack costs; *multiplicative decrease* — the moment it
    exceeds the target, halve, shrinking the burst a congested analyzer
    must absorb per frame and with it this sender's share of the credit
    window in flight.  The value is always clamped to
    ``[min_size, max_size]`` so a pathological RTT series can neither
    starve batching nor exceed the wire format's frame capacity.
    """

    def __init__(
        self,
        initial: int = 64,
        min_size: int = 8,
        max_size: int = 1024,
        step: int = 8,
        target_rtt_us: float = 2000.0,
        smoothing: float = 0.2,
    ):
        if not 1 <= min_size <= initial <= max_size <= MAX_FRAME_SYNOPSES:
            raise ValueError(
                f"need 1 <= min_size <= initial <= max_size <= "
                f"{MAX_FRAME_SYNOPSES}, got {min_size}/{initial}/{max_size}"
            )
        if step < 1:
            raise ValueError(f"step must be >= 1: {step}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1]: {smoothing}")
        self.min_size = min_size
        self.max_size = max_size
        self.step = step
        self.target_rtt_us = float(target_rtt_us)
        self.smoothing = smoothing
        self.size = initial
        self.rtt_us = 0.0

    def observe(self, rtt_us: float) -> int:
        """Fold one ack round-trip sample in; the new recommended size."""
        if self.rtt_us == 0.0:
            self.rtt_us = float(rtt_us)
        else:
            s = self.smoothing
            self.rtt_us = (1.0 - s) * self.rtt_us + s * float(rtt_us)
        if self.rtt_us > self.target_rtt_us:
            self.size = max(self.min_size, self.size // 2)
        else:
            self.size = min(self.max_size, self.size + self.step)
        return self.size


class FrameClient:
    """Credit-respecting blocking TCP sender for wire frames (node side).

    An instance is a valid ``frame_sink``: construct with the server's
    address and hand it to :class:`~repro.core.stream.SynopsisStream`
    — every flushed frame is written to the socket.  The client opens
    with the magic hello and then speaks the envelope protocol (credit
    backpressure, per-frame acks); the
    constructor raises ``ConnectionError`` when the peer does not
    answer as a protocol-version-3 synopsis server.

    Parameters
    ----------
    address:
        The server's ``(host, port)``.
    timeout:
        Socket timeout, and the bound on a blocked credit wait.
    registry:
        Telemetry registry for the ``client_*`` metrics (labelled by
        ``peer``); defaults to :data:`~repro.telemetry.NULL_REGISTRY`.
    priority_fn:
        Optional ``frame -> priority`` classifier consulted when
        :meth:`send` is not given an explicit priority — e.g.
        :meth:`~repro.core.columnar.CompiledModel.frame_priority`, which
        raises a frame only for a signature novel on its own host (not
        for flow or performance outliers).
    adaptive:
        The :class:`AdaptiveFlush` controller to tune from ack RTTs; a
        default-configured one is built when omitted.
    on_flush_size:
        Callback fired with the new recommended ``flush_size`` whenever
        the controller changes it (the facade points this at the node's
        stream).
    node:
        This node's identity for federated telemetry — the ``node=``
        label value the analyzer files our snapshots under.  Defaults
        to this socket's local ``host:port``.
    telemetry_source:
        Where :meth:`send_telemetry` snapshots from — a registry-like
        object with ``collect()`` (typically this node's
        :class:`~repro.telemetry.MetricsRegistry`) or a zero-argument
        callable returning a families list.  None disables telemetry
        pushes.
    telemetry_interval_s:
        Piggyback cadence: while a ``telemetry_source`` is set,
        :meth:`send` pushes a fresh snapshot whenever at least this many
        seconds have passed since the last one.  None pushes only on
        explicit :meth:`send_telemetry` calls.
    clock:
        The seconds clock that stamps each send and its ack, the ack
        round-trip times the ``adaptive`` controller is tuned from.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 10.0,
        *,
        registry=None,
        priority_fn: Optional[Callable[[bytes], int]] = None,
        adaptive: Optional[AdaptiveFlush] = None,
        on_flush_size: Optional[Callable[[int], None]] = None,
        node: Optional[str] = None,
        telemetry_source=None,
        telemetry_interval_s: Optional[float] = 30.0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        self.bytes_sent = 0
        self.frames_sent = 0
        self._closed = False
        self._priority_fn = priority_fn
        self._adaptive = adaptive if adaptive is not None else AdaptiveFlush()
        self._on_flush_size = on_flush_size
        self._credit = 0
        self._window = 0
        self._seq = 0
        self._acked = 0
        self._send_times: Dict[int, float] = {}
        self._clock = clock
        self._ackbuf = b""
        self._server_version = 0
        self._health_reports: List[dict] = []
        self._peer_watermark = float("-inf")
        if node is None:
            local = self._sock.getsockname()
            node = f"{local[0]}:{local[1]}"
        self.node = str(node)
        self._telemetry_source = telemetry_source
        self.telemetry_interval_s = telemetry_interval_s
        self._last_telemetry: Optional[float] = None
        registry = registry if registry is not None else NULL_REGISTRY
        peer = f"{address[0]}:{address[1]}"
        labels = ("peer",)
        registry.gauge(
            "client_flush_size",
            "recommended synopses per frame (AIMD-tuned from ack RTT)",
            labels=labels,
        ).labels(peer=peer).set_function(lambda: self._adaptive.size)
        registry.gauge(
            "client_rtt_us",
            "smoothed frame ack round-trip time (microseconds)",
            labels=labels,
        ).labels(peer=peer).set_function(lambda: self._adaptive.rtt_us)
        self._m_stalls = registry.counter(
            "client_credit_stalls",
            "sends that blocked waiting for the server to re-grant credit",
            labels=labels,
        ).labels(peer=peer)
        self._m_telemetry_pushes = registry.counter(
            "client_telemetry_pushes",
            "registry snapshots pushed to the analyzer (TELEMETRY envelopes)",
            labels=labels,
        ).labels(peer=peer)
        self._handshake()

    # -- introspection -------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def credit(self) -> int:
        """Current send credit in bytes."""
        return self._credit

    @property
    def server_version(self) -> int:
        """The server's protocol version from the hello-ack."""
        return self._server_version

    @property
    def flush_size(self) -> int:
        """The controller's current recommended synopses per frame."""
        return self._adaptive.size

    @property
    def seq(self) -> int:
        """Sequence number of the last data/reroute envelope sent."""
        return self._seq

    @property
    def acked(self) -> int:
        """Highest cumulative sequence the server has acked."""
        return self._acked

    @property
    def peer_watermark(self) -> float:
        """The analyzer's last advertised event-time watermark.

        ``-inf`` until the first watermark record arrives (a server
        without a watermark source never advertises).
        The fleet router prunes its per-stage replay retention against
        this: a window whose end the watermark has passed is already
        finalized — and its events emitted — at the analyzer.
        """
        return self._peer_watermark

    @property
    def rtt_us(self) -> float:
        """Smoothed ack round-trip time in microseconds (0 before acks)."""
        return self._adaptive.rtt_us

    # -- wire ----------------------------------------------------------------
    def _handshake(self) -> None:
        """Exchange hello / hello-ack; the socket is closed on any failure."""
        try:
            self._sock.sendall(_HELLO.pack(_MAGIC, _PROTOCOL_VERSION, 0))
            ack = self._recv_exact(_HELLO_ACK.size)
            magic, version, _accepted, window = _HELLO_ACK.unpack(ack)
            if magic != _MAGIC:
                raise ConnectionError("peer is not a SAAD synopsis server")
            if version != _PROTOCOL_VERSION:
                raise ConnectionError(
                    f"server speaks protocol version {version}, "
                    f"this client speaks {_PROTOCOL_VERSION}"
                )
        except BaseException:
            self._sock.close()
            raise
        self._server_version = version
        self._window = self._credit = window

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n > 0:
            chunk = self._sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def __call__(self, frame: bytes) -> None:
        """The ``frame_sink`` protocol: :meth:`send`."""
        self.send(frame)

    def send(self, frame: bytes, priority: Optional[int] = None) -> None:
        """Write one frame to the socket, respecting the credit window.

        The frame travels verbatim in a data envelope; if the
        envelope exceeds the remaining credit, the call blocks draining
        acks until the server re-grants enough (``client_credit_stalls``
        counts these waits, bounded by ``timeout``).  ``priority``
        defaults to the ``priority_fn`` classification, else
        head-sampled.
        """
        if self._closed:
            raise RuntimeError("FrameClient is closed; send() after close()")
        if priority is None:
            priority = (
                self._priority_fn(frame)
                if self._priority_fn is not None
                else PRIORITY_SAMPLED
            )
        self._send_sequenced(_ENVELOPE.pack(_ENV_DATA, priority, len(frame)) + frame)
        self._maybe_push_telemetry()

    def _send_sequenced(self, envelope: bytes) -> None:
        """Write one credit-accounted, seq-numbered envelope."""
        need = len(envelope)
        self._drain_acks()
        # An envelope larger than the whole window can never be fully
        # covered; sending at full credit (briefly going negative) keeps
        # it deadlock-free while still serializing on the round-trip.
        floor = min(need, self._window)
        if self._credit < floor:
            self._m_stalls.inc()
            deadline = time.monotonic() + self.timeout
            while self._credit < floor:
                self._drain_acks(deadline=deadline)
        self._sock.sendall(envelope)
        self._credit -= need
        self._seq += 1
        self._send_times[self._seq] = self._clock()
        self.bytes_sent += need
        self.frames_sent += 1

    def send_replay(self, frame: bytes) -> None:
        """Replay one wire frame after a fleet reroute (DESIGN.md §16).

        The frame rides a REPLAY envelope: queued behind any data
        frames already in flight on this connection (ordering is the
        contract), credit-accounted like data, never shed, and
        delivered to the server's ``replay_sink`` — the detector's
        deferred-close absorb path — instead of its data sink.  Raises
        ``RuntimeError`` after :meth:`close`.
        """
        self._check_open("send_replay")
        self._send_sequenced(_ENVELOPE.pack(_ENV_REPLAY, 0, len(frame)) + frame)

    def send_disown(self, stage_ids) -> None:
        """Tell this analyzer to drop its open windows for ``stage_ids``.

        Sent to a still-alive *previous* owner after the ring moved
        stages away from it: the router has replayed the same synopses
        to the new owner, so the old owner must forget its partial
        buckets without emitting (no double counting).  The envelope is
        queued behind in-flight data frames, so a data frame for a
        moved stage that was already on the wire is observed first and
        then disowned with the rest.  Raises ``RuntimeError`` after
        :meth:`close`.
        """
        payload = bytes(stage_id & 0xFF for stage_id in stage_ids)
        self._check_open("send_disown")
        self._send_sequenced(_ENVELOPE.pack(_ENV_DISOWN, 0, len(payload)) + payload)

    def _check_open(self, what: str) -> None:
        if self._closed:
            raise RuntimeError(f"FrameClient is closed; {what}() after close()")

    def _maybe_push_telemetry(self) -> None:
        """Piggyback a registry snapshot when the cadence is due."""
        if self._telemetry_source is None or self.telemetry_interval_s is None:
            return
        now = time.monotonic()
        if (
            self._last_telemetry is not None
            and now - self._last_telemetry < self.telemetry_interval_s
        ):
            return
        try:
            self.send_telemetry()
        except (ValueError, RuntimeError):
            pass  # source vanished or connection mid-close; data path wins

    def send_telemetry(self, families: Optional[list] = None) -> None:
        """Push one registry snapshot to the analyzer, immediately.

        ``families`` defaults to a fresh ``collect()`` from the
        configured ``telemetry_source``.  The snapshot rides a
        TELEMETRY envelope outside the credit window, so it cannot
        stall — or be stalled by — the data path.  Raises
        ``RuntimeError`` after :meth:`close` and ``ValueError`` when no
        families are given and no source is configured.
        """
        self._check_open("send_telemetry")
        if families is None:
            source = self._telemetry_source
            if source is None:
                raise ValueError("no telemetry_source configured and no families given")
            families = source.collect() if hasattr(source, "collect") else source()
        body = json.dumps(
            {"node": self.node, "families": families}, sort_keys=True
        ).encode("utf-8")
        self._sock.sendall(_ENVELOPE.pack(_ENV_TELEMETRY, 0, len(body)) + body)
        self.bytes_sent += _ENVELOPE.size + len(body)
        self._m_telemetry_pushes.inc()
        self._last_telemetry = time.monotonic()

    def health(self, timeout: Optional[float] = None) -> dict:
        """Probe the analyzer's health engine; its JSON report as a dict.

        Sends a HEALTH envelope and blocks (up to ``timeout``, default
        the socket timeout) for the report on the ack stream — credit
        grants arriving meanwhile are absorbed normally, so probing is
        safe mid-stream.  Raises ``RuntimeError`` after :meth:`close`
        and ``TimeoutError`` when no report lands in time.
        """
        self._check_open("health")
        self._sock.sendall(_ENVELOPE.pack(_ENV_HEALTH, 0, 0))
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        while not self._health_reports:
            try:
                self._drain_acks(deadline=deadline)
            except TimeoutError:
                raise TimeoutError("timed out waiting for the health report")
        return self._health_reports.pop(0)

    def _drain_acks(self, deadline: Optional[float] = None) -> None:
        """Absorb pending acks; with a deadline, wait for at least one.

        Each ack replenishes credit and closes the RTT loop feeding the
        :class:`AdaptiveFlush` controller.
        """
        size = _ACK.size
        while True:
            if deadline is None:
                wait = 0.0
            else:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise TimeoutError(
                        "timed out waiting for ingest credit (server "
                        "backlogged past its watermarks, or gone)"
                    )
            ready = select.select([self._sock], [], [], wait)[0]
            if not ready:
                if deadline is None:
                    return
                continue
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._ackbuf += chunk
            progressed = False
            while len(self._ackbuf) >= size:
                kind, seq, grant = _ACK.unpack_from(self._ackbuf)
                if kind in (_ACK_HEALTH, _ACK_WATERMARK):
                    # ``grant`` doubles as the body length; wait for
                    # the full record before consuming anything.
                    if len(self._ackbuf) < size + grant:
                        break
                    body = self._ackbuf[size : size + grant]
                    self._ackbuf = self._ackbuf[size + grant :]
                    if kind == _ACK_WATERMARK:
                        if len(body) == _WATERMARK.size:
                            mark = _WATERMARK.unpack(body)[0]
                            if mark > self._peer_watermark:
                                self._peer_watermark = mark
                        continue  # liveness only; acks still pending
                    try:
                        self._health_reports.append(json.loads(body.decode("utf-8")))
                    except ValueError:
                        self._health_reports.append(
                            {"state": "unknown", "error": "undecodable health report"}
                        )
                    progressed = True
                    continue
                self._ackbuf = self._ackbuf[size:]
                if kind != _ACK_GRANT:
                    continue
                self._credit += grant
                progressed = True
                sent_at = self._send_times.pop(seq, None)
                if sent_at is not None:
                    before = self._adaptive.size
                    # One controller step per ack — inherently scalar.
                    after = self._adaptive.observe(
                        (self._clock() - sent_at) * 1e6
                    )
                    if after != before and self._on_flush_size is not None:
                        self._on_flush_size(after)
                if seq > self._acked:
                    self._acked = seq
            if deadline is None or progressed:
                return

    def wait_acked(self, timeout: Optional[float] = None) -> None:
        """Block until every sent data envelope has been acked.

        Useful before :meth:`close` when the caller wants delivery (not
        just transmission) confirmed.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        while self._acked < self._seq:
            self._drain_acks(deadline=deadline)

    def close(self) -> None:
        """Shut the connection down cleanly.  Idempotent.

        Sends the BYE envelope first so the server can tell a clean
        goodbye from a mid-frame death.  After ``close()``, :meth:`send`
        raises ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(_ENVELOPE.pack(_ENV_BYE, 0, 0))
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "FrameClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the connection."""
        self.close()
