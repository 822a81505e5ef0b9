"""Synopsis streaming from nodes to the central analyzer (paper Sec. 3.1).

Each node's tracker writes into a :class:`SynopsisStream`; streams from
all nodes feed a :class:`SynopsisCollector`.  The stream can optionally
account the binary wire volume that the Fig. 8 experiment measures and
batch encoded synopses into length-prefixed frames (see
:func:`repro.core.synopsis.encode_frame`) for transport.

Hot-path note: with ``wire_format=True`` each synopsis is encoded exactly
once — the encoded payload is buffered for the next frame flush while the
in-memory object flows on to subscribers.  When nothing reads objects
(no ``retain``, no subscribers, no tracer), the tracker skips the object
altogether and hands a finished task's fields to
:meth:`SynopsisStream.sink_fields`.  One lock per stream makes the node
edge safe on real threads; it is taken once per task, never per log
call.  Wire-level fidelity is covered by the codec round-trip property
tests instead of a per-task decode.

Telemetry: both classes keep their accounting in plain private ints
(the sink runs once per task) and register callback-backed counters
over them — ``stream_*{host=...}`` and ``collector_*`` in the metrics
catalog (docs/OPERATIONS.md).  The public ``count`` / ``bytes_streamed``
/ ... attributes survive as read-only properties.  A synopsis whose
fields do not fit the wire format (a uid past 32 bits, a negative
timestamp from clock skew) is *dropped from the wire* and counted
(``stream_synopses_dropped``, ``codec_uid_range_errors``) instead of
crashing the producing thread; in-memory subscribers still receive it.

Frames stay bytes across the collector (DESIGN §13): a wire frame is
validated structurally by the one record scanner
(:func:`repro.core.columnar.scan_frames`), forwarded to frame
subscribers as it arrived, and *retained as the frame*.
:class:`TaskSynopsis` objects are built only for whoever asks for them
— an object subscriber or a read of :attr:`SynopsisCollector.synopses`.
The collector's inlets return how many synopses they ingested.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.telemetry import MetricsRegistry

from .columnar import scan_frames
from .synopsis import (
    FRAME_HEADER,
    MAX_FRAME_SYNOPSES,
    MAX_UID,
    TaskSynopsis,
    decode_frame,
    encode_fields,
    pack_frames,
)

Subscriber = Callable[[TaskSynopsis], None]
FrameSink = Callable[[bytes], None]

DEFAULT_FLUSH_SIZE = 64


def _materialize(parts: Iterable[Union[bytes, TaskSynopsis]]) -> List[TaskSynopsis]:
    """Arrivals as objects: a ``bytes`` part is one whole validated frame."""
    out: List[TaskSynopsis] = []
    for part in parts:
        if isinstance(part, bytes):
            out.extend(decode_frame(part)[0])
        else:
            out.append(part)
    return out


class SynopsisStream:
    """Node-side outlet for task synopses.

    Parameters
    ----------
    wire_format:
        When True, each synopsis is encoded (once) and byte volume is
        accounted; encoded payloads are batched into frames of
        ``flush_size`` synopses.
    retain:
        Keep synopses in memory (handy for training-trace collection).
    flush_size:
        Number of encoded synopses per frame when ``wire_format`` is on.
    frame_sink:
        Optional callable receiving each flushed frame's bytes (a real
        transport, a file, or a :meth:`SynopsisCollector.receive_frame`).
    registry:
        Telemetry registry for the ``stream_*`` metrics; defaults to a
        private :class:`~repro.telemetry.MetricsRegistry`.
    host:
        Label value for this stream's metric children (the ``SAAD``
        facade passes the node's host id; standalone streams default
        to ``"-"``).
    """

    def __init__(
        self,
        wire_format: bool = False,
        retain: bool = True,
        flush_size: int = DEFAULT_FLUSH_SIZE,
        frame_sink: Optional[FrameSink] = None,
        registry=None,
        host: str = "-",
    ):
        if not 1 <= flush_size <= MAX_FRAME_SYNOPSES:
            raise ValueError(f"flush_size out of range: {flush_size}")
        self.wire_format = wire_format
        self.retain = retain
        self.flush_size = flush_size
        self.synopses: List[TaskSynopsis] = []
        self.subscribers: List[Subscriber] = []
        # Reentrant: sink_fields flushes while holding it, and a
        # frame_sink may reach back into this stream on the same thread.
        self._lock = threading.RLock()
        self.frame_sink = frame_sink
        self.registry = registry if registry is not None else MetricsRegistry()
        self._count = 0
        self._bytes_streamed = 0
        self._frames_flushed = 0
        self._frame_bytes = 0
        self._pending: List[bytes] = []
        host = str(host)
        labels = ("host",)
        for name, help_text, fn in (
            ("stream_synopses", "synopses accepted by the sink", lambda: self._count),
            (
                "stream_bytes",
                "encoded synopsis payload bytes",
                lambda: self._bytes_streamed,
            ),
            (
                "stream_frames",
                "wire frames flushed",
                lambda: self._frames_flushed,
            ),
            (
                "stream_frame_bytes",
                "bytes of flushed wire frames (header included)",
                lambda: self._frame_bytes,
            ),
        ):
            self.registry.counter(name, help_text, labels=labels).labels(
                host=host
            ).set_function(fn)
        self.registry.gauge(
            "stream_pending",
            "encoded synopses buffered for the next frame",
            labels=labels,
        ).labels(host=host).set_function(lambda: len(self._pending))
        self._m_dropped = self.registry.counter(
            "stream_synopses_dropped",
            "synopses dropped from the wire (unencodable fields)",
            labels=labels,
        ).labels(host=host)
        self._m_uid_range = self.registry.counter(
            "codec_uid_range_errors",
            "wire encodes rejected because the uid left the 32-bit range",
            labels=labels,
        ).labels(host=host)

    # -- accounting (telemetry-backed, read-only) ----------------------------
    @property
    def count(self) -> int:
        """Synopses accepted by :meth:`sink` so far."""
        return self._count

    @property
    def bytes_streamed(self) -> int:
        """Encoded payload bytes (from the single encode per synopsis)."""
        return self._bytes_streamed

    @property
    def frames_flushed(self) -> int:
        """Wire frames flushed so far."""
        return self._frames_flushed

    @property
    def frame_bytes(self) -> int:
        """Total bytes of flushed frames, headers included."""
        return self._frame_bytes

    @property
    def frame_sink(self) -> Optional[FrameSink]:
        """The callable receiving each flushed frame's bytes (or None).

        Pointing it at a collector's own inlet (``collector.feed`` /
        ``collector.receive_frame``) drops that collector's object-path
        subscription to this stream: the frames now carry every
        synopsis there, and a second delivery would count each twice.
        """
        return self._frame_sink

    @frame_sink.setter
    def frame_sink(self, sink: Optional[FrameSink]) -> None:
        with self._lock:
            self._frame_sink = sink
        owner = getattr(sink, "__self__", None)
        if isinstance(owner, SynopsisCollector):
            owner.detach_objects(self)

    def sink(self, synopsis: TaskSynopsis) -> None:
        """The tracker's sink callable: account, buffer, fan out.

        The object route.  A tracker whose ``sink`` is this method hands
        finished tasks to :meth:`sink_fields` instead, building no
        :class:`TaskSynopsis`, whenever nothing here reads objects:
        ``wire_format`` on, ``retain`` off, no ``subscribers`` (and the
        tracker's tracer off).  Both routes encode with the same
        :func:`~repro.core.synopsis.encode_fields`, so they flush
        byte-identical frames.  Thread-safe: the stream's lock guards
        the count, the byte totals, the pending list and the flush.
        """
        if self.wire_format:
            self.sink_fields(
                synopsis.host_id,
                synopsis.stage_id,
                synopsis.uid,
                synopsis.start_time,
                synopsis.duration,
                synopsis.log_points,
            )
        else:
            with self._lock:
                self._count += 1
                self._bytes_streamed += synopsis.encoded_size()
        if self.retain:
            self.synopses.append(synopsis)
        for subscriber in self.subscribers:
            subscriber(synopsis)

    def sink_fields(
        self,
        host_id: int,
        stage_id: int,
        uid: int,
        start_time: float,
        duration: float,
        log_points: Dict[int, int],
    ) -> None:
        """Encode one finished task from its fields and buffer it for
        the next frame (``wire_format`` streams only).

        A task whose fields do not fit the wire format (uid past 32
        bits, negative/huge timestamp from clock skew, a NaN or infinite
        start or duration, >255 log points) is counted and dropped from
        the wire instead of crashing the producing thread.  The encode
        runs outside the lock (a memoized flow packs only its header);
        appending, accounting and any flush it triggers run under it,
        so frames reach ``frame_sink`` one at a time, in flush order.
        """
        try:
            payload = encode_fields(host_id, stage_id, uid, start_time, duration, log_points)
        except (ValueError, OverflowError):
            with self._lock:
                self._count += 1
            self._m_dropped.inc()
            if not 0 <= uid <= MAX_UID:
                self._m_uid_range.inc()
            return
        with self._lock:
            self._count += 1
            self._bytes_streamed += len(payload)
            pending = self._pending
            pending.append(payload)
            if len(pending) >= self.flush_size:
                self.flush_wire()

    def flush_wire(self) -> bytes:
        """Frame and flush the pending encoded synopses; returns the frame.

        Returns ``b""`` when nothing is pending.  Called automatically
        every ``flush_size`` synopses; call explicitly at end of stream.
        Holds the stream's lock through the ``frame_sink`` call.
        """
        with self._lock:
            pending = self._pending
            if not pending:
                return b""
            (frame,) = pack_frames(pending)
            pending.clear()
            self._frames_flushed += 1
            self._frame_bytes += len(frame)
            frame_sink = self._frame_sink
            if frame_sink is not None:
                frame_sink(frame)
            return frame

    @property
    def pending_wire_count(self) -> int:
        """Encoded synopses buffered for the next frame."""
        return len(self._pending)

    def subscribe(self, subscriber: Subscriber) -> None:
        """Add a callable receiving every synopsis passed to :meth:`sink`."""
        self.subscribers.append(subscriber)

    def drain(self) -> List[TaskSynopsis]:
        """Return and clear retained synopses."""
        drained, self.synopses = self.synopses, []
        return drained


class SynopsisCollector:
    """Central analyzer inlet merging streams from every node.

    Wire frames cross it as bytes: :meth:`receive_frame` validates a
    frame with the shared record scanner (rejecting exactly what
    :func:`~repro.core.synopsis.decode_frame` rejects), hands the bytes
    to the frame subscribers, and retains *the frame* — about 40 bytes
    per task instead of a ~350-byte object.  Objects are decoded only
    on demand: for an object subscriber, or on a read of
    :attr:`synopses` / :meth:`drain`.

    Parameters
    ----------
    retain:
        Keep received synopses in memory (training-trace collection).
        :meth:`SAAD.stream_detector <repro.core.pipeline.SAAD.stream_detector>`
        turns it off; what was kept before stays until :meth:`drain`.
    registry:
        Telemetry registry for the ``collector_*`` metrics; defaults to
        a private :class:`~repro.telemetry.MetricsRegistry`.
    """

    def __init__(self, retain: bool = True, registry=None):
        self.retain = retain
        # Arrival order: TaskSynopsis objects (object path) and whole
        # frames as bytes (frame path); entries before _decoded are all
        # objects already.
        self._retained: List[Union[bytes, TaskSynopsis]] = []
        self._decoded = 0
        # Synopses held in _retained, frames counted by their records.
        self._retained_count = 0
        self.subscribers: List[Subscriber] = []
        self.frame_subscribers: List[FrameSink] = []
        self.streams: List[SynopsisStream] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        self._count = 0
        self._bytes_received = 0
        self._frames_received = 0
        self._buffer = bytearray()
        self.closed = False
        for name, help_text, fn in (
            (
                "collector_synopses",
                "synopses received from all node streams",
                lambda: self._count,
            ),
            (
                "collector_bytes",
                "wire bytes received (or accounted for object streams)",
                lambda: self._bytes_received,
            ),
            (
                "collector_frames",
                "wire frames received",
                lambda: self._frames_received,
            ),
        ):
            self.registry.counter(name, help_text).set_function(fn)
        self.registry.gauge(
            "collector_pending_bytes",
            "bytes of an incomplete wire frame awaiting reassembly",
        ).set_function(lambda: len(self._buffer))
        self.registry.gauge(
            "collector_retained_synopses",
            "synopses held for train() / collector.synopses, as frames or objects",
        ).set_function(lambda: self._retained_count)

    # -- accounting (telemetry-backed, read-only) ----------------------------
    @property
    def count(self) -> int:
        """Synopses received so far (object or frame path)."""
        return self._count

    @property
    def bytes_received(self) -> int:
        """Bytes received (frame bytes, or encoded size on the object path)."""
        return self._bytes_received

    @property
    def frames_received(self) -> int:
        """Wire frames ingested via :meth:`receive_frame`."""
        return self._frames_received

    @property
    def pending_bytes(self) -> int:
        """Bytes of an incomplete frame buffered by :meth:`feed`."""
        return len(self._buffer)

    @property
    def synopses(self) -> List[TaskSynopsis]:
        """Every retained synopsis, in arrival order (the live list).

        Frames retained as bytes since the last read are decoded here,
        in place, so the cost of building objects falls on whoever
        wants objects (``SAAD.train()``, an experiment) and never on
        the ingest path.  Only the undecoded tail is touched, and
        arrivals racing the read are left for the next one.
        """
        retained = self._retained
        start, stop = self._decoded, len(retained)
        if start < stop:
            decoded = _materialize(retained[start:stop])
            retained[start:stop] = decoded
            self._decoded = start + len(decoded)
        return retained

    def attach(self, stream: SynopsisStream) -> None:
        """Subscribe this collector to a node stream.

        The stream is also remembered so :meth:`flush` / :meth:`close`
        can drain its pending wire batch — the shutdown-ordering
        guarantee that a partially filled frame is never dropped.

        A stream whose ``frame_sink`` already delivers into this
        collector (:meth:`feed` / :meth:`receive_frame`) is *not*
        subscribed on the object path as well: every synopsis would
        otherwise be counted twice, once live and once per frame.
        (Assigning such a ``frame_sink`` later drops the subscription
        then — see :attr:`SynopsisStream.frame_sink`.)

        Attaching is idempotent, and also restores a subscription
        :meth:`detach_objects` dropped once the stream's frames go
        elsewhere again.
        """
        sink = getattr(stream, "frame_sink", None)
        if (
            getattr(sink, "__self__", None) is not self
            and self._receive not in stream.subscribers
        ):
            stream.subscribe(self._receive)
        if stream not in self.streams:
            self.streams.append(stream)

    def detach_objects(self, stream: SynopsisStream) -> None:
        """Drop the object-path subscription to ``stream``, if any.

        For a stream whose frames arrive here (its ``frame_sink`` is
        this collector's inlet, or a TCP sender connected to the server
        feeding it).  The stream stays attached for :meth:`flush`.
        """
        if self._receive in stream.subscribers:
            stream.subscribers.remove(self._receive)

    def _receive(self, synopsis: TaskSynopsis) -> None:
        self._count += 1
        self._bytes_received += synopsis.encoded_size()
        if self.retain:
            self._retained.append(synopsis)
            self._retained_count += 1
        for subscriber in self.subscribers:
            subscriber(synopsis)

    def receive_frame(self, frame: bytes) -> int:
        """Ingest one wire frame (the transport-side counterpart of
        :meth:`SynopsisStream.flush_wire`); returns how many synopses
        it held.

        The frame is validated by a strict scan
        (:func:`~repro.core.columnar.scan_frames`), which raises what
        ``decode_frame`` would — same ``ValueError`` messages, trailing
        bytes included — before any subscriber sees a bad frame.  Frame
        subscribers (:meth:`subscribe_frames`) then receive the raw
        bytes — the hook the columnar detect path hangs off — and only
        an object subscriber makes the frame decode."""
        if not isinstance(frame, bytes):
            frame = bytes(frame)
        offsets, end, error = scan_frames(frame, 0, strict=True)
        if error is not None:
            raise ValueError(error)
        if end != len(frame):
            raise ValueError(f"trailing bytes after frame ({len(frame) - end})")
        self._frames_received += 1
        self._count += len(offsets)
        self._bytes_received += len(frame)
        for frame_subscriber in self.frame_subscribers:
            frame_subscriber(frame)
        if self.retain:
            self._retained.append(frame)
            self._retained_count += len(offsets)
        if self.subscribers:
            synopses = decode_frame(frame)[0]
            for subscriber in self.subscribers:
                for synopsis in synopses:
                    subscriber(synopsis)
        return len(offsets)

    def feed(self, chunk: bytes) -> int:
        """Ingest an arbitrary byte chunk of the framed wire stream.

        The transport-agnostic inlet: unlike :meth:`receive_frame`, the
        chunk may hold half a frame, several frames, or a frame split
        across calls (exactly what a socket read produces).  Complete
        frames are ingested immediately; a trailing partial frame waits
        in the reassembly buffer (``collector_pending_bytes``) for the
        next chunk.  While that buffer is empty, frames are cut straight
        from the chunk, and a chunk that is one whole frame reaches
        :meth:`receive_frame` uncopied.  A complete frame leaves the
        buffer before :meth:`receive_frame` sees it, so one it rejects
        raises once and is gone: what followed it stays buffered, and
        the next call ingests it.  Returns how many synopses the frames
        this chunk completed held.
        """
        buffer = self._buffer
        if buffer:
            buffer.extend(chunk)
            data = buffer
        else:
            data = chunk
        size = len(data)
        header_size = FRAME_HEADER.size
        count = offset = 0
        try:
            while size - offset >= header_size:
                length, _ = FRAME_HEADER.unpack_from(data, offset)
                stop = offset + header_size + length
                if size < stop:
                    break
                start, offset = offset, stop
                count += self.receive_frame(data if stop - start == size else data[start:stop])
        finally:
            if data is buffer:
                del buffer[:offset]
            elif offset < size:
                buffer.extend(data[offset:])
        return count

    def flush(self) -> int:
        """Drain every attached stream's pending wire batch, in order.

        Shutdown ordering matters: the *streams* flush first (their
        partially filled frames travel through their ``frame_sink`` —
        typically :meth:`feed` / :meth:`receive_frame` on this
        collector), and only then is the reassembly buffer checked.  A
        non-empty buffer at that point is a truncated frame whose tail
        can no longer arrive, so ``ValueError`` is raised instead of
        silently dropping the last batch.  Returns how many synopses
        arrived during the flush.
        """
        before = self._count
        for stream in self.streams:
            if stream.wire_format:
                stream.flush_wire()
        if self._buffer:
            raise ValueError(
                f"collector holds {len(self._buffer)} bytes of a truncated "
                "frame after flush; the last batch would be lost"
            )
        return self._count - before

    def close(self) -> None:
        """Flush attached streams, then seal the collector.

        Idempotent.  Raises like :meth:`flush` when a truncated frame
        is stuck in the reassembly buffer — the regression this guards:
        a transport that dies mid-frame must be noticed at shutdown,
        not absorbed as silent data loss.
        """
        if self.closed:
            return
        self.flush()
        self.closed = True

    def subscribe(self, subscriber: Subscriber) -> None:
        """Add a callable receiving every synopsis this collector ingests."""
        self.subscribers.append(subscriber)

    def subscribe_frames(self, sink: FrameSink) -> None:
        """Add a callable receiving every complete wire frame's raw bytes.

        The columnar inlet: a TCP-fed collector (``SAAD.listen`` /
        :meth:`feed`) can hand whole frames to
        :meth:`repro.core.detector.AnomalyDetector.observe_batch`
        without the per-synopsis object decode in between.  Only frames
        that arrive *as frames* fan out here; synopses received on the
        object path have no wire form to forward."""
        self.frame_subscribers.append(sink)

    def drain(self) -> List[TaskSynopsis]:
        """Return and clear retained synopses (retained frames decoded)."""
        drained = self.synopses
        self._retained, self._decoded, self._retained_count = [], 0, 0
        return drained
