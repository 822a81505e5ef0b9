"""TCP synopsis ingest: framing, reassembly, truncation accounting, the
client handshake, and a byte-fuzzed accept path."""

import contextlib
import gc
import socket
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream import SynopsisCollector
from repro.core.synopsis import FRAME_HEADER, encode_frame
from repro.shard import FrameClient, ShardedAnalyzer, SynopsisServer
from repro.shard.server import (
    _ACK,
    _ENV_BYE,
    _ENV_DATA,
    _ENVELOPE,
    _HELLO,
    _HELLO_ACK,
    _MAGIC,
    _MAX_FRAME_PAYLOAD,
    _PROTOCOL_VERSION,
)
from repro.telemetry import MetricsRegistry

from .conftest import make_trace

pytestmark = pytest.mark.shard


def _counter(registry, name):
    for family in registry.collect():
        if family["name"] == name:
            return sum(sample["value"] for sample in family["samples"])
    raise AssertionError(f"no family {name!r}")


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached before timeout")


_HELLO_BYTES = _HELLO.pack(_MAGIC, _PROTOCOL_VERSION, 0)


def _envelope(frame):
    return _ENVELOPE.pack(_ENV_DATA, 0, len(frame)) + frame


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "server closed the connection"
        data += chunk
    return data


def _raw_connection(address):
    """A raw socket past the hello / hello-ack exchange."""
    sock = socket.create_connection(address)
    sock.sendall(_HELLO_BYTES)
    _recv_exact(sock, _HELLO_ACK.size)
    return sock


class TestSynopsisServer:
    def test_loopback_frames_reach_the_sink(self):
        synopses = make_trace(250)
        registry = MetricsRegistry()
        collector = SynopsisCollector(registry=registry)
        with SynopsisServer(collector.receive_frame, registry=registry) as server:
            with FrameClient(server.address) as client:
                for start in range(0, len(synopses), 50):
                    client.send(encode_frame(synopses[start : start + 50]))
                assert client.frames_sent == 5
                client.wait_acked()
            _wait_for(lambda: collector.count == len(synopses))

        assert [s.uid for s in collector.synopses] == [s.uid for s in synopses]
        assert _counter(registry, "shard_server_connections") == 1
        assert _counter(registry, "shard_server_frames") == 5

    def test_frame_split_across_segments_reassembles(self):
        synopses = make_trace(40)
        frame = encode_frame(synopses)
        collector = SynopsisCollector()
        with SynopsisServer(collector.receive_frame) as server:
            with _raw_connection(server.address) as sock:
                # Dribble the envelope a few bytes at a time: readexactly
                # must stitch the segments back into one frame.
                envelope = _envelope(frame)
                for start in range(0, len(envelope), 7):
                    sock.sendall(envelope[start : start + 7])
                    time.sleep(0.001)
            _wait_for(lambda: collector.count == len(synopses))
        assert collector.frames_received == 1

    def test_truncated_tail_counted_not_ingested(self):
        synopses = make_trace(30)
        frame = encode_frame(synopses)
        registry = MetricsRegistry()
        collector = SynopsisCollector(registry=registry)
        with SynopsisServer(collector.receive_frame, registry=registry) as server:
            with _raw_connection(server.address) as sock:
                sock.sendall(_envelope(frame))
                # Read the ack first: closing with it unread would reset
                # the connection instead of ending it mid-frame.
                _recv_exact(sock, _ACK.size)
                sock.sendall(_envelope(frame)[: len(frame) // 2])  # die mid-frame
            _wait_for(lambda: _counter(registry, "shard_server_truncated") == 1)
        assert collector.count == len(synopses)
        assert collector.frames_received == 1

    def test_oversized_length_prefix_rejected(self):
        registry = MetricsRegistry()
        seen = []
        with SynopsisServer(seen.append, registry=registry) as server:
            with socket.create_connection(server.address) as sock:
                sock.sendall(FRAME_HEADER.pack(1 << 30, 1))
            _wait_for(lambda: _counter(registry, "shard_server_truncated") == 1)
        assert seen == []

    def test_close_is_idempotent(self):
        server = SynopsisServer(lambda frame: None)
        server.start()
        server.close()
        server.close()


@contextlib.contextmanager
def _fake_peer(reply):
    """A TCP peer that reads the hello and answers ``reply`` (None: never
    answers), then holds the connection until the client drops it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            try:
                conn.recv(64)
                if reply is not None:
                    conn.sendall(reply)
                conn.recv(64)
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10)
        listener.close()


class TestFrameClientHandshake:
    """A failed handshake raises and closes the socket: a leaked socket's
    ResourceWarning fails these tests."""

    @pytest.mark.parametrize(
        "reply, error",
        [
            (b"HTTP/1.1 400\r\n", "not a SAAD synopsis server"),
            (
                _HELLO_ACK.pack(_MAGIC, _PROTOCOL_VERSION - 1, 0, 1 << 18),
                "protocol version",
            ),
            (None, "timed out"),
        ],
        ids=["garbage-reply", "version-mismatch", "timeout"],
    )
    def test_failed_handshake_closes_the_socket(self, reply, error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with _fake_peer(reply) as address:
                with pytest.raises(OSError, match=error):
                    FrameClient(address, timeout=0.5)
                gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []


def _reject_reasons():
    """Byte streams the accept path must close and count as truncated."""
    data = encode_frame(make_trace(3))
    envelope = _envelope(data)
    return st.one_of(
        # arbitrary first bytes that do not open with the magic
        st.binary(min_size=1, max_size=48).filter(lambda b: b[:4] != _MAGIC),
        # a truncated hello
        st.integers(1, _HELLO.size - 1).map(lambda n: _HELLO_BYTES[:n]),
        # an unknown envelope type, any length, any tail
        st.builds(
            lambda etype, length, tail: _HELLO_BYTES
            + _ENVELOPE.pack(etype, 0, length)
            + tail,
            st.integers(8, 255),
            st.integers(0, 2**32 - 1),
            st.binary(max_size=16),
        ),
        # a known envelope type (BYE ends the stream first) with an
        # oversized length
        st.builds(
            lambda etype, length: _HELLO_BYTES + _ENVELOPE.pack(etype, 0, length),
            st.integers(0, 7).filter(lambda etype: etype != _ENV_BYE),
            st.integers(_MAX_FRAME_PAYLOAD + 1, 2**32 - 1),
        ),
        # a disconnect inside a data envelope's header or payload
        st.integers(1, len(envelope) - 1).map(
            lambda cut: _HELLO_BYTES + envelope[:cut]
        ),
    )


def _send_until_closed(address, stream, timeout):
    """Write ``stream``, half-close, and read until the server hangs up;
    ``socket.timeout`` when it does not within ``timeout``."""
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(stream)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(4096):
                pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server closed with our bytes still unread


class TestAcceptPathFuzz:
    @settings(max_examples=30, deadline=None)
    @given(streams=st.lists(_reject_reasons(), min_size=1, max_size=4))
    def test_malformed_connections_closed_counted_and_harmless(self, streams):
        registry = MetricsRegistry()
        delivered = []
        frames = [encode_frame(make_trace(n)) for n in (1, 7, 40)]
        with SynopsisServer(delivered.append, registry=registry) as server:
            for stream in streams:
                _send_until_closed(server.address, stream, timeout=5.0)
            _wait_for(
                lambda: _counter(registry, "shard_server_truncated") == len(streams)
            )
            with FrameClient(server.address, timeout=5.0) as client:
                for frame in frames:
                    client.send(frame)
                client.wait_acked()
            _wait_for(lambda: len(delivered) == len(frames))
            _wait_for(lambda: server.pending_bytes == 0)
        assert delivered == frames
        assert _counter(registry, "shard_server_truncated") == len(streams)


class TestEndToEnd:
    def test_tcp_ingest_feeds_sharded_detection(self, model, detect_trace):
        registry = MetricsRegistry()
        with ShardedAnalyzer(model, 2, registry=registry) as pool:
            with SynopsisServer(pool.dispatch_frame, registry=registry) as server:
                with FrameClient(server.address) as client:
                    for start in range(0, len(detect_trace), 400):
                        client.send(encode_frame(detect_trace[start : start + 400]))
                    client.wait_acked()
                _wait_for(
                    lambda: _counter(registry, "shard_server_frames") * 400
                    >= len(detect_trace)
                )
            events = pool.close()
        assert events
        assert pool.anomalies == events
