"""TCP synopsis ingest: framing, reassembly, truncation accounting."""

import socket
import time

import pytest

from repro.core.stream import SynopsisCollector
from repro.core.synopsis import FRAME_HEADER, encode_frame
from repro.shard import FrameClient, ShardedAnalyzer, SynopsisServer
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
            with socket.create_connection(server.address) as sock:
                # Dribble the frame a few bytes at a time: readexactly
                # must stitch the segments back into one frame.
                for start in range(0, len(frame), 7):
                    sock.sendall(frame[start : start + 7])
                    time.sleep(0.001)
            _wait_for(lambda: collector.count == len(synopses))
        assert collector.frames_received == 1

    def test_truncated_tail_counted_not_ingested(self):
        synopses = make_trace(30)
        frame = encode_frame(synopses)
        registry = MetricsRegistry()
        collector = SynopsisCollector(registry=registry)
        with SynopsisServer(collector.receive_frame, registry=registry) as server:
            with socket.create_connection(server.address) as sock:
                sock.sendall(frame)
                sock.sendall(frame[: len(frame) // 2])  # die mid-frame
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
