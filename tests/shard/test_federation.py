"""Fleet observability over the ingest socket: TELEMETRY federation,
HEALTH probes, and the paused-connection teardown regression
(docs/OPERATIONS.md §9)."""

import socket
import struct
import threading
import time

import pytest

from repro.core.synopsis import encode_frame
from repro.shard import FrameClient, SynopsisServer
from repro.shard.server import _ENVELOPE, _ENV_TELEMETRY
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


def _node_samples(registry, name):
    """Samples of family ``name`` that carry a ``node`` label."""
    for family in registry.collect():
        if family["name"] == name:
            return [s for s in family["samples"] if "node" in s["labels"]]
    return []


class _Gate:
    """A sink whose deliveries block until the test opens the gate."""

    def __init__(self):
        self.open = threading.Event()
        self.delivered = []

    async def sink(self, frame):
        import asyncio

        while not self.open.is_set():
            await asyncio.sleep(0.002)
        self.delivered.append(frame)


class TestTelemetryFederationOverTheWire:
    def test_remote_counters_land_under_node_label(self):
        server_registry = MetricsRegistry()
        node_registry = MetricsRegistry()
        node_registry.counter("tracker_tasks_started", "tasks").inc(7)
        server = SynopsisServer(
            lambda frame: None,
            registry=server_registry,
            federation=server_registry.federation(),
        )
        with server, FrameClient(
            server.address,
            registry=node_registry,
            node="edge-1",
            telemetry_source=node_registry,
        ) as client:
            assert client.server_version >= 2
            client.send_telemetry()
            _wait_for(
                lambda: _counter(server_registry, "server_telemetry_snapshots") >= 1
            )
            _wait_for(
                lambda: _node_samples(server_registry, "tracker_tasks_started") != []
            )
            samples = _node_samples(server_registry, "tracker_tasks_started")
            assert samples[0]["labels"]["node"] == "edge-1"
            assert samples[0]["value"] == 7
            # The client's own wire metrics federate too, by peer + node.
            _wait_for(
                lambda: _node_samples(server_registry, "client_telemetry_pushes")
                != []
            )
        assert server_registry.federation().nodes() == ("edge-1",)

    def test_piggyback_cadence_on_send(self):
        server_registry = MetricsRegistry()
        node_registry = MetricsRegistry()
        frame = encode_frame(make_trace(10))
        server = SynopsisServer(
            lambda frame: None,
            registry=server_registry,
            federation=server_registry.federation(),
        )
        with server, FrameClient(
            server.address,
            registry=node_registry,
            node="edge-2",
            telemetry_source=node_registry,
            telemetry_interval_s=0.0,  # every send piggybacks
        ) as client:
            for _ in range(3):
                client.send(frame)
            client.wait_acked()
            _wait_for(
                lambda: _counter(server_registry, "server_telemetry_snapshots") >= 3
            )
            assert _counter(node_registry, "client_telemetry_pushes") >= 3

    def test_interval_none_disables_piggyback(self):
        server_registry = MetricsRegistry()
        node_registry = MetricsRegistry()
        frame = encode_frame(make_trace(10))
        server = SynopsisServer(
            lambda frame: None,
            registry=server_registry,
            federation=server_registry.federation(),
        )
        with server, FrameClient(
            server.address,
            registry=node_registry,
            telemetry_source=node_registry,
            telemetry_interval_s=None,
        ) as client:
            client.send(frame)
            client.wait_acked()
        assert _counter(server_registry, "server_telemetry_snapshots") == 0

    def test_compressed_snapshot_round_trips(self):
        server_registry = MetricsRegistry()
        node_registry = MetricsRegistry()
        # A snapshot bulky enough that zlib shrinks it.
        family = node_registry.counter(
            "tracker_tasks_started", "tasks", labels=("stage",)
        )
        for stage in range(64):
            family.labels(stage=str(stage)).inc(stage)
        server = SynopsisServer(
            lambda frame: None,
            registry=server_registry,
            federation=server_registry.federation(),
            compression=True,
        )
        with server, FrameClient(
            server.address,
            registry=node_registry,
            compression=True,
            node="edge-z",
            telemetry_source=node_registry,
        ) as client:
            assert client.compression
            client.send_telemetry()
            _wait_for(
                lambda: _node_samples(server_registry, "tracker_tasks_started") != []
            )
        samples = _node_samples(server_registry, "tracker_tasks_started")
        assert len(samples) == 64

    def test_undecodable_snapshot_counted_not_fatal(self):
        server_registry = MetricsRegistry()
        gate = _Gate()
        gate.open.set()
        frame = encode_frame(make_trace(10))
        server = SynopsisServer(
            gate.sink,
            registry=server_registry,
            federation=server_registry.federation(),
        )
        with server, FrameClient(server.address) as client:
            junk = b"this is not json"
            client._sock.sendall(_ENVELOPE.pack(_ENV_TELEMETRY, 0, len(junk)) + junk)
            _wait_for(
                lambda: _counter(server_registry, "server_telemetry_rejected") >= 1
            )
            # The connection survives: the data path still delivers.
            client.send(frame)
            client.wait_acked()
            _wait_for(lambda: len(gate.delivered) == 1)
        assert server_registry.federation().nodes() == ()

    def test_malformed_families_rejected_at_absorb(self):
        server_registry = MetricsRegistry()
        server = SynopsisServer(
            lambda frame: None,
            registry=server_registry,
            federation=server_registry.federation(),
        )
        with server, FrameClient(server.address, node="evil") as client:
            client.send_telemetry(families=[{"name": "x"}])  # not wire form
            _wait_for(
                lambda: _counter(server_registry, "server_telemetry_rejected") >= 1
            )
        assert server_registry.federation().nodes() == ()

    def test_send_telemetry_contract_errors(self):
        server = SynopsisServer(lambda frame: None)
        with server:
            with FrameClient(server.address) as client:
                with pytest.raises(ValueError):
                    client.send_telemetry()  # no source, no families
            closed = FrameClient(server.address)
            closed.close()
            with pytest.raises(RuntimeError, match="close"):
                closed.send_telemetry(families=[])
            with pytest.raises(RuntimeError, match="close"):
                closed.health()


class TestHealthProbes:
    def test_probe_round_trips_engine_report(self):
        report = {"state": "warn", "alerts": [{"rule": "ingest_backlog"}]}
        registry = MetricsRegistry()
        server = SynopsisServer(
            lambda frame: None, registry=registry, health=lambda: dict(report)
        )
        with server, FrameClient(server.address) as client:
            assert client.health(timeout=5.0) == report
        assert _counter(registry, "server_health_probes") == 1

    def test_probe_without_engine_answers_unknown(self):
        server = SynopsisServer(lambda frame: None)
        with server, FrameClient(server.address) as client:
            report = client.health(timeout=5.0)
        assert report["state"] == "unknown"

    def test_probe_with_raising_engine_answers_unknown(self):
        def boom():
            raise RuntimeError("engine exploded")

        server = SynopsisServer(lambda frame: None, health=boom)
        with server, FrameClient(server.address) as client:
            report = client.health(timeout=5.0)
        assert report["state"] == "unknown"

    def test_probe_interleaved_with_data(self):
        gate = _Gate()
        gate.open.set()
        frame = encode_frame(make_trace(20))
        server = SynopsisServer(gate.sink, health=lambda: {"state": "ok"})
        with server, FrameClient(server.address) as client:
            for _ in range(3):
                client.send(frame)
            assert client.health(timeout=5.0)["state"] == "ok"
            for _ in range(3):
                client.send(frame)
            client.wait_acked()
            _wait_for(lambda: len(gate.delivered) == 6)


class TestPausedConnectionTeardown:
    def test_abrupt_disconnect_while_paused_clears_gauges(self):
        """Regression: a peer that dies while its reads are parked at
        the high watermark must not leave ``server_paused_connections``
        stuck, and its admitted frames must still drain."""
        frame = encode_frame(make_trace(60))
        gate = _Gate()
        registry = MetricsRegistry()
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            credit_window=1 << 22,
            high_watermark=2 * len(frame),
            low_watermark=len(frame) // 2,
        )
        with server:
            client = FrameClient(server.address, registry=registry)
            for _ in range(8):
                client.send(frame)
            _wait_for(
                lambda: _counter(registry, "server_paused_connections") >= 1
            )
            # Abrupt death: SO_LINGER 0 makes close() send RST, the
            # worst-case teardown (no BYE, no FIN handshake).
            client._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client._sock.close()
            client._closed = True
            # The sink is still gated — the pause must end anyway.
            _wait_for(
                lambda: _counter(registry, "server_paused_connections") == 0
            )
            gate.open.set()
            _wait_for(lambda: server.pending_bytes == 0)
        assert len(gate.delivered) >= 1

    def test_clean_path_still_pauses_and_resumes(self):
        """The liveness-aware pause must not change healthy behavior."""
        frame = encode_frame(make_trace(60))
        gate = _Gate()
        registry = MetricsRegistry()
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            credit_window=1 << 22,
            high_watermark=2 * len(frame),
            low_watermark=len(frame) // 2,
        )
        with server, FrameClient(server.address, registry=registry) as client:
            for _ in range(8):
                client.send(frame)
            _wait_for(lambda: _counter(registry, "server_paused_connections") >= 1)
            gate.open.set()
            _wait_for(lambda: len(gate.delivered) == 8)
            client.wait_acked()
            assert _counter(registry, "server_paused_connections") == 0
        assert server.pending_bytes == 0
