"""Ingest-edge overload behavior: credit backpressure, read pausing,
priority shedding, the declined hello flag, adaptive flush bounds, and
the FrameClient close contract (DESIGN.md §15, docs/OPERATIONS.md §8)."""

import itertools
import socket
import threading
import time

import pytest

from repro.core import OutlierModel, SAADConfig
from repro.core.columnar import compile_model
from repro.core.synopsis import encode_frame
from repro.shard import (
    PRIORITY_EXEMPLAR,
    PRIORITY_SAMPLED,
    AdaptiveFlush,
    FrameClient,
    LoadShedder,
    SynopsisServer,
)
from repro.shard.server import (
    _ACK,
    _ACK_GRANT,
    _ENV_BYE,
    _ENV_DATA,
    _ENVELOPE,
    _HELLO,
    _HELLO_ACK,
    _MAGIC,
    _PROTOCOL_VERSION,
)
from repro.telemetry import MetricsRegistry

from .conftest import make_synopsis, make_trace

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


class _Gate:
    """A sink whose deliveries block until the test opens the gate."""

    def __init__(self):
        self.open = threading.Event()
        self.delivered = []

    async def sink(self, frame):
        while not self.open.is_set():
            import asyncio

            await asyncio.sleep(0.002)
        self.delivered.append(frame)


class TestAdaptiveFlush:
    def test_grows_additively_under_target(self):
        flush = AdaptiveFlush(initial=16, min_size=8, max_size=64, step=8)
        assert flush.observe(100.0) == 24
        assert flush.observe(100.0) == 32

    def test_halves_above_target(self):
        flush = AdaptiveFlush(
            initial=64, min_size=8, max_size=64, step=8, target_rtt_us=1000.0
        )
        assert flush.observe(50_000.0) == 32
        assert flush.observe(50_000.0) == 16

    def test_bounded_under_jittery_rtt(self):
        import random

        rng = random.Random(99)
        flush = AdaptiveFlush(
            initial=32, min_size=8, max_size=128, step=16, target_rtt_us=500.0
        )
        for _ in range(500):
            # Alternate calm and spiky RTTs around the target.
            size = flush.observe(rng.choice([50.0, 400.0, 900.0, 20_000.0]))
            assert 8 <= size <= 128
            assert size == flush.size

    def test_sustained_extremes_pin_to_bounds(self):
        flush = AdaptiveFlush(initial=32, min_size=8, max_size=64, step=8)
        for _ in range(50):
            flush.observe(10.0)
        assert flush.size == 64
        for _ in range(50):
            flush.observe(1e6)
        assert flush.size == 8

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveFlush(initial=4, min_size=8, max_size=64)
        with pytest.raises(ValueError):
            AdaptiveFlush(initial=16, min_size=8, max_size=8)
        with pytest.raises(ValueError):
            AdaptiveFlush(step=0)
        with pytest.raises(ValueError):
            AdaptiveFlush(smoothing=0.0)


class TestLoadShedder:
    def test_ladder_ordering(self):
        shedder = LoadShedder(1000, 2000)
        # Below the shed watermark everything is admitted.
        assert shedder.admit(PRIORITY_SAMPLED, 100, 999)
        assert shedder.admit(PRIORITY_EXEMPLAR, 100, 999)
        # Between shed and hard: sampled dropped, exemplar kept.
        assert not shedder.admit(PRIORITY_SAMPLED, 100, 1000)
        assert shedder.admit(PRIORITY_EXEMPLAR, 100, 1999)
        # Past hard: everything dropped.
        assert not shedder.admit(PRIORITY_SAMPLED, 100, 2000)
        assert not shedder.admit(PRIORITY_EXEMPLAR, 100, 2000)
        assert shedder.drops() == {"sampled": 2, "exemplar": 1}

    def test_hard_defaults_to_twice_shed(self):
        shedder = LoadShedder(1500)
        assert shedder.hard_watermark == 3000

    def test_unknown_priority_treated_as_exemplar(self):
        shedder = LoadShedder(1000)
        assert shedder.admit(7, 100, 1500)
        assert not shedder.admit(7, 100, 2500)
        assert shedder.drops()["exemplar"] == 1

    def test_validates_watermarks(self):
        with pytest.raises(ValueError):
            LoadShedder(0)
        with pytest.raises(ValueError):
            LoadShedder(1000, 999)


class TestFramePriority:
    def test_trained_signature_is_sampled(self, model):
        frame = encode_frame(make_trace(12))
        assert compile_model(model).frame_priority(frame) == PRIORITY_SAMPLED

    def test_novel_signature_is_exemplar(self, model):
        rare = make_synopsis(1, 0, 1, 0.0, 0.01, (1, 2, 4, 65_000))
        frame = encode_frame(make_trace(6) + [rare])
        assert compile_model(model).frame_priority(frame) == PRIORITY_EXEMPLAR

    def test_undecodable_frame_is_exemplar(self, model):
        assert compile_model(model).frame_priority(b"\xff" * 40) == PRIORITY_EXEMPLAR


def _per_host_model():
    """Stage 5 trained on two hosts with different routine signatures:
    (5, 6) on host 0, (5, 7) on host 1."""
    tasks = [
        make_synopsis(5, i % 2, i, i * 0.05, 0.01, (5, 6 + i % 2)) for i in range(400)
    ]
    return OutlierModel(SAADConfig(window_s=60.0, min_window_tasks=8)).train(tasks)


class TestBackpressure:
    def test_reads_pause_at_high_watermark_and_resume(self):
        frame = encode_frame(make_trace(60))
        gate = _Gate()
        registry = MetricsRegistry()
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            credit_window=1 << 22,  # credit never the limiter here
            high_watermark=2 * len(frame),
            low_watermark=len(frame) // 2,
        )
        with server, FrameClient(server.address, registry=registry) as client:
            for _ in range(8):
                client.send(frame)
            # With the sink gated, the reader must park at the high
            # watermark: backlog stays bounded instead of absorbing all
            # eight frames.
            _wait_for(lambda: _counter(registry, "server_reads_paused") >= 1)
            assert server.pending_bytes <= 3 * len(frame)
            gate.open.set()
            _wait_for(lambda: len(gate.delivered) == 8)
            client.wait_acked()
        assert server.pending_bytes == 0
        assert gate.delivered == [frame] * 8
        assert _counter(registry, "server_frames_delivered") == 8

    def test_send_blocks_until_credit_regranted(self):
        frame = encode_frame(make_trace(40))
        gate = _Gate()
        registry = MetricsRegistry()
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            credit_window=len(frame) + 32,  # room for ~one envelope
            high_watermark=1 << 22,
        )
        with server, FrameClient(server.address, registry=registry) as client:
            done = threading.Event()

            def send_three():
                for _ in range(3):
                    client.send(frame)
                done.set()

            sender = threading.Thread(target=send_three, daemon=True)
            sender.start()
            # Gated sink -> no acks -> the second send must stall.
            time.sleep(0.3)
            assert not done.is_set()
            gate.open.set()
            sender.join(timeout=5)
            assert done.is_set()
            _wait_for(lambda: len(gate.delivered) == 3)
        assert _counter(registry, "client_credit_stalls") >= 1
        assert _counter(registry, "server_credits_granted") > 0


class TestShedding:
    def test_sampled_shed_before_exemplar(self):
        frame = encode_frame(make_trace(40))
        gate = _Gate()
        registry = MetricsRegistry()
        shedder = LoadShedder(2 * len(frame), 1 << 22, registry=registry)
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            credit_window=1 << 22,
            high_watermark=1 << 22,  # never pause: shedding is the relief
            shedder=shedder,
        )
        with server, FrameClient(server.address, registry=registry) as client:
            for _ in range(4):
                client.send(frame, priority=PRIORITY_SAMPLED)
            _wait_for(lambda: server.pending_bytes >= 2 * len(frame))
            # Backlog now sits at the shed watermark: sampled frames are
            # dropped (but still acked), exemplar-bearing ones admitted.
            for _ in range(3):
                client.send(frame, priority=PRIORITY_SAMPLED)
            for _ in range(2):
                client.send(frame, priority=PRIORITY_EXEMPLAR)
            _wait_for(lambda: shedder.drops()["sampled"] >= 3)
            assert shedder.drops()["exemplar"] == 0
            gate.open.set()
            client.wait_acked()
            _wait_for(lambda: len(gate.delivered) == 9 - shedder.drops()["sampled"])
        dropped = _counter(registry, "shed_frames_dropped")
        assert dropped == shedder.drops()["sampled"]
        assert _counter(registry, "shed_bytes_dropped") > 0
        assert (
            _counter(registry, "server_frames_delivered")
            == _counter(registry, "shard_server_frames") - dropped
        )

    def test_novelty_classified_frames_survive_shedding(self, model):
        registry = MetricsRegistry()
        priority_fn = compile_model(model).frame_priority
        frame = encode_frame(make_trace(40))
        rare = make_synopsis(1, 0, 1, 0.0, 0.01, (1, 2, 4, 65_000))
        novel_frame = encode_frame([rare])
        gate = _Gate()
        shedder = LoadShedder(2 * len(frame), 1 << 22, registry=registry)
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            high_watermark=1 << 22,
            shedder=shedder,
        )
        with server, FrameClient(server.address, priority_fn=priority_fn) as client:
            for _ in range(4):
                client.send(frame)  # routine traffic fills the backlog
            _wait_for(lambda: server.pending_bytes >= 2 * len(frame))
            for _ in range(3):
                client.send(frame)  # classified sampled -> shed
            client.send(novel_frame)  # classified exemplar -> admitted
            _wait_for(lambda: shedder.drops()["sampled"] >= 3)
            gate.open.set()
            _wait_for(lambda: novel_frame in gate.delivered)
        assert shedder.drops()["exemplar"] == 0

    def test_per_host_novelty_survives_shedding(self):
        """A signature routine on host 0 is novel on host 1, where the
        detector keys it by (host, stage): its frame must ride the
        exemplar class through a shed that drops sampled frames."""
        registry = MetricsRegistry()
        priority_fn = compile_model(_per_host_model()).frame_priority
        routine = [
            make_synopsis(5, i % 2, 10_000 + i, 30.0 + i * 0.05, 0.01, (5, 6 + i % 2))
            for i in range(40)
        ]
        frame = encode_frame(routine)
        crossed = make_synopsis(5, 1, 20_000, 33.0, 0.01, (5, 6))
        novel_frame = encode_frame(routine[:-1] + [crossed])
        assert priority_fn(frame) == PRIORITY_SAMPLED
        assert priority_fn(novel_frame) == PRIORITY_EXEMPLAR
        gate = _Gate()
        shedder = LoadShedder(2 * len(frame), 1 << 22, registry=registry)
        server = SynopsisServer(
            gate.sink,
            registry=registry,
            high_watermark=1 << 22,
            shedder=shedder,
        )
        with server, FrameClient(server.address, priority_fn=priority_fn) as client:
            for _ in range(4):
                client.send(frame)
            _wait_for(lambda: server.pending_bytes >= 2 * len(frame))
            for _ in range(3):
                client.send(frame)
            client.send(novel_frame)
            _wait_for(lambda: shedder.drops()["sampled"] >= 3)
            gate.open.set()
            _wait_for(lambda: novel_frame in gate.delivered)
        assert shedder.drops()["exemplar"] == 0


class TestCompression:
    def test_server_declines_falls_back_to_uncompressed(self):
        """A hello asking for compression (flag bit 0x01) is answered
        with accepted flags 0, and the peer's plain frames are delivered."""
        frame = encode_frame(make_trace(200))
        delivered = []
        with SynopsisServer(delivered.append) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                replies = sock.makefile("rb")
                sock.sendall(_HELLO.pack(_MAGIC, _PROTOCOL_VERSION, 0x01))
                assert _HELLO_ACK.unpack(replies.read(_HELLO_ACK.size)) == (
                    _MAGIC,
                    _PROTOCOL_VERSION,
                    0,
                    server.credit_window,
                )
                envelope = _ENVELOPE.pack(_ENV_DATA, 0, len(frame)) + frame
                sock.sendall(envelope)
                assert _ACK.unpack(replies.read(_ACK.size)) == (
                    _ACK_GRANT,
                    1,
                    len(envelope),
                )
                sock.sendall(_ENVELOPE.pack(_ENV_BYE, 0, 0))
                replies.close()
            _wait_for(lambda: len(delivered) == 1)
        assert delivered[0] == frame


class TestAdaptiveFlushWiring:
    def test_loopback_acks_tune_flush_size(self):
        frame = encode_frame(make_trace(30))
        sizes = []
        delivered = []
        # Each stamp, at a send or at an ack, reads 100 us past the one
        # before: every RTT stays far under the 2 ms target, however late
        # the poll that reads the ack.
        ticks = itertools.count()
        with SynopsisServer(delivered.append) as server:
            client = FrameClient(
                server.address,
                adaptive=AdaptiveFlush(initial=8, min_size=8, max_size=64, step=8),
                on_flush_size=sizes.append,
                clock=lambda: next(ticks) * 1e-4,
            )
            with client:
                for _ in range(5):
                    client.send(frame)
                client.wait_acked()
                # Loopback RTT sits far under the 2 ms target: additive
                # growth, every change reported to the callback.
                assert client.rtt_us > 0
                assert client.flush_size > 8
                assert sizes
                assert sizes[-1] == client.flush_size
        assert len(delivered) == 5


class TestFrameClientCloseContract:
    def test_close_is_idempotent(self):
        with SynopsisServer(lambda frame: None) as server:
            client = FrameClient(server.address)
            client.close()
            client.close()
            assert client.closed

    def test_send_after_close_raises_runtime_error(self):
        with SynopsisServer(lambda frame: None) as server:
            client = FrameClient(server.address)
            client.close()
            with pytest.raises(RuntimeError, match="close"):
                client.send(encode_frame(make_trace(2)))


class TestFacadeOverloadWiring:
    def test_listen_knobs_and_compressed_connect_smoke(self):
        """Fast bounded-overload smoke (the CI leg, not the soak)."""
        from repro.core import SAAD, SAADConfig

        config = SAADConfig(window_s=60.0, min_window_tasks=8)
        saad = SAAD(config)
        address = saad.listen(
            credit_window=1 << 16,
            high_watermark=1 << 18,
            low_watermark=1 << 17,
            shed_watermark=1 << 17,
        )
        clock = [0.0]
        node = saad.add_node(
            "edge", clock=lambda: clock[0], wire_format=True, wire_flush_size=16
        )
        saad.stages.register("read")
        lp = saad.logpoints.register("step").lpid
        node.connect(address)
        log = node.logger("demo")
        for i in range(200):
            clock[0] = i * 0.01
            node.set_context("read")
            log.info("step %s", i, lpid=lp)
        node.end_task()
        node.stream.flush_wire()
        node._client.wait_acked()
        _wait_for(lambda: saad.collector.count >= 199)
        saad.close()
        names = saad.registry.names()
        for name in (
            "server_credits_granted",
            "server_reads_paused",
            "shed_frames_dropped",
            "client_flush_size",
            "client_rtt_us",
            "ingest_watermark_bytes",
        ):
            assert name in names
