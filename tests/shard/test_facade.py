"""SAAD facade wiring: ``shards=N`` detection and TCP listen/connect."""

import random
import time

import pytest

from repro.core import SAAD, SAADConfig
from repro.core.columnar import exact_duration_cut
from repro.core.synopsis import encode_frame
from repro.shard import FrameClient

from .conftest import make_synopsis, make_trace

pytestmark = pytest.mark.shard


def config():
    return SAADConfig(window_s=60.0, min_window_tasks=8)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached before timeout")


class TestShardedFacade:
    def test_detect_routes_through_pool(self, detect_trace):
        train = make_trace(4000)

        single = SAAD(config())
        single.train(train)
        expected = single.detect(detect_trace)
        assert expected

        sharded = SAAD(config(), shards=3)
        sharded.train(train)
        assert sharded.detect(detect_trace) == expected

    def test_detect_branches_agree_on_unquantized_durations(self):
        """Single-process, pool and fleet ``detect`` classify the same
        wire values, even for float durations just past a trained cut."""
        rng = random.Random(5)
        lps = (1, 2, 3)
        train = [
            make_synopsis(1, 0, i, i * 0.01, 0.01 * rng.lognormvariate(0, 0.3), lps)
            for i in range(2000)
        ]
        probe = SAAD(config())
        probe.train(train)
        (stage,) = probe.model.stages.values()
        (profile,) = stage.signatures.values()
        threshold = profile.duration_threshold
        assert profile.perf_eligible
        # Above the float threshold, but it truncates to the integer-us
        # cut on the wire: an outlier to observe(), normal once encoded.
        straddle = (threshold + (exact_duration_cut(threshold) + 1) / 1e6) / 2
        assert threshold < straddle
        assert int(straddle * 1_000_000) == exact_duration_cut(threshold)
        detect = []
        for i in range(600):
            duration = 0.01 * rng.lognormvariate(0, 0.3)
            if i % 3 == 0:
                duration = 5 * threshold  # plain slowdown: the event fires
            elif i % 3 == 1:
                duration = straddle
            start = 100 + i * 0.05
            detect.append(make_synopsis(1, 0, 10_000 + i, start, duration, lps))

        results = []
        for scale_out in ({}, {"shards": 2}, {"fleet": 2}):
            facade = SAAD(config(), **scale_out)
            facade.train(train)
            results.append(facade.detect(detect))
        assert results[0]
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_detect_rejects_what_the_wire_cannot_carry(self):
        saad = SAAD(config())
        saad.train(make_trace(2000))
        too_wide = make_synopsis(1, 0, 2**32, 100.0, 0.01, (1, 2, 4))
        with pytest.raises(ValueError, match="32-bit"):
            saad.detect([too_wide])

    def test_shard_requires_training_and_width(self):
        saad = SAAD(config())
        with pytest.raises(RuntimeError, match="train"):
            saad.shard(shards=2)
        saad.train(make_trace(2000))
        with pytest.raises(ValueError, match="shards"):
            saad.shard()
        with pytest.raises(ValueError):
            SAAD(config(), shards=0)

    def test_shard_pool_shares_registry(self, detect_trace):
        saad = SAAD(config(), shards=2)
        saad.train(make_trace(4000))
        saad.detect(detect_trace)
        assert "shard_workers" in set(saad.registry.names())


class TestListen:
    def test_listen_accepts_frames_into_collector(self):
        synopses = make_trace(120)
        saad = SAAD(config(), listen=("127.0.0.1", 0))
        try:
            assert saad.address is not None
            before = saad.collector.count
            with FrameClient(saad.address) as client:
                client.send(encode_frame(synopses))
            _wait_for(lambda: saad.collector.count == before + len(synopses))
        finally:
            saad.close()
        assert saad.address is None

    def test_node_connect_ships_frames_to_remote_analyzer(self):
        analyzer = SAAD(config(), listen=("127.0.0.1", 0))
        producer = SAAD(config())
        node = producer.add_node("edge", wire_format=True)
        try:
            node.connect(analyzer.address)
            for synopsis in make_trace(50):
                node.stream.sink(synopsis)
            node.stream.flush_wire()
            _wait_for(lambda: analyzer.collector.count >= 50)
        finally:
            producer.close()
            analyzer.close()

    def test_connect_requires_wire_format(self):
        analyzer = SAAD(config(), listen=("127.0.0.1", 0))
        producer = SAAD(config())
        node = producer.add_node("plain")
        try:
            with pytest.raises(ValueError, match="wire_format"):
                node.connect(analyzer.address)
        finally:
            analyzer.close()
