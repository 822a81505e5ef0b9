"""Tests for the stage partitioner and the decode-free byte router."""

import pytest

from repro.core.synopsis import decode_batch, encode_batch
from repro.shard import ShardedAnalyzer, route_payload, shard_table

from .conftest import make_trace

pytestmark = pytest.mark.shard


class TestShardTable:
    def test_table_matches_pool_routing(self, model):
        for shards in (1, 2, 3, 4):
            table = shard_table(shards)
            assert len(table) == 256
            with ShardedAnalyzer(model, shards) as pool:
                assert table == [pool.shard_of(stage) for stage in range(256)]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_table(0)


class TestRoutePayload:
    def test_routes_by_stage_without_decoding(self):
        synopses = make_trace(600)
        payload = encode_batch(synopses)
        table = shard_table(4)
        buckets = [[] for _ in range(4)]
        counts = route_payload(payload, 0, len(payload), table, buckets)

        assert sum(counts) == len(synopses)
        for shard, bucket in enumerate(buckets):
            assert counts[shard] == len(bucket)
            decoded = decode_batch(b"".join(bucket))
            assert decoded  # every shard sees work for this stage mix
            assert {table[s.stage_id] for s in decoded} == {shard}

    def test_slices_roundtrip_exactly(self):
        synopses = make_trace(50)
        payload = encode_batch(synopses)
        buckets = [[]]
        route_payload(payload, 0, len(payload), shard_table(1), buckets)
        assert b"".join(buckets[0]) == payload

    def test_truncated_header_rejected(self):
        synopses = make_trace(3)
        payload = encode_batch(synopses)
        # cut into the last synopsis's header: leave a few bytes of it
        end = len(payload) - len(synopses[-1].encode()) + 5
        with pytest.raises(ValueError, match="truncated synopsis header"):
            route_payload(payload, 0, end, shard_table(2), [[], []])

    def test_truncated_entries_rejected(self):
        payload = encode_batch(make_trace(1))
        with pytest.raises(ValueError, match="log point entries"):
            route_payload(payload, 0, len(payload) - 3, shard_table(2), [[], []])
