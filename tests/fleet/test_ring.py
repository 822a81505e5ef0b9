"""Consistent-hash ring: determinism, movement bounds, balance."""

import pytest

from repro.fleet.ring import DEFAULT_VNODES, HashRing

pytestmark = pytest.mark.fleet


class TestDeterminism:
    def test_placement_is_order_insensitive(self):
        a = HashRing(["node-0", "node-1", "node-2"])
        b = HashRing(["node-2", "node-0", "node-1"])
        assert a.table() == b.table()

    def test_placement_is_instance_independent(self):
        nodes = ["alpha", "beta", "gamma", "delta"]
        assert HashRing(nodes).table() == HashRing(list(reversed(nodes))).table()

    def test_placement_survives_rebuild_through_churn(self):
        # Adding then removing a node restores the exact prior table.
        ring = HashRing(["node-0", "node-1", "node-2"])
        before = list(ring.table())
        ring.add("node-3")
        ring.remove("node-3")
        assert ring.table() == before

    def test_every_stage_byte_has_an_owner(self):
        ring = HashRing(["only"])
        assert ring.table() == ["only"] * 256

    def test_owner_matches_table(self):
        ring = HashRing(["node-0", "node-1", "node-2"])
        table = ring.table()
        for stage_id in (0, 1, 7, 11, 42, 255):
            assert ring.owner(stage_id) == table[stage_id]


class TestMovement:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_join_moves_bounded_fraction(self, n):
        ring = HashRing([f"node-{i}" for i in range(n)])
        before = list(ring.table())
        ring.add(f"node-{n}")
        moved = HashRing.moved(before, ring.table())
        bound = 1.5 * 256 / (n + 1)
        assert 0 < len(moved) <= bound

    def test_join_moves_stages_only_to_the_joiner(self):
        ring = HashRing(["node-0", "node-1", "node-2"])
        before = list(ring.table())
        ring.add("node-3")
        after = ring.table()
        for stage_id in HashRing.moved(before, after):
            assert after[stage_id] == "node-3"

    def test_leave_moves_only_the_leavers_stages(self):
        ring = HashRing(["node-0", "node-1", "node-2", "node-3"])
        before = list(ring.table())
        ring.remove("node-1")
        after = ring.table()
        for stage_id in HashRing.moved(before, after):
            assert before[stage_id] == "node-1"
        # And every stage the leaver owned moved somewhere.
        owned = [s for s in range(256) if before[s] == "node-1"]
        assert HashRing.moved(before, after) == owned

    def test_static_partitioner_would_move_almost_everything(self):
        # The motivating comparison: modulo placement remaps ~all
        # stages when the pool grows by one; the ring moves ~1/N.
        modulo_moved = HashRing.moved(
            [s % 3 for s in range(256)], [s % 4 for s in range(256)]
        )
        ring = HashRing(["node-0", "node-1", "node-2"])
        before = list(ring.table())
        ring.add("node-3")
        ring_moved = HashRing.moved(before, ring.table())
        assert len(ring_moved) < len(modulo_moved) / 2


class TestBalance:
    def test_ownership_covers_every_node(self):
        ring = HashRing([f"node-{i}" for i in range(4)])
        ownership = ring.ownership()
        assert sum(ownership.values()) == 256
        for node_id, owned in ownership.items():
            # Loose smoothness bound: nobody starves, nobody hogs.
            assert 256 / (4 * 4) <= owned <= 256 * 2 / 4, ownership

    def test_more_vnodes_do_not_break_coverage(self):
        ring = HashRing(["a", "b"], vnodes=DEFAULT_VNODES * 2)
        assert sum(ring.ownership().values()) == 256


class TestLifecycle:
    def test_version_bumps_on_membership_changes(self):
        ring = HashRing()
        assert ring.version == 0
        assert ring.add("node-0")
        assert ring.version == 1
        assert not ring.add("node-0")  # idempotent, no bump
        assert ring.version == 1
        assert ring.remove("node-0")
        assert ring.version == 2
        assert not ring.remove("node-0")
        assert ring.version == 2

    def test_empty_ring_refuses_to_place(self):
        with pytest.raises(LookupError):
            HashRing().owner(42)

    def test_contains_and_len(self):
        ring = HashRing(["a", "b"])
        assert "a" in ring and "c" not in ring
        assert len(ring) == 2

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
