"""Membership-change equivalence: the fleet's merged feed is exact.

The acceptance bar for DESIGN.md §16: the order-normalized event set a
fleet emits is identical to a single-process detector's — in steady
state, with a node joining mid-stream, and with a node crashing
mid-stream (open windows rebuilt at new owners from retained replay).
The single-process events are themselves held to the float reference
(:class:`~tests.core.float_reference.ReferenceDetector`).
"""

import pytest

from repro.core import AnomalyDetector
from repro.fleet import AnalyzerFleet
from repro.shard.coordinator import EVENT_ORDER
from tests.core.float_reference import ReferenceDetector

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def expected(model):
    from tests.shard.conftest import make_trace

    trace = make_trace(3000, seed=13, faults=True, uid_base=10_000)
    single, reference = AnomalyDetector(model), ReferenceDetector(model)
    for synopsis in trace:
        single.observe(synopsis)
        reference.observe(synopsis)
    single.flush()
    reference.flush()
    events = sorted(single.anomalies, key=EVENT_ORDER)
    assert events, "workload must produce anomalies for the comparison to bite"
    assert sorted(reference.anomalies, key=EVENT_ORDER) == events
    return events


class TestSteadyState:
    def test_fleet_matches_single_process(self, model, detect_trace, expected):
        with AnalyzerFleet(model, 3) as fleet:
            fleet.dispatch(detect_trace)
            events = fleet.close()
        assert events == expected

    def test_single_node_fleet_matches(self, model, detect_trace, expected):
        with AnalyzerFleet(model, 1) as fleet:
            fleet.dispatch(detect_trace)
            events = fleet.close()
        assert events == expected

    def test_frame_path_matches_object_path(self, model, detect_trace, expected):
        blob = b"".join(s.encode() for s in detect_trace)
        with AnalyzerFleet(model, 3) as fleet:
            fleet.dispatch_payload(blob, 0, len(blob))
            events = fleet.close()
        assert events == expected


class TestJoin:
    def test_join_mid_stream_is_exact(self, model, detect_trace, expected):
        half = len(detect_trace) // 2
        with AnalyzerFleet(model, 3) as fleet:
            fleet.dispatch(detect_trace[:half])
            before = list(fleet.router.ring.table())
            fleet.join("node-3")
            after = fleet.router.ring.table()
            fleet.dispatch(detect_trace[half:])
            events = fleet.close()
        assert events == expected
        # The reshard actually moved a bounded slice of the stage space.
        moved = fleet.router.ring.moved(before, after)
        assert moved
        assert len(moved) <= 1.5 * 256 / 4
        assert all(after[s] == "node-3" for s in moved)

    def test_repeated_joins_stay_exact(self, model, detect_trace, expected):
        third = len(detect_trace) // 3
        with AnalyzerFleet(model, 2) as fleet:
            fleet.dispatch(detect_trace[:third])
            fleet.join("node-2")
            fleet.dispatch(detect_trace[third : 2 * third])
            fleet.join("node-3")
            fleet.dispatch(detect_trace[2 * third :])
            events = fleet.close()
        assert events == expected


class TestDeath:
    def test_crash_mid_stream_is_exact(self, model, detect_trace, expected):
        half = len(detect_trace) // 2
        with AnalyzerFleet(model, 3) as fleet:
            fleet.dispatch(detect_trace[:half])
            fleet.kill("node-2")
            fleet.dispatch(detect_trace[half:])
            events = fleet.close()
        assert events == expected

    def test_crash_then_rejoin_is_exact(self, model, detect_trace, expected):
        third = len(detect_trace) // 3
        with AnalyzerFleet(model, 3) as fleet:
            fleet.dispatch(detect_trace[:third])
            fleet.kill("node-1")
            fleet.dispatch(detect_trace[third : 2 * third])
            fleet.join("node-3")  # replacement capacity
            fleet.dispatch(detect_trace[2 * third :])
            events = fleet.close()
        assert events == expected

    def test_gossip_spreads_the_death_verdict(self, model, detect_trace):
        with AnalyzerFleet(model, 3) as fleet:
            fleet.step_gossip(6)
            fleet.kill("node-0")
            fleet.step_gossip(6)
            survivor = fleet._gossips["node-1"].table
            assert survivor.members["node-0"].state == "dead"
            fleet.dispatch(detect_trace)
            fleet.close()


class TestFacade:
    def test_saad_fleet_detect_matches(self, model, detect_trace, expected):
        from repro.core import SAAD

        saad = SAAD(config=model.config, fleet=3)
        saad.model = model
        assert saad.detect(detect_trace) == expected

    def test_fleet_and_shards_are_mutually_exclusive(self):
        from repro.core import SAAD

        with pytest.raises(ValueError):
            SAAD(shards=2, fleet=2)
