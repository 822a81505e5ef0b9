"""Cross-process determinism: N shards emit the single-process event set.

Every stage's detector state lives wholly in one shard, so partitioning
must not change *what* is detected — only where.  These tests run the
same faulted trace through a single-process detector and through pools
of different widths and require the order-normalized event sets to be
identical.
"""

import pytest

from repro.core import AnomalyDetector
from repro.shard import EVENT_ORDER, ShardedAnalyzer

from tests.core.float_reference import ReferenceDetector

from .conftest import make_trace

pytestmark = pytest.mark.shard


def _single_process_events(model, trace):
    """``observe`` over ``trace``, held to the float reference."""
    detector, reference = AnomalyDetector(model), ReferenceDetector(model)
    for synopsis in trace:
        detector.observe(synopsis)
        reference.observe(synopsis)
    detector.flush()
    reference.flush()
    events = sorted(detector.anomalies, key=EVENT_ORDER)
    assert sorted(reference.anomalies, key=EVENT_ORDER) == events
    return events


@pytest.mark.parametrize("shards", [1, 4])
def test_sharded_matches_single_process(model, detect_trace, shards):
    expected = _single_process_events(model, detect_trace)
    assert expected, "fixture trace must actually trip the detector"

    with ShardedAnalyzer(model, shards) as pool:
        pool.dispatch(detect_trace)
        pool.close()

    assert pool.anomalies == expected
    assert pool.anomalies == sorted(pool.anomalies, key=EVENT_ORDER)


def test_one_vs_four_shards_identical(model, detect_trace):
    results = []
    for shards in (1, 4):
        with ShardedAnalyzer(model, shards) as pool:
            pool.dispatch(detect_trace)
            pool.close()
            results.append(pool.anomalies)
    assert results[0] == results[1]


def test_spawn_start_method_matches(model):
    # Spawn pays ~1s of interpreter startup per worker, so keep the
    # trace small; the point is protocol picklability, not throughput.
    trace = make_trace(600, seed=13, faults=True, uid_base=50_000)
    expected = _single_process_events(model, trace)
    with ShardedAnalyzer(model, 2, start_method="spawn") as pool:
        pool.dispatch(trace)
        pool.close()
    assert pool.anomalies == expected
