"""Bounded analyzer memory: a deployment collects until it detects.

``SAAD.stream_detector()`` ends the collector's retention.  From then on
frames go to the detector and nothing is kept, so a detecting
deployment's memory follows its open windows, not the tasks it has
seen; a training trace retained before the call stays until ``drain()``.
Training reads its trace once and keeps only the per-signature
duration lists, not a list of per-task feature vectors.

The nodes here are in-process ``wire_format`` runtimes driven the way an
instrumented server drives them (stage delimiter, log calls, end of
task) on a scripted clock, their frames delivered into the collector's
``feed`` or over a loopback TCP connection to the deployment's own
listener.
"""

import random
import time
import tracemalloc

import pytest

from repro.core import (
    SAAD,
    AnomalyDetector,
    OutlierModel,
    SAADConfig,
    features_from,
    model_to_json,
)
from repro.loglib.record import LogCall

HOSTS = 4
STAGES = ("read", "write", "flush")
#: Per stage, the log-point offsets of its two routine flows.
FLOWS = ((1, 2, 3), (1, 2, 2, 4))
#: A log point no training task visits: a new signature, a flow anomaly.
NOVEL = 9
#: Scripted task rate: task n starts at n ms.
TASK_S = 0.001
DEBUG = 10
TRAIN_TASKS = 8_000
DETECT_FROM = 20_000
DETECT_TASKS = 12_000
#: Detection tasks that visit NOVEL: six 1-s windows of every stage.
ANOMALOUS = range(24_000, 30_000)


def config():
    return SAADConfig(window_s=1.0, min_window_tasks=5)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def deployment(listen=None):
    """A deployment with HOSTS wire-format nodes on one scripted clock."""
    saad = SAAD(config(), listen=listen)
    for name in STAGES:
        saad.stages.register(name)
    clock = _Clock()
    nodes = [
        saad.add_node(f"host{host}", clock=clock, wire_format=True) for host in range(HOSTS)
    ]
    return saad, clock, nodes


def feed_collector(saad, nodes):
    for node in nodes:
        node.stream.frame_sink = saad.collector.feed


def drive(nodes, clock, first, count, seed, novel=()):
    """Run tasks ``first .. first + count`` round-robin over the nodes;
    those numbered in ``novel`` also visit the NOVEL log point.

    A task's duration is its last log call's time minus its start, so
    only that call is stamped per task; the others are built once.
    """
    rng = random.Random(seed)
    calls = {}
    for stage in range(len(STAGES)):
        for shape, flow in enumerate(FLOWS):
            for anomalous in (False, True):
                lps = [10 * (stage + 1) + lp for lp in flow + (NOVEL,) * anomalous]
                calls[stage, shape, anomalous] = (
                    [LogCall(lp, DEBUG, "worker", 0.0) for lp in lps[:-1]],
                    lps[-1],
                )
    for number in range(first, first + count):
        node = nodes[number % HOSTS]
        stage = (number // HOSTS) % len(STAGES)
        leading, last = calls[stage, rng.random() < 0.2, number in novel]
        clock.now = start = number * TASK_S
        node.set_context(STAGES[stage])
        on_log = node.tracker.on_log
        for call in leading:
            on_log(call)
        on_log(LogCall(last, DEBUG, "worker", start + 0.002 + 0.002 * rng.random()))
        node.end_task()


def counter(saad, name):
    return saad.registry.get(name).value


def reference_events(model, frames):
    """What a detector fed the same frames directly raises."""
    detector = AnomalyDetector(model, config())
    for frame in frames:
        detector.observe_batch(frame)
    detector.flush()
    return detector.anomalies


@pytest.fixture(scope="module")
def trace():
    """A training trace: a separate deployment's retained synopses."""
    saad, clock, nodes = deployment()
    feed_collector(saad, nodes)
    drive(nodes, clock, 0, TRAIN_TASKS, seed=1)
    saad.collector.flush()
    synopses = saad.collector.drain()
    saad.close()
    assert len(synopses) == TRAIN_TASKS
    return synopses


class TestStreamDetectorRetention:
    def test_detecting_deployment_keeps_no_frames(self, trace):
        saad, clock, nodes = deployment()
        feed_collector(saad, nodes)
        saad.train(trace)
        detector = saad.stream_detector()
        frames = []
        saad.collector.subscribe_frames(frames.append)
        drive(nodes, clock, DETECT_FROM, DETECT_TASKS, seed=2, novel=ANOMALOUS)
        saad.collector.flush()
        detector.flush()
        assert saad.collector.synopses == []
        assert saad.collector.count == DETECT_TASKS
        assert counter(saad, "detector_tasks_observed") == DETECT_TASKS
        assert counter(saad, "collector_retained_synopses") == 0
        assert any(event.new_signatures for event in detector.anomalies)
        assert detector.anomalies == reference_events(saad.model, frames)
        saad.close()

    def test_training_trace_stays_until_drain(self):
        saad, clock, nodes = deployment()
        feed_collector(saad, nodes)
        drive(nodes, clock, 0, TRAIN_TASKS, seed=1)
        saad.collector.flush()
        uids = [synopsis.uid for synopsis in saad.collector.synopses]
        assert counter(saad, "collector_retained_synopses") == TRAIN_TASKS
        model = saad.train()
        detector = saad.stream_detector()
        frames = []
        saad.collector.subscribe_frames(frames.append)
        drive(nodes, clock, DETECT_FROM, DETECT_TASKS, seed=2, novel=ANOMALOUS)
        saad.collector.flush()
        detector.flush()
        # The training trace is still there for a later train() ...
        assert [synopsis.uid for synopsis in saad.collector.synopses] == uids
        assert counter(saad, "collector_retained_synopses") == TRAIN_TASKS
        assert model_to_json(saad.train()) == model_to_json(model)
        assert saad.collector.count == TRAIN_TASKS + DETECT_TASKS
        assert counter(saad, "detector_tasks_observed") == DETECT_TASKS
        assert detector.anomalies
        assert detector.anomalies == reference_events(model, frames)
        # ... and drain() releases it.
        assert len(saad.collector.drain()) == TRAIN_TASKS
        assert saad.collector.synopses == []
        assert counter(saad, "collector_retained_synopses") == 0
        saad.close()

    def test_loopback_tcp_deployment_keeps_no_frames(self, trace):
        saad, clock, nodes = deployment(listen=("127.0.0.1", 0))
        try:
            for node in nodes:
                node.connect(saad.address)
            saad.train(trace)
            frames = []
            detector = saad.stream_detector()
            saad.collector.subscribe_frames(frames.append)
            drive(nodes, clock, DETECT_FROM, DETECT_TASKS, seed=2, novel=ANOMALOUS)
            for node in nodes:
                node.stream.flush_wire()
                node._client.wait_acked()
            deadline = time.monotonic() + 10.0
            while saad.collector.count < DETECT_TASKS and time.monotonic() < deadline:
                time.sleep(0.01)
            assert saad.collector.count == DETECT_TASKS
            assert counter(saad, "detector_tasks_observed") == DETECT_TASKS
            assert saad.collector.synopses == []
            assert counter(saad, "collector_retained_synopses") == 0
            detector.flush()
            assert detector.anomalies
            assert detector.anomalies == reference_events(saad.model, frames)
        finally:
            saad.close()


class TestTrainingMemory:
    #: tracemalloc peak above the input trace, per training synopsis.
    #: The duration lists take 8 bytes a task; a list of per-task
    #: feature vectors beside the trace would take about 100 more.
    BYTES_PER_TASK = 40

    def test_train_holds_no_per_task_feature_list(self, trace):
        synopses = (trace * 3)[:20_000]
        OutlierModel(config()).train(synopses[:100])  # warm interning and imports
        tracemalloc.start()  # the input list was allocated before: untraced
        try:
            OutlierModel(config()).train(synopses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(synopses) < self.BYTES_PER_TASK

    def test_same_model_as_the_feature_list(self, trace):
        streamed = OutlierModel(config()).train(trace)
        listed = OutlierModel(config()).train_features(features_from(trace))
        assert model_to_json(streamed) == model_to_json(listed)

    @pytest.mark.parametrize("shape", [list, lambda trace: (s for s in trace)])
    def test_train_tasks_counts_the_input(self, trace, shape):
        model = OutlierModel(config()).train(shape(trace))
        assert model.registry.get("train_tasks").value == len(trace)
        assert sum(stage.total_tasks for stage in model.stages.values()) == len(trace)


@pytest.mark.slow
class TestFlatMemory:
    TASKS = 300_000
    QUARTERS = 4

    def test_long_stream_memory_is_flat(self, trace):
        saad, clock, nodes = deployment()
        feed_collector(saad, nodes)
        saad.train(trace)
        detector = saad.stream_detector()
        quarter = self.TASKS // self.QUARTERS
        traced = []
        tracemalloc.start()
        try:
            for part in range(self.QUARTERS):
                drive(nodes, clock, DETECT_FROM + part * quarter, quarter, seed=3 + part)
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        saad.collector.flush()
        detector.flush()
        assert counter(saad, "detector_tasks_observed") == self.TASKS
        growth = traced[-1] - traced[0]
        assert growth < 1 << 20, f"traced memory grew {growth} bytes: {traced}"
        saad.close()
