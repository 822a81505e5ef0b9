"""The node edge on real threads: exact counts, unique uids, whole frames.

Eight threads share one tracker and one wire-format stream, the way the
worker threads of an instrumented server share their node's tracker.
Every task must appear exactly once in a well-formed frame, and every
counter must equal what the frames hold — at the default switch
interval and at a 10 µs one, which makes the interpreter switch threads
inside the tracker and the stream far more often.
"""

import os
import sys
import threading

import pytest

from repro.core import SynopsisStream, TaskExecutionTracker
from repro.core.synopsis import decode_frame
from repro.loglib.record import LogCall

THREADS = 8
TASKS_PER_THREAD = 20_000
TOTAL = THREADS * TASKS_PER_THREAD
LOG_POINTS = (11, 12, 13)


def run_threads(switch_interval=None, subscriber=None):
    """Drive THREADS x TASKS_PER_THREAD three-log-point tasks; return the
    tracker, the stream and every frame the stream flushed."""
    frames = []
    stream = SynopsisStream(
        wire_format=True, retain=False, flush_size=64, frame_sink=frames.append
    )
    if subscriber is not None:
        stream.subscribe(subscriber)
    tracker = TaskExecutionTracker(host_id=1, sink=stream.sink, clock=lambda: 1.0)
    calls = [LogCall(lpid, 10, "worker", 1.5) for lpid in LOG_POINTS]
    start = threading.Barrier(THREADS)

    def worker(stage_id):
        set_context, on_log, end_task = tracker.set_context, tracker.on_log, tracker.end_task
        start.wait(timeout=30)
        for _ in range(TASKS_PER_THREAD):
            set_context(stage_id)
            for call in calls:
                on_log(call)
            end_task()

    previous = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    # The workers inherit this thread's CPU mask.  On one CPU the
    # interpreter still switches threads at the same bytecode boundaries,
    # but without the cross-core hand-offs of its lock, which on a 2-CPU
    # host made the run up to three times slower and its time erratic.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
        if cpus:
            os.sched_setaffinity(0, cpus)
    assert not any(thread.is_alive() for thread in threads)
    stream.flush_wire()
    return tracker, stream, frames


def check_exact(tracker, stream, frames):
    synopses = []
    for frame in frames:
        decoded, end = decode_frame(frame)
        assert end == len(frame)
        synopses.extend(decoded)
    assert sorted(synopsis.uid for synopsis in synopses) == list(range(TOTAL))
    visits = sum(sum(synopsis.log_points.values()) for synopsis in synopses)
    assert {tuple(synopsis.log_points.items()) for synopsis in synopses} == {
        tuple((lpid, 1) for lpid in LOG_POINTS)
    }
    stats = tracker.stats
    assert stream.count == stats.tasks_started == stats.tasks_completed == TOTAL
    assert stats.log_calls_tracked == visits == TOTAL * len(LOG_POINTS)
    assert stream.pending_wire_count == 0


@pytest.mark.parametrize(
    "switch_interval", [None, 1e-5], ids=["default-switch", "10us-switch"]
)
def test_record_route_is_exact(switch_interval):
    check_exact(*run_threads(switch_interval))


def test_object_route_is_exact_with_a_subscriber():
    received = []
    tracker, stream, frames = run_threads(1e-5, subscriber=received.append)
    check_exact(tracker, stream, frames)
    assert sorted(s.uid for s in received) == list(range(TOTAL))


def test_thread_exit_finalizes_the_open_task():
    """The paper's finalize() inference on a real thread: a task left
    open when its thread returns is finished by the thread's death."""
    sunk = []
    tracker = TaskExecutionTracker(host_id=0, sink=sunk.append, clock=lambda: 2.0)

    def worker():
        tracker.set_context(4)
        tracker.on_log(LogCall(7, 10, "worker", 2.25))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(sunk) == 1
    assert (sunk[0].stage_id, sunk[0].log_points, sunk[0].duration) == (4, {7: 1}, 0.25)
    assert tracker.stats.tasks_completed == 1
    assert tracker.stats.log_calls_tracked == 1
