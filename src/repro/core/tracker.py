"""The task execution tracker (paper Sec. 3.2, 4.1).

A thin layer between server code and the logging library:

* ``set_context(stage_id)`` — inserted at the beginning of each stage —
  tells the tracker the current thread is about to execute a new task.
  If the thread already carries an open task (producer-consumer thread
  reuse), that task is finalized first.
* :meth:`on_log` — installed as a loglib interceptor — records the log
  point id and bumps its visit count in the thread-local task structure.
  Message content is never touched.
* Task termination is inferred three ways, matching the paper: re-entry
  of ``set_context`` on the same thread (producer-consumer), thread exit
  hooks (the ``finalize()`` trick for dispatcher-worker), and an explicit
  :meth:`end_task` for code that knows its own boundaries.

On termination the tracker hands the task to the configured sink
(normally a synopsis stream to the analyzer).  It builds a
:class:`TaskSynopsis` only when something reads one; otherwise the task's
fields go straight into the stream's next wire frame.

All per-task state lives in the thread's own slot, counters included,
so a log call writes nothing another thread writes.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time as _time
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.loglib.record import LogCall
from repro.telemetry import MetricsRegistry

from .context import RealThreadContext, ThreadContextProvider
from .stream import SynopsisStream
from .synopsis import SYNOPSIS_ENTRY, SYNOPSIS_HEADER, TaskSynopsis

_SLOT_KEY = "saad.task"
_HEADER_SIZE = SYNOPSIS_HEADER.size
_ENTRY_SIZE = SYNOPSIS_ENTRY.size

SynopsisSink = Callable[[TaskSynopsis], None]


class _TaskSlot:
    """One thread's tracker state, kept in its thread-local storage.

    The open task's fields are reused task after task; ``log_points``
    is None while no task is open.  ``events`` stays None unless tracing
    is enabled, so the untraced hot path never pays for an empty list
    per task.  The counters are this thread's share of
    :class:`TrackerStats`; only this thread writes them.
    """

    __slots__ = (
        "stage_id",
        "uid",
        "start_time",
        "last_log_time",
        "log_points",
        "events",
        "tasks_started",
        "tasks_completed",
        "log_calls_tracked",
        "log_calls_untracked",
        "synopsis_bytes",
    )

    def __init__(self) -> None:
        self.stage_id = 0
        self.uid = 0
        self.start_time = 0.0
        self.last_log_time = 0.0
        self.log_points: Optional[Dict[int, int]] = None
        self.events: Optional[List[Tuple[int, float]]] = None
        self.tasks_started = 0
        self.tasks_completed = 0
        self.log_calls_tracked = 0
        self.log_calls_untracked = 0
        self.synopsis_bytes = 0


class TrackerStats:
    """The tracker's self-accounting: totals over per-thread counters.

    Each thread counts into its own :class:`_TaskSlot`, so the hot path
    has no shared write and no lock, and the totals are exact under real
    threads.  A thread's counts fold into the retired totals when it
    dies.  Reading a total takes a lock and sums the live threads; the
    tracker registers callback-backed telemetry counters over these
    totals, so the registry sums only at collection time (DESIGN.md
    §10).  ``log_calls_tracked`` adds the sum of a task's log-point
    counts when the task finishes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: Set[_TaskSlot] = set()
        self._retired = _TaskSlot()

    def _add(self, task: _TaskSlot) -> None:
        with self._lock:
            self._live.add(task)

    def _retire(self, task: _TaskSlot) -> None:
        retired = self._retired
        with self._lock:
            self._live.discard(task)
            retired.tasks_started += task.tasks_started
            retired.tasks_completed += task.tasks_completed
            retired.log_calls_tracked += task.log_calls_tracked
            retired.log_calls_untracked += task.log_calls_untracked
            retired.synopsis_bytes += task.synopsis_bytes

    def _total(self, name: str) -> int:
        with self._lock:
            return getattr(self._retired, name) + sum(
                getattr(task, name) for task in self._live
            )

    @property
    def tasks_started(self) -> int:
        """Tasks opened by ``set_context``."""
        return self._total("tasks_started")

    @property
    def tasks_completed(self) -> int:
        """Tasks finalized (to the wire or into a synopsis)."""
        return self._total("tasks_completed")

    @property
    def log_calls_tracked(self) -> int:
        """Log-point visits of finished tasks."""
        return self._total("log_calls_tracked")

    @property
    def log_calls_untracked(self) -> int:
        """Log calls seen with no open task on the thread."""
        return self._total("log_calls_untracked")

    @property
    def synopsis_bytes(self) -> int:
        """Wire bytes of every finished task's synopsis."""
        return self._total("synopsis_bytes")


class TaskExecutionTracker:
    """Per-node tracker; install on a repository via ``add_interceptor``.

    Each thread keeps its open task and its counters in its own slot:
    a log call reads the thread's dict and bumps the open task's
    visit count, with no lock and no write another thread makes.  Uids
    come from one :func:`itertools.count`.  A finished task goes to the
    ``sink``.  When that sink is a :class:`SynopsisStream`'s own
    :meth:`~SynopsisStream.sink` and nothing reads objects — the stream
    has ``wire_format`` on, ``retain`` off and no subscribers, and the
    tracer is off — the task's fields go straight to
    :meth:`SynopsisStream.sink_fields` and no :class:`TaskSynopsis` is
    built.  This is decided per task from that state; a wrapped sink is
    not recognised and always gets objects.

    Parameters
    ----------
    host_id:
        Small integer identifying this node in the synopsis stream.
    sink:
        Callable receiving each finished :class:`TaskSynopsis`.
    context:
        Thread-context provider; defaults to real Python threads.
    clock:
        Time source; simulations pass ``lambda: env.now``.
    enabled:
        When False the tracker ignores everything (the "original" system
        of the Fig. 7 overhead comparison).
    registry:
        Telemetry registry receiving the tracker's self-metrics
        (``tracker_*{host=...}``).  Defaults to a private
        :class:`~repro.telemetry.MetricsRegistry`; pass a shared one
        (the ``SAAD`` facade does) to aggregate a deployment, or a
        :class:`~repro.telemetry.NullRegistry` to disable.
    tracer:
        Span recorder receiving one :class:`~repro.tracing.TaskTrace`
        per finished task (the ``SAAD`` facade shares one tracer across
        all nodes).  Defaults to the inert
        :data:`~repro.tracing.NULL_TRACER`, in which case the tracker
        skips all per-event timeline work — same type-swap off-switch
        as the telemetry registry.
    """

    def __init__(
        self,
        host_id: int = 0,
        sink: Optional[SynopsisSink] = None,
        context: Optional[ThreadContextProvider] = None,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        registry=None,
        tracer=None,
    ):
        self.host_id = host_id
        self.sink = sink
        self.context = context or RealThreadContext()
        self.clock = clock or _time.time
        self.enabled = enabled
        self.stats = TrackerStats()
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            from repro.tracing import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self._traced = bool(tracer.enabled)
        self._register_metrics()
        self._uids = itertools.count()
        # Counts log calls made where the context has no thread at all.
        self._no_thread = _TaskSlot()
        self.stats._add(self._no_thread)
        # Bound-method cache for the per-log-call hot path: on_log runs
        # once per logging call in the instrumented system, so each saved
        # attribute hop matters (paper Fig. 7: tracker overhead must stay
        # negligible).
        self._slot = self.context.slot

    @property
    def sink(self) -> Optional[SynopsisSink]:
        """The callable receiving finished tasks (or None).

        Assigning a stream's own ``sink`` lets finished tasks skip the
        :class:`TaskSynopsis` whenever that stream reads no objects.
        """
        return self._sink

    @sink.setter
    def sink(self, sink: Optional[SynopsisSink]) -> None:
        self._sink = sink
        owner = getattr(sink, "__self__", None)
        own_sink = getattr(sink, "__func__", None) is SynopsisStream.sink
        self._stream = owner if own_sink and isinstance(owner, SynopsisStream) else None

    def _register_metrics(self) -> None:
        """Register callback-backed counters over :class:`TrackerStats`.

        The hot path keeps mutating plain per-thread ints; the registry
        evaluates these callbacks only when a snapshot is taken, so
        instrumenting the tracker costs nothing per log call.
        """
        stats = self.stats
        host = str(self.host_id)
        for name, help_text, fn in (
            (
                "tracker_tasks_started",
                "tasks opened by set_context",
                lambda: stats.tasks_started,
            ),
            (
                "tracker_tasks_completed",
                "tasks finalized (into a synopsis or a wire frame)",
                lambda: stats.tasks_completed,
            ),
            (
                "tracker_log_calls_tracked",
                "log-point visits of finished tasks",
                lambda: stats.log_calls_tracked,
            ),
            (
                "tracker_log_calls_untracked",
                "log calls seen with no open task on the thread",
                lambda: stats.log_calls_untracked,
            ),
            (
                "tracker_synopsis_bytes",
                "wire bytes of all emitted synopses",
                lambda: stats.synopsis_bytes,
            ),
        ):
            self.registry.counter(name, help_text, labels=("host",)).labels(
                host=host
            ).set_function(fn)

    # -- stage delimiters -------------------------------------------------------
    def set_context(self, stage_id: int) -> None:
        """The paper's ``setContext(int stageId)`` stage delimiter."""
        if not self.enabled:
            return
        slot = self._slot()
        if slot is None:
            return
        task = slot.get(_SLOT_KEY)
        if task is None:
            task = self._new_slot(slot)
        elif task.log_points is not None:
            # Thread reuse: starting a new task implies the previous one
            # finished (producer-consumer termination inference).
            self._finalize(task)
        task.stage_id = stage_id
        task.uid = next(self._uids)
        task.start_time = task.last_log_time = self.clock()
        task.log_points = {}
        task.events = [] if self._traced else None
        task.tasks_started += 1

    def end_task(self) -> Optional[TaskSynopsis]:
        """Explicitly finalize the current thread's open task.

        Returns the task's :class:`TaskSynopsis` when one was built, and
        None when the task went straight to the wire (see the class
        docstring) or no task was open.
        """
        if not self.enabled:
            return None
        slot = self._slot()
        task = slot.get(_SLOT_KEY) if slot is not None else None
        if task is None or task.log_points is None:
            return None
        return self._finalize(task)

    # -- logging interception -----------------------------------------------------
    def on_log(self, call: LogCall) -> None:
        """loglib interceptor: register one log point encounter."""
        lpid = call.lpid
        if lpid is None or not self.enabled:
            return
        slot = self._slot()
        task = slot.get(_SLOT_KEY) if slot is not None else None
        log_points = task.log_points if task is not None else None
        if log_points is None:
            self._untracked(slot)
            return
        log_points[lpid] = log_points.get(lpid, 0) + 1
        task.last_log_time = call.time
        events = task.events
        if events is not None:
            events.append((lpid, call.time))

    # -- internals ----------------------------------------------------------------
    def _new_slot(self, slot) -> _TaskSlot:
        """This thread's first use: make its slot, ask for its exit hook."""
        task = slot[_SLOT_KEY] = _TaskSlot()
        self.stats._add(task)
        # Dispatcher-worker termination inference: finalize on thread
        # death (models Java's GC finalize()).  Asked once per thread;
        # the hook holds the task slot, never the thread's dict.
        self.context.register_exit_hook(partial(self._on_thread_exit, task))
        return task

    def _untracked(self, slot) -> None:
        if slot is None:
            task = self._no_thread
        else:
            task = slot.get(_SLOT_KEY) or self._new_slot(slot)
        task.log_calls_untracked += 1

    def _on_thread_exit(self, task: _TaskSlot) -> None:
        if task.log_points is not None:
            self._finalize(task)
        self.stats._retire(task)

    def _finalize(self, task: _TaskSlot) -> Optional[TaskSynopsis]:
        log_points = task.log_points
        task.log_points = None
        # Paper Sec. 3.3.1: duration = last log point time - task start.
        elapsed = task.last_log_time - task.start_time
        duration = elapsed if elapsed > 0.0 else 0.0
        events = task.events
        stream = self._stream
        if (
            events is None
            and stream is not None
            and stream.wire_format
            and not stream.retain
            and not stream.subscribers
        ):
            synopsis = None
            try:
                stream.sink_fields(
                    self.host_id, task.stage_id, task.uid, task.start_time, duration, log_points
                )
            except struct.error:
                # A host or stage id past a byte: raise the ValueError
                # the object route raises.
                TaskSynopsis(self.host_id, task.stage_id, task.uid, 0.0, 0.0)
                raise
        else:
            synopsis = TaskSynopsis(
                self.host_id, task.stage_id, task.uid, task.start_time, duration, log_points
            )
        task.tasks_completed += 1
        task.log_calls_tracked += sum(log_points.values())
        task.synopsis_bytes += _HEADER_SIZE + _ENTRY_SIZE * len(log_points)
        if synopsis is not None:
            if events is not None:
                # Record before the sink runs: the sink chain may reach
                # the detector synchronously, which may close a window
                # and try to pin this very trace as an exemplar.
                self.tracer.finish(synopsis, events)
            if self._sink is not None:
                self._sink(synopsis)
        return synopsis
