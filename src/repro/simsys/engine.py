"""The discrete-event simulation core: :class:`Environment` and :class:`Process`.

A process is a generator that yields :class:`~repro.simsys.events.Event`
objects.  The environment maintains a priority queue of triggered events
ordered by ``(time, priority, sequence)`` and processes them in order,
resuming any waiting generators.

Simulated time is a ``float`` in **seconds**.  All system simulations in
this repository run on this clock, which makes multi-hour experiments
deterministic and fast.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Generator, Iterable, Optional

from .errors import Interrupted, SimError, StopSimulation
from .events import Event, NORMAL, PENDING, Timeout, URGENT, all_of, any_of, deadline


class Process(Event):
    """Wraps a generator as a simulation process.

    A process is itself an event that triggers when the generator returns
    (value = generator return value) or raises (failure).  ``yield proc``
    therefore joins a child process.
    """

    __slots__ = ("_generator", "_target", "name", "thread")

    def __init__(self, env, generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The simulated thread executing this process, if any.  Used by the
        #: logging/tracking layer to locate thread-local task context.
        self.thread = None
        #: The event this process currently waits on (None when running).
        self._target: Optional[Event] = None
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if not self.is_alive:
            return
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupted(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        # Drop the wait target; an interrupt may arrive while a target is
        # still pending, in which case we must unsubscribe from it.
        target = self._target
        if target is not None:
            if target is not event and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as exc:
                env._active_process = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                generator.throw(
                    SimError(f"process {self.name!r} yielded non-event {next_event!r}")
                )
                return
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: wait on it.
                callbacks.append(self._resume)
                self._target = next_event
                env._active_process = None
                return
            # Already-processed event: continue immediately with its value.
            event = next_event

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Environment:
    """Simulation environment: clock, event queue, process management."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Cancelled timeouts (see :func:`~repro.simsys.events.deadline`)
        #: still sitting in the queue since its last compaction.
        self._cancelled = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_process

    @property
    def active_thread(self):
        """The simulated thread of the active process, if any."""
        proc = self._active_process
        return proc.thread if proc is not None else None

    # -- event creation -----------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]):
        """Condition that triggers when all ``events`` have triggered."""
        return all_of(self, events)

    def any_of(self, events: Iterable[Event]):
        """Condition that triggers when any of ``events`` has triggered."""
        return any_of(self, events)

    def deadline(self, event: Event, timeout: float):
        """Condition that triggers when ``event`` has, or after ``timeout``.

        ``any_of([event, timeout(timeout)])`` whose timeout is cancelled
        when ``event`` wins (:func:`~repro.simsys.events.deadline`).
        """
        return deadline(self, event, timeout)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def _cancel(self, timeout: Timeout) -> None:
        """Mark a queued timeout that nothing can wait on as processed.

        The queue skips it when its time comes, as it would a timeout
        with no callbacks.  Once cancelled entries outnumber the live
        ones, the queue is compacted: a deadline-bounded simulation keeps
        one dead timeout per finished wait, far more than it has live
        events, and every push and pop pays for the queue's depth.
        """
        timeout.callbacks = None
        self._cancelled = cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled >= 64 and 2 * cancelled > len(queue):
            live = []
            latest = None
            for entry in queue:
                if entry[3].callbacks is not None:
                    live.append(entry)
                elif latest is None or entry > latest:
                    latest = entry
            if latest is not None:
                # The latest cancelled entry stays, so a run that drains
                # its queue still ends at the same time.
                live.append(latest)
            queue[:] = live
            heapq.heapify(queue)
            self._cancelled = 1 if latest is not None else 0

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise StopSimulation("event queue is empty")
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # already processed (defensive; should not happen)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None:
            if until < self._now:
                raise ValueError(f"until={until} is in the past (now={self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(lambda _e: (_ for _ in ()).throw(StopSimulation()))
            self.schedule(stop, delay=until - self._now, priority=URGENT)
        # The loop is step() inlined: this is where every simulation spends
        # its time, so it binds the queue and heappop to locals.
        queue = self._queue
        pop = heapq.heappop
        # The cyclic garbage collector is paused while events run.  A
        # simulation allocates millions of short-lived objects, which
        # reference counting frees, and keeps every synopsis it produces;
        # each full collection rescans all of that retained state (about a
        # fifth of a loaded Cassandra run's time) to find the few cycles a
        # run leaves, such as finished threads and their processes.  Those
        # are collected once the collector is back on.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            while queue:
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    continue  # already processed (defensive; should not happen)
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody handled: surface it to the caller.
                    raise event._value
        except StopSimulation:
            self._now = until if until is not None else self._now
        finally:
            if paused:
                gc.enable()

