"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the :class:`~repro.simsys.engine.Environment` resumes a process when the
event it waits on is processed.

An :class:`Event` moves through three states:

``pending``  → not yet triggered; processes may wait on it.
``triggered`` → has a value (or an exception) and sits in the event queue.
``processed`` → callbacks have run; waiting processes were resumed.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

PENDING = object()
"""Sentinel for "event has no value yet"."""

#: Scheduling priorities. Lower sorts earlier at equal simulation time.
URGENT = 0
NORMAL = 1
LOW = 2


class Event:
    """A happening that processes can wait for.

    Parameters
    ----------
    env:
        The owning :class:`~repro.simsys.engine.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with this event once it is processed.  ``None``
        #: once the event has been processed (guards double-processing).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Environment.schedule(self) at delay 0, NORMAL priority, inlined.
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into them.  If nobody
        waits, the simulation surfaces the exception at processing time
        (unless :meth:`defused` was called).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Environment.schedule inlined: simulations
        # create a timeout for nearly every step they take.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._seq += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Waits for a combination of events (used via :func:`all_of`/:func:`any_of`).

    ``evaluate`` receives ``(events, triggered_count)`` and returns True once
    the condition holds.  The condition's value is a dict mapping each
    triggered event to its value.

    ``timer`` is a :class:`Timeout` among ``events`` that only this
    condition can wait on (see :func:`deadline`): once the condition is
    decided, the timer is cancelled instead of left to fire into nothing.
    """

    __slots__ = ("_events", "_evaluate", "_count", "_timer")

    def __init__(
        self,
        env,
        evaluate: Callable[[list, int], bool],
        events,
        timer: Optional["Timeout"] = None,
    ):
        super().__init__(env)
        self._events = events = list(events)
        self._evaluate = evaluate
        self._count = 0
        self._timer = timer
        for event in events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not events and evaluate(events, 0):
            self.succeed({})
            return
        check = self._check
        for event in events:
            if self._value is not PENDING:
                break  # decided by an event already processed
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e._value is not PENDING and e._ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._unsubscribe()
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
            self._unsubscribe()

    def _unsubscribe(self) -> None:
        """Stop listening to the events still pending once triggered.

        Their outcome can no longer matter, and an event that never
        triggers (a waiter dropped after a timeout) would otherwise keep
        this condition, and itself, alive in a reference cycle.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)
        timer = self._timer
        if timer is not None and timer.callbacks == []:
            self.env._cancel(timer)


def _all_triggered(events: list, count: int) -> bool:
    return count >= len(events)


def _any_triggered(events: list, count: int) -> bool:
    return count >= 1


def all_of(env, events) -> Condition:
    """A condition that triggers once *all* events have triggered."""
    return Condition(env, _all_triggered, events)


def any_of(env, events) -> Condition:
    """A condition that triggers once *any* event has triggered."""
    events = list(events)
    if not events:
        raise ValueError("any_of() requires at least one event")
    return Condition(env, _any_triggered, events)


def deadline(env, event: Event, timeout: float) -> Condition:
    """A condition that triggers once ``event`` has, or ``timeout`` elapses.

    The same condition as ``any_of([event, env.timeout(timeout)])``, down
    to its value and the order in which it schedules events, except that
    the timeout is the condition's own: when ``event`` wins, the timeout
    is cancelled.  A simulation that bounds most of its waits this way
    would otherwise carry one dead timeout per wait in its event queue
    until the timeout's time comes.
    """
    timer = Timeout(env, timeout)
    return Condition(env, _any_triggered, (event, timer), timer=timer)
