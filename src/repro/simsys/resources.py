"""Blocking resources for simulation processes: queues, stores, semaphores.

These mirror the concurrency primitives of a staged server: bounded request
queues between stages, capacity-limited resources (disks, locks), and
condition-style wait events.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Environment
from .errors import QueueClosed
from .events import Event


class SimQueue:
    """A FIFO queue with blocking ``get`` and optional capacity.

    This is the task queue of the paper's producer-consumer staging model:
    producer threads ``put`` requests, consumer threads loop on ``get``.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()
        self._closed = False
        #: Total items ever enqueued (for monitoring/backpressure metrics).
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the queue; pending and future getters fail with QueueClosed."""
        self._closed = True
        while self._getters:
            getter = self._getters.popleft()
            if getter.callbacks is not None and not getter.triggered:
                getter.fail(QueueClosed(self.name))
        while self._putters:
            _, putter = self._putters.popleft()
            if putter.callbacks is not None and not putter.triggered:
                putter.fail(QueueClosed(self.name))

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; returns an event that triggers once accepted."""
        if self._closed:
            raise QueueClosed(self.name)
        done = Event(self.env)
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((item, done))
            return done
        self._deliver(item)
        done.succeed()
        return done

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the queue is full or closed."""
        if self._closed:
            return False
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._deliver(item)
        return True

    def get(self) -> Event:
        """Dequeue an item; returns an event whose value is the item."""
        got = Event(self.env)
        if self._items:
            got.succeed(self._items.popleft())
            self._admit_putter()
        elif self._closed:
            got.fail(QueueClosed(self.name))
        else:
            self._getters.append(got)
        return got

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _deliver(self, item: Any) -> None:
        self.total_enqueued += 1
        while self._getters:
            getter = self._getters.popleft()
            if getter.callbacks is None or getter.triggered:
                continue  # cancelled/stale
            getter.succeed(item)
            return
        self._items.append(item)

    def _admit_putter(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            item, done = self._putters.popleft()
            if done.callbacks is None or done.triggered:
                continue
            self._deliver(item)
            done.succeed()


class Semaphore:
    """Counting semaphore; models capacity-limited resources and mutexes."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Returns an event that triggers once a slot is held."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of un-acquired semaphore {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.callbacks is None or waiter.triggered:
                continue
            waiter.succeed()  # hand the slot directly to the waiter
            return
        self._in_use -= 1

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`acquire` (e.g. after a wait timeout).

        If the slot was already granted to the event, it is released.
        """
        try:
            self._waiters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered and event.ok:
            self.release()


class Gate:
    """A reentrant open/closed barrier processes can wait on.

    Models the Cassandra MemTable *freeze*: while any freezer holds the
    gate closed (WAL retry in flight, memtable switch in progress), tasks
    that want to mutate must wait — and may time out, which is exactly
    the premature-termination flow the paper's Table 1 uncovers.

    ``close()`` calls nest; the gate opens when every close has been
    balanced by an ``open()``.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._closed_count = 0
        self._waiters: Deque[Event] = deque()

    @property
    def is_closed(self) -> bool:
        return self._closed_count > 0

    def close(self) -> None:
        self._closed_count += 1

    def open(self) -> None:
        if self._closed_count <= 0:
            raise RuntimeError(f"open of already-open gate {self.name!r}")
        self._closed_count -= 1
        if self._closed_count == 0:
            waiters, self._waiters = self._waiters, deque()
            for waiter in waiters:
                if waiter.callbacks is not None and not waiter.triggered:
                    waiter.succeed(True)

    def wait(self, timeout: Optional[float] = None):
        """Process generator: wait until open; returns False on timeout."""
        if not self.is_closed:
            return True
        waiter = Event(self.env)
        self._waiters.append(waiter)
        if timeout is None:
            yield waiter
            return True
        yield self.env.deadline(waiter, timeout)
        if waiter.triggered:
            return True
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass
        return False


class Mutex(Semaphore):
    """A binary semaphore.

    Used by the Cassandra simulation for the MemTable freeze lock whose
    non-release under a WAL fault produces the paper's Table 1 anomaly.
    """

    def __init__(self, env: Environment, name: str = ""):
        super().__init__(env, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._in_use >= self.capacity
