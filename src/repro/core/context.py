"""Per-thread task-context providers.

The tracker keeps each in-flight task's state in *thread-local storage*
(paper Sec. 4.1).  What "the current thread" means differs between a real
Python program and our discrete-event simulations, so the tracker talks to
a small provider interface:

* :class:`RealThreadContext` — backed by :mod:`threading` locals; used when
  SAAD instruments an actual Python application.
* :class:`SimThreadContext` — backed by the simulation environment's active
  :class:`~repro.simsys.threads.SimThread`.

Both support exit hooks, which model Java's ``finalize()``-based
task-termination inference for the dispatcher-worker staging model.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Dict, List, Optional

_EXIT_KEY = "saad.thread_exit"


class ThreadContextProvider:
    """Interface the tracker uses to reach per-thread storage."""

    def slot(self) -> Optional[Dict[str, Any]]:
        """Mutable per-thread dict, or None when no thread context exists."""
        raise NotImplementedError

    def thread_name(self) -> str:
        """Display name of the current thread."""
        raise NotImplementedError

    def register_exit_hook(self, hook: Callable[[], None]) -> bool:
        """Ask to run ``hook`` when the current thread dies.

        Returns False when the platform cannot observe thread death (the
        tracker then relies on ``set_context`` re-entry or explicit
        ``end_task``).
        """
        return False


class _ThreadExit:
    """Sentinel kept in a thread's local dict; runs its hooks when freed.

    A thread's :class:`threading.local` dict is released when the thread
    dies, which frees the sentinel and fires the hooks — the Python
    counterpart of the Java ``finalize()`` the paper relies on.  (The
    dict is also released if the ``threading.local`` itself is
    collected first.)
    """

    __slots__ = ("hooks",)

    def __init__(self) -> None:
        self.hooks: List[Callable[[], None]] = []

    def __del__(self) -> None:
        for hook in self.hooks:
            hook()


class RealThreadContext(ThreadContextProvider):
    """Thread-local storage on real Python threads.

    ``slot`` is an instance attribute, not a method: a C-level partial
    that fetches the calling thread's ``threading.local`` dict (created
    on first access), so the tracker's per-log-call path runs no Python
    frame to find its task.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.slot: Callable[[], Dict[str, Any]] = partial(
            getattr, self._local, "__dict__"
        )

    def thread_name(self) -> str:
        """Name of the current OS thread."""
        return threading.current_thread().name

    def register_exit_hook(self, hook: Callable[[], None]) -> bool:
        """Run ``hook`` when the current thread dies (always possible here).

        The hook must not hold this thread's slot dict: the dict holds
        the sentinel, and a cycle through it would wait for the garbage
        collector instead of firing at thread death.
        """
        store = self._local.__dict__
        sentinel = store.get(_EXIT_KEY)
        if sentinel is None:
            sentinel = store[_EXIT_KEY] = _ThreadExit()
        sentinel.hooks.append(hook)
        return True


class SimThreadContext(ThreadContextProvider):
    """Thread-local storage on simulated threads.

    Log calls made outside any simulated thread (e.g. module-level driver
    code) fall into a shared fallback slot so they are tolerated but not
    attributed to a task.
    """

    def __init__(self, env) -> None:
        self.env = env
        self._fallback: Dict[str, Any] = {}

    def slot(self) -> Dict[str, Any]:
        """The active simulated thread's locals (main-thread fallback).

        Reads the environment's active process directly rather than
        through its ``active_thread`` property: this runs on every log
        call and task start of a simulation.
        """
        process = self.env._active_process
        thread = process.thread if process is not None else None
        return thread.locals if thread is not None else self._fallback

    def thread_name(self) -> str:
        """Name of the active simulated thread (or "main")."""
        thread = self.env.active_thread
        return thread.name if thread is not None else "main"

    def register_exit_hook(self, hook: Callable[[], None]) -> bool:
        """Attach ``hook`` to the active simulated thread's death."""
        thread = self.env.active_thread
        if thread is None:
            return False
        thread.exit_hooks.append(lambda _thread: hook())
        return True
