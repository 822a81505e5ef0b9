"""The logger and logger repository (log4j-like).

The SAAD integration point is the *interceptor* list on the repository:
interceptors are notified with a :class:`~repro.loglib.record.LogCall` on
**every** logging call — even when the record is suppressed by the
configured level.  This is how the paper gets DEBUG-level execution-flow
insight at INFO-level output cost: the call to the logging library happens
regardless of verbosity; only rendering and appending are skipped.
"""

from __future__ import annotations

import time as _time
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional

from .appenders import Appender
from .levels import DEBUG, ERROR, FATAL, INFO, TRACE, WARN
from .record import LogCall, LogRecord

Clock = Callable[[], float]
ThreadNamer = Callable[[], str]

#: ``LogCall(lpid, level, logger_name, time)`` from one field tuple,
#: without the named tuple's Python-level ``__new__``: one is built on
#: every logging call.
_new_call = partial(tuple.__new__, LogCall)


@lru_cache(maxsize=None)
def _level_helper(level: int) -> Callable[..., None]:
    """The logging funnel with ``level`` bound: ``Logger.debug`` and kin.

    Every logging call, suppressed or not, runs this one body: the
    interceptors see the call first, then the record is rendered and
    appended only at or above the logger's effective level.  Binding the
    level here rather than passing it on to a shared method keeps a
    logging call to one Python frame; simulations make one per log point
    they pass.
    """

    def log_at(self: "Logger", template: str, *args, lpid: Optional[int] = None) -> None:
        repo = self.repository
        now = repo.clock()
        interceptors = repo.interceptors
        if interceptors:
            call = _new_call((lpid, level, self.name, now))
            for interceptor in interceptors:
                interceptor.on_log(call)
        threshold = self._effective
        if threshold is None:
            threshold = self.level
        if level < threshold:
            return
        record = LogRecord(
            time=now,
            level=level,
            logger_name=self.name,
            thread_name=repo.thread_namer(),
            template=template,
            args=args,
            lpid=lpid,
        )
        for appender in repo.appenders:
            appender.append(record)

    return log_at


class Logger:
    """A named logger bound to a repository.

    Level resolution is hierarchical: a logger without an explicit level
    inherits the closest ancestor's (dots delimit the hierarchy), falling
    back to the repository root level.
    """

    def __init__(self, name: str, repository: "LoggerRepository"):
        self.name = name
        self.repository = repository
        self._level: Optional[int] = None
        #: The resolved effective level; None until first needed.  The
        #: repository clears it whenever any level changes (as log4j does).
        self._effective: Optional[int] = None

    # -- configuration --------------------------------------------------------
    @property
    def level(self) -> int:
        level = self._effective
        if level is None:
            level = self._effective = self.repository.effective_level(self.name)
        return level

    def set_level(self, level: Optional[int]) -> None:
        """Set this logger's explicit level (None = inherit)."""
        self._level = level
        self.repository._invalidate_levels()

    # -- enablement ------------------------------------------------------------
    def is_enabled_for(self, level: int) -> bool:
        """Whether a record at ``level`` would be appended."""
        return level >= self.level

    def is_debug_enabled(self, lpid: Optional[int] = None) -> bool:
        """The paper's ``isDebugEnabled(uid)`` hook.

        When an interceptor (the SAAD tracker) is installed, this returns
        True for instrumented log points even if DEBUG *output* is off, so
        the guarded log call still executes and the tracker observes the
        log point.  The record itself is then suppressed in :meth:`log`.
        """
        if self.is_enabled_for(DEBUG):
            return True
        return lpid is not None and bool(self.repository.interceptors)

    # -- logging calls -----------------------------------------------------------
    def log(self, level: int, template: str, *args, lpid: Optional[int] = None) -> None:
        """Log at any ``level`` (the level helpers below are this funnel)."""
        _level_helper(level)(self, template, *args, lpid=lpid)

    trace = _level_helper(TRACE)
    debug = _level_helper(DEBUG)
    info = _level_helper(INFO)
    warn = _level_helper(WARN)
    error = _level_helper(ERROR)
    fatal = _level_helper(FATAL)

    def __repr__(self) -> str:
        return f"<Logger {self.name!r}>"


class LoggerRepository:
    """Factory and registry for loggers of one process/node.

    Parameters
    ----------
    root_level:
        Default level (production deployments use INFO).
    clock:
        Time source; simulations pass ``lambda: env.now``.
    thread_namer:
        Returns the current thread's display name for rendered records.
    """

    def __init__(
        self,
        root_level: int = INFO,
        clock: Optional[Clock] = None,
        thread_namer: Optional[ThreadNamer] = None,
    ):
        self._root_level = root_level
        self.clock: Clock = clock or _time.time
        self.thread_namer: ThreadNamer = thread_namer or (lambda: "main")
        self._loggers: Dict[str, Logger] = {}
        self.appenders: List[Appender] = []
        #: Objects with ``on_log(LogCall)``; the SAAD tracker installs here.
        self.interceptors: List = []

    def get_logger(self, name: str) -> Logger:
        """Return (creating if needed) the logger called ``name``."""
        if not name:
            raise ValueError("logger name must be non-empty")
        logger = self._loggers.get(name)
        if logger is None:
            logger = Logger(name, self)
            self._loggers[name] = logger
        return logger

    def effective_level(self, name: str) -> int:
        """Resolve the level for ``name`` through the dotted hierarchy."""
        parts = name.split(".")
        for i in range(len(parts), 0, -1):
            ancestor = self._loggers.get(".".join(parts[:i]))
            if ancestor is not None and ancestor._level is not None:
                return ancestor._level
        return self._root_level

    @property
    def root_level(self) -> int:
        return self._root_level

    @root_level.setter
    def root_level(self, level: int) -> None:
        self._root_level = level
        self._invalidate_levels()

    def _invalidate_levels(self) -> None:
        """Drop every logger's cached effective level."""
        for logger in self._loggers.values():
            logger._effective = None

    def add_appender(self, appender: Appender) -> None:
        self.appenders.append(appender)

    def add_interceptor(self, interceptor) -> None:
        """Install a log-call interceptor (must expose ``on_log(LogCall)``)."""
        if not hasattr(interceptor, "on_log"):
            raise TypeError(f"{interceptor!r} lacks an on_log method")
        self.interceptors.append(interceptor)

    def remove_interceptor(self, interceptor) -> None:
        self.interceptors = [i for i in self.interceptors if i is not interceptor]
