"""Log records and the light-weight log-call notification.

Two shapes on purpose:

* :class:`LogRecord` is the *full* record an appender renders — it exists
  only when a message is actually emitted at the configured verbosity.
* :class:`LogCall` is the tiny notification handed to interceptors (the
  SAAD task execution tracker) on **every** call, including suppressed
  DEBUG calls.  It carries no message text — SAAD ignores content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple


class LogCall(NamedTuple):
    """What the interception layer sees for every logging call.

    An immutable named tuple: one is built on every logging call, so its
    construction cost sits on the tracker's hot path.
    """

    lpid: Optional[int]
    level: int
    logger_name: str
    time: float


@dataclass
class LogRecord:
    """A fully materialized log record, ready for layout/append."""

    time: float
    level: int
    logger_name: str
    thread_name: str
    template: str
    args: Tuple = ()
    lpid: Optional[int] = None

    def message(self) -> str:
        """Render the message by interpolating args into the template."""
        if not self.args:
            return self.template
        try:
            return self.template % self.args
        except (TypeError, ValueError):
            # Mismatched template/args must not break logging; mimic
            # log4j's tolerance by appending the args verbatim.
            return f"{self.template} {self.args!r}"
