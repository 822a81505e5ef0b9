"""Fault injection for simulated I/O paths.

Reproduces the paper's SystemTap-based failure model (Sec. 5.4, Table 3):
*error* faults fail a fraction of I/O requests on a given path, *delay*
faults pause them (100 ms in the paper); intensity is the affected fraction
(low = 1 %, high = 100 %).  Faults can be armed/disarmed manually or run on
a :class:`FaultSchedule` timeline, as in the paper's timed experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .engine import Environment
from .rng import SimRandom

#: Paper constants (Sec. 5.4): affected I/O fraction per intensity.
LOW_INTENSITY = 0.01
HIGH_INTENSITY = 1.0
#: Paper constant: delay faults pause I/O requests for 100 ms.
DELAY_FAULT_SECONDS = 0.100


@dataclass
class IODecision:
    """Outcome of consulting the injector for one I/O request."""

    fail: bool = False
    delay_s: float = 0.0


@dataclass
class FaultSpec:
    """One injectable fault.

    Parameters
    ----------
    path:
        I/O path tag the fault applies to (e.g. ``"wal"``, ``"flush"``).
    mode:
        ``"error"`` or ``"delay"``.
    intensity:
        Fraction of requests on the path that are affected.
    delay_s:
        Pause applied by delay faults.
    host:
        Restrict to a host name, or ``None`` for all hosts.
    """

    path: str
    mode: str
    intensity: float
    delay_s: float = DELAY_FAULT_SECONDS
    host: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("error", "delay"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0,1], got {self.intensity}")
        if not self.name:
            level = "high" if self.intensity >= HIGH_INTENSITY else "low"
            self.name = f"{self.mode}-{self.path}-{level}"


class FaultInjector:
    """Per-host injector consulted by :class:`~repro.simsys.disk.SimDisk`.

    Holds a set of *armed* faults; :meth:`on_io` rolls the dice for each
    matching fault and combines the outcomes.
    """

    def __init__(self, host: str, seed: int = 7):
        self.host = host
        self._rng = SimRandom(seed)
        self._armed: List[FaultSpec] = []
        #: Count of requests actually affected, per fault name.
        self.hits: dict = {}

    @property
    def armed_faults(self) -> Tuple[FaultSpec, ...]:
        return tuple(self._armed)

    def arm(self, fault: FaultSpec) -> None:
        if fault.host is not None and fault.host != self.host:
            return
        self._armed.append(fault)

    def disarm(self, fault: FaultSpec) -> None:
        self._armed = [f for f in self._armed if f is not fault]

    def on_io(self, disk_name: str, path: str, write: bool) -> IODecision:
        """Decide the fate of one I/O request on ``path``."""
        decision = IODecision()
        for fault in self._armed:
            if fault.path != path:
                continue
            if not self._rng.bernoulli(fault.intensity):
                continue
            self.hits[fault.name] = self.hits.get(fault.name, 0) + 1
            if fault.mode == "error":
                decision.fail = True
            else:
                decision.delay_s += fault.delay_s
        return decision


@dataclass
class ScheduleEntry:
    start_s: float
    end_s: float
    fault: FaultSpec

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"fault window must have end > start, got [{self.start_s}, {self.end_s}]"
            )


class FaultSchedule:
    """Arms and disarms faults on a timeline, as in the paper's experiments.

    Example (Sec. 5.4): low-intensity fault at minute 10 for 10 minutes,
    high-intensity at minute 30 for 10 minutes::

        schedule = FaultSchedule(env, injector)
        schedule.add(600, 1200, FaultSpec("wal", "error", LOW_INTENSITY))
        schedule.add(1800, 2400, FaultSpec("wal", "error", HIGH_INTENSITY))
        schedule.start()
    """

    def __init__(self, env: Environment, injector: FaultInjector):
        self.env = env
        self.injector = injector
        self.entries: List[ScheduleEntry] = []
        self._started = False

    def add(self, start_s: float, end_s: float, fault: FaultSpec) -> "FaultSchedule":
        self.entries.append(ScheduleEntry(start_s, end_s, fault))
        return self

    def start(self) -> None:
        """Launch the driver processes (idempotent)."""
        if self._started:
            raise RuntimeError("schedule already started")
        self._started = True
        for entry in self.entries:
            self.env.process(self._drive(entry), name=f"fault-{entry.fault.name}")

    def active_at(self, t: float) -> List[FaultSpec]:
        """Faults whose window covers time ``t`` (for plotting overlays)."""
        return [e.fault for e in self.entries if e.start_s <= t < e.end_s]

    def _drive(self, entry: ScheduleEntry):
        if entry.start_s > self.env.now:
            yield self.env.timeout(entry.start_s - self.env.now)
        self.injector.arm(entry.fault)
        yield self.env.timeout(entry.end_s - entry.start_s)
        self.injector.disarm(entry.fault)


@dataclass
class HogScheduleEntry:
    start_s: float
    end_s: float
    processes: int


class HogSchedule:
    """Timeline of disk-hog faults (paper Table 2)."""

    def __init__(self, env: Environment, hogs: List):
        self.env = env
        self.hogs = list(hogs)
        self.entries: List[HogScheduleEntry] = []
        self._started = False

    def add(self, start_s: float, end_s: float, processes: int) -> "HogSchedule":
        if processes <= 0:
            raise ValueError(f"processes must be positive, got {processes}")
        if end_s <= start_s:
            raise ValueError("hog window must have end > start")
        self.entries.append(HogScheduleEntry(start_s, end_s, processes))
        return self

    def start(self) -> None:
        if self._started:
            raise RuntimeError("schedule already started")
        self._started = True
        for entry in self.entries:
            self.env.process(self._drive(entry), name="hog-schedule")

    def active_at(self, t: float) -> int:
        """Number of hog processes active at time ``t``."""
        return sum(e.processes for e in self.entries if e.start_s <= t < e.end_s)

    def _drive(self, entry: HogScheduleEntry):
        if entry.start_s > self.env.now:
            yield self.env.timeout(entry.start_s - self.env.now)
        for hog in self.hogs:
            hog.start(entry.processes)
        yield self.env.timeout(entry.end_s - entry.start_s)
        for hog in self.hogs:
            hog.active_processes = max(0, hog.active_processes - entry.processes)
            hog._apply()
