"""Diagnostic model for saadlint.

Every rule violation the static analyzer finds becomes one
:class:`Diagnostic`: rule id, severity, location, message, and a fix
hint.  Diagnostics are value objects — reporters render them, the
baseline mechanism fingerprints them, and tests assert on them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Severity levels, ordered.
INFO = 10
WARNING = 20
ERROR = 30

_SEVERITY_NAMES = {INFO: "info", WARNING: "warning", ERROR: "error"}


def severity_name(severity: int) -> str:
    return _SEVERITY_NAMES.get(severity, str(severity))


@dataclass(frozen=True)
class Rule:
    """One saadlint rule: id, default severity, and documentation."""

    rule_id: str
    severity: int
    title: str
    rationale: str


#: The rule table (DESIGN.md §9 mirrors this).
RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "LP001",
            ERROR,
            "log template not statically resolvable",
            "A log call whose first argument cannot be resolved to a static "
            "template is an untrackable log point: the instrumentation pass "
            "cannot assign it an id, so the analyzer never sees it.",
        ),
        Rule(
            "LP002",
            WARNING,
            "duplicate log template",
            "Two distinct log-point definitions with the same template make "
            "reverse-mapping from an anomaly report back to source ambiguous.",
        ),
        Rule(
            "LP003",
            ERROR,
            "inconsistent lpid assignment",
            "An explicit lpid that collides with another, breaks source-order "
            "assignment, or names a different inventory entry than its "
            "template corrupts the synopsis stream silently.",
        ),
        Rule(
            "LP004",
            ERROR,
            "registry drift",
            "The source scan disagrees with the persisted log template "
            "dictionary; the analyzer would resolve ids against stale text.",
        ),
        Rule(
            "ST001",
            WARNING,
            "stage without set_context",
            "A stage body (run() method or dequeue-loop site) that logs but "
            "never calls set_context attributes its log points to whatever "
            "task happens to be open on the thread.",
        ),
        Rule(
            "ST002",
            WARNING,
            "log call reachable outside stage context",
            "A log call reachable before any set_context on the same thread "
            "is attributed to no task (or the previous task).",
        ),
        Rule(
            "ST003",
            WARNING,
            "stage can exit exceptionally without end_task",
            "A stage that manages explicit task boundaries can leak an open "
            "task when an exception path bypasses end_task.",
        ),
        Rule(
            "CC001",
            ERROR,
            "blocking call in simulated event-handler code",
            "Real blocking primitives (time.sleep, stdlib queues, real I/O) "
            "inside discrete-event handler code stall the entire simulation "
            "instead of the simulated thread.",
        ),
        Rule(
            "TR001",
            INFO,
            "manual span management in simulated server code",
            "Sim/server event handlers should get their traces from the "
            "task execution tracker (set_context/end_task emit spans when "
            "the deployment enables tracing); opening spans by hand on a "
            "tracer double-counts tasks and bypasses sampling and "
            "retention policy.",
        ),
        Rule(
            "SH001",
            INFO,
            "direct detector construction in sharded code",
            "Code under a shard/ package must build per-shard detectors "
            "through repro.shard.factory.shard_detector: the factory wires "
            "the process-local registry, the key-echo tracer stand-in, and "
            "the shard_id tag the coordinator protocol relies on.  A bare "
            "AnomalyDetector skips all three — telemetry silently vanishes "
            "and exemplar keys never route back to the parent.",
        ),
        Rule(
            "CP001",
            INFO,
            "per-task detect loop on a batch-capable path",
            "Shard workers and benchmark legs that loop observe()/classify() "
            "over individual synopses pay Python dispatch per task on paths "
            "where the detector accepts whole wire frames: observe_batch() "
            "ingests the columnar way and a CompiledModel classifies from "
            "flat tables.  Deliberate scalar baselines should disable the "
            "rule inline.",
        ),
        Rule(
            "TM001",
            INFO,
            "direct mutation of a telemetry-backed counter",
            "Accounting fields such as tasks_seen or windows_closed are "
            "read-only properties backed by telemetry; assigning to the "
            "public name bypasses (or breaks) the exported metric.  Mutate "
            "the private attribute or go through the registry instead.",
        ),
        Rule(
            "AS001",
            ERROR,
            "blocking call reachable from an async handler",
            "A real blocking primitive (time.sleep, blocking socket/file/"
            "queue ops, subprocess) transitively reachable from an async "
            "def without crossing a spawn boundary stalls the event loop "
            "and starves every other coroutine — the interprocedural "
            "generalization of CC001, resolved over the project call "
            "graph.",
        ),
        Rule(
            "RC001",
            WARNING,
            "guarded attribute written without its lock",
            "Lockset-lite race detection: when a class guards state with "
            "`with self._lock:` somewhere, any write to that attribute on "
            "a path that does not hold the lock (construction excluded) "
            "can tear or lose updates once the object is shared across "
            "thread, coroutine, or worker entry points.",
        ),
        Rule(
            "DL001",
            ERROR,
            "inconsistent lock acquisition order (deadlock cycle)",
            "The global lock-acquisition-order graph (nested with-blocks "
            "plus acquisitions reached through calls made while holding a "
            "lock) contains a cycle; two threads taking the locks in "
            "opposite orders deadlock permanently.",
        ),
        Rule(
            "SP001",
            WARNING,
            "process-local state captured in a spawn payload",
            "Values passed to mp.Process args or sent over an mp.Pipe that "
            "reference unpicklable or process-local state (sync "
            "primitives, open sockets/files, module-level interning "
            "tables mutated after import) either fail to pickle or "
            "silently hand the child a frozen copy that diverges from "
            "the parent.",
        ),
        Rule(
            "WP001",
            ERROR,
            "struct pack format without a matching unpack site",
            "Wire-protocol symmetry: every struct pack format/field order "
            "in the codec and shard framing must have a matching unpack "
            "site somewhere in the tree, or the producer writes bytes no "
            "reader in this codebase can decode — asymmetric codecs "
            "drift silently until the wire breaks.",
        ),
        Rule(
            "SL001",
            WARNING,
            "suppression comment names an unknown rule",
            "A `# saadlint: disable=` directive whose rule id is not in "
            "the registry suppresses nothing; the typo hides the intent "
            "and leaves the author believing a finding is waived.",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, what, and how to fix it."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.severity is None:
            rule = RULES.get(self.rule_id)
            object.__setattr__(
                self, "severity", rule.severity if rule else WARNING
            )

    @property
    def severity_name(self) -> str:
        return severity_name(self.severity)

    def fingerprint(self) -> str:
        """Stable identity for baselining: rule + file + message.

        Deliberately excludes line/col so reformatting or unrelated edits
        above a finding do not invalidate its baseline entry.
        """
        payload = f"{self.rule_id}|{self.path}|{self.message}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint(),
        }

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class LintResult:
    """Outcome of one analyzer run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.diagnostics and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
        return counts
