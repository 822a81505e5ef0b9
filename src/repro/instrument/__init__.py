"""Static instrumentation tooling (the paper's Ruby scripts, Sec. 4.1.1).

Two layers:

* **Instrumentation** — an AST pass over Python source that discovers log
  statements, assigns dense log point ids, builds the log template
  dictionary, locates stage beginnings (``run()`` methods, queue-dequeue
  sites), and rewrites log calls to pass their ids at runtime
  (:mod:`.scanner`, :mod:`.rewriter`).
* **Verification (saadlint)** — a multi-pass static analyzer that checks
  an entire source tree for instrumentation and staging defects: log
  points the tracker can't follow (LP001–LP004), stage-context holes
  (ST001–ST003), and sim-clock violations (CC001).  See :mod:`.facts`,
  :mod:`.lint`, :mod:`.cfg`, :mod:`.diagnostics`, :mod:`.baseline`,
  :mod:`.reporters`, and the ``python -m repro lint`` CLI (:mod:`.cli`).
"""

from .baseline import Baseline, find_default_baseline
from .cfg import CFG, build_cfg
from .diagnostics import Diagnostic, LintResult, RULES
from .facts import FileFacts, collect_file
from .lint import ALL_RULES, LintEngine, lint_source, load_files, run_lint
from .reporters import render_json, render_rule_table, render_text
from .rewriter import RewriteWarning, instrument_source, verify_instrumentation
from .scanner import (
    DEQUEUE_METHODS,
    FoundLogCall,
    LOG_METHODS,
    ScanResult,
    StageCandidate,
    build_registry,
    scan_source,
)

__all__ = [
    "ALL_RULES",
    "Baseline",
    "CFG",
    "DEQUEUE_METHODS",
    "Diagnostic",
    "FileFacts",
    "FoundLogCall",
    "LOG_METHODS",
    "LintEngine",
    "LintResult",
    "RULES",
    "RewriteWarning",
    "ScanResult",
    "StageCandidate",
    "build_cfg",
    "build_registry",
    "collect_file",
    "find_default_baseline",
    "instrument_source",
    "lint_source",
    "load_files",
    "render_json",
    "render_rule_table",
    "render_text",
    "run_lint",
    "scan_source",
    "verify_instrumentation",
]
