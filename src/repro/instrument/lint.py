"""saadlint: multi-pass static verification of SAAD instrumentation.

The analyzer walks a source tree in three passes:

1. **Collect** — per file, gather log-call sites (with their raw template
   expression), log-point *inventory definitions* (``self.x = lp("...")``
   in the per-system ``logpoints.py`` classes), ``set_context`` /
   ``end_task`` sites, stage candidates, import aliases, and inline
   suppression comments (:mod:`repro.instrument.facts`).
2. **Resolve** — build the global inventory (attribute name → template)
   and resolve every call site's template against it; attribute chains
   ending in ``.template`` resolve through the inventory, literals and
   f-strings resolve directly.
3. **Check** — run the rules: the LP family over resolved sites and
   (optionally) a persisted registry, the ST family over per-function
   CFGs (see :mod:`repro.instrument.cfg`), CC001 over simulated
   event-handler code, TM001 over writes to telemetry-backed
   accounting properties, TR001 over manual tracer span calls in
   sim/server code, and the whole-program concurrency families
   (AS001/RC001/DL001/SP001/WP001) over the project call graph
   (:mod:`repro.instrument.callgraph` +
   :mod:`repro.instrument.concurrency`).

Findings come back as :class:`~repro.instrument.diagnostics.Diagnostic`
objects; the baseline layer (:mod:`repro.instrument.baseline`) filters
known, explicitly-accepted findings.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import LogPointRegistry

from .cfg import CFG, build_cfg
from .concurrency import CONCURRENCY_RULES, check_concurrency
from .diagnostics import Diagnostic, LintResult, RULES
from .facts import (  # noqa: F401  (re-exported for backward compatibility)
    BLOCKING_BUILTINS as _BLOCKING_BUILTINS,
    END_TASK as _END_TASK,
    SET_CONTEXT as _SET_CONTEXT,
    SUBPROCESS_BLOCKING as _SUBPROCESS_BLOCKING,
    FileFacts,
    FunctionFacts,
    InventoryDef,
    LogSite,
    blocking_call_description,
    collect_file,
    real_queue_names,
    suppressed_rules as _suppressed_rules,
)
from .scanner import LOG_METHODS

#: Rules applied per call site / definition (the LP family + ST + CC).
ALL_RULES = tuple(sorted(RULES))


# ---------------------------------------------------------------------------
# Pass 2: template resolution
# ---------------------------------------------------------------------------


def _template_attr_chain(expr: ast.expr) -> Optional[str]:
    """For ``<base>.<name>.template`` chains, the inventory attr ``name``."""
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr == "template"
        and isinstance(expr.value, ast.Attribute)
    ):
        return expr.value.attr
    return None


def _lpid_attr_chain(expr: Optional[ast.expr]) -> Optional[str]:
    """For ``<base>.<name>.lpid`` chains, the inventory attr ``name``."""
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr == "lpid"
        and isinstance(expr.value, ast.Attribute)
    ):
        return expr.value.attr
    return None


def _static_template(expr: ast.expr) -> Optional[str]:
    """Resolve literal / f-string / ``literal % args`` templates."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts: List[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("%s")
        return "".join(parts)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mod):
        return _static_template(expr.left)
    return None


def resolve_templates(
    files: List[FileFacts], inventory_by_attr: Dict[str, InventoryDef]
) -> None:
    for facts in files:
        for site in facts.log_sites:
            literal = _static_template(site.template_expr)
            if literal is not None:
                site.resolved_template = literal
                continue
            attr = _template_attr_chain(site.template_expr)
            if attr is not None:
                site.template_attr = attr
                definition = inventory_by_attr.get(attr)
                if definition is not None:
                    site.resolved_template = definition.template


# ---------------------------------------------------------------------------
# Pass 3: rules
# ---------------------------------------------------------------------------


class LintEngine:
    """Runs the full multi-pass analysis over a set of files."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Iterable[str] = (),
        registry: Optional[LogPointRegistry] = None,
        registry_label: str = "<registry>",
    ):
        selected = set(select) if select is not None else set(ALL_RULES)
        self.rules = selected - set(ignore)
        unknown = self.rules - set(ALL_RULES)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        self.registry = registry
        self.registry_label = registry_label

    # -- entry points ---------------------------------------------------------
    def run(self, paths: Iterable[str]) -> LintResult:
        files, parse_errors = load_files(paths)
        return self.run_collected(files, parse_errors)

    def run_collected(
        self, files: List[FileFacts], parse_errors: Optional[List[str]] = None
    ) -> LintResult:
        """Pass 2+3 over already-collected facts (the ``--jobs`` path)."""
        result = LintResult()
        result.parse_errors = list(parse_errors or [])
        result.files_scanned = len(files)
        diagnostics = self.check_files(files)
        by_path = {facts.path: facts for facts in files}
        for diag in diagnostics:
            facts = by_path.get(diag.path)
            if facts is not None and diag.rule_id in facts.suppressions.get(
                diag.line, set()
            ):
                result.suppressed.append(diag)
            else:
                result.diagnostics.append(diag)
        result.diagnostics.sort(key=Diagnostic.sort_key)
        return result

    def check_files(self, files: List[FileFacts]) -> List[Diagnostic]:
        inventory_by_attr: Dict[str, InventoryDef] = {}
        for facts in files:
            for definition in facts.inventory:
                inventory_by_attr.setdefault(definition.attr, definition)
        resolve_templates(files, inventory_by_attr)

        diagnostics: List[Diagnostic] = []
        for facts in files:
            diagnostics.extend(self._check_file(facts, inventory_by_attr))
        if "LP004" in self.rules and self.registry is not None:
            diagnostics.extend(self._check_registry_drift(files))
        if self.rules & CONCURRENCY_RULES:
            diagnostics.extend(check_concurrency(files, self.rules))
        return diagnostics

    # -- LP family ------------------------------------------------------------
    def _check_file(
        self, facts: FileFacts, inventory_by_attr: Dict[str, InventoryDef]
    ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        if "LP001" in self.rules:
            out.extend(self._lp001(facts, inventory_by_attr))
        if "LP002" in self.rules:
            out.extend(self._lp002(facts))
        if "LP003" in self.rules:
            out.extend(self._lp003(facts))
        if "ST001" in self.rules:
            out.extend(self._st001(facts))
        if "ST002" in self.rules or "ST003" in self.rules:
            out.extend(self._stage_cfg_rules(facts))
        if "CC001" in self.rules:
            out.extend(self._cc001(facts))
        if "TM001" in self.rules:
            out.extend(self._tm001(facts))
        if "TR001" in self.rules:
            out.extend(self._tr001(facts))
        if "SH001" in self.rules:
            out.extend(self._sh001(facts))
        if "CP001" in self.rules:
            out.extend(self._cp001(facts))
        if "SL001" in self.rules:
            out.extend(self._sl001(facts))
        return out

    def _sl001(self, facts) -> List[Diagnostic]:
        out = []
        for line in sorted(facts.suppressions):
            for token in sorted(facts.suppressions[line]):
                if token in RULES:
                    continue
                out.append(
                    Diagnostic(
                        "SL001",
                        facts.path,
                        line,
                        0,
                        f"suppression names unknown rule {token!r}",
                        "fix the rule id (python -m repro lint --list-rules "
                        "prints the registry); an unknown id silently "
                        "suppresses nothing",
                    )
                )
        return out

    def _cp001(self, facts) -> List[Diagnostic]:
        out = []
        # Advisory, and scoped to the code that actually sits on the hot
        # ingest path: shard packages and benchmark files.  Application
        # code feeding a detector object-by-object is out of scope.
        in_shard = f"{os.sep}shard{os.sep}" in facts.path or facts.path.startswith(
            f"shard{os.sep}"
        )
        in_bench = "bench" in os.path.basename(facts.path).lower() or (
            f"{os.sep}benchmarks{os.sep}" in facts.path
            or facts.path.startswith(f"benchmarks{os.sep}")
        )
        if not (in_shard or in_bench):
            return out
        for line, col, receiver, method in facts.detect_loop_calls:
            site = f"{receiver}.{method}()" if receiver else f"{method}()"
            out.append(
                Diagnostic(
                    "CP001",
                    facts.path,
                    line,
                    col,
                    f"per-task {site} loop on a batch-capable path",
                    "feed whole wire frames through AnomalyDetector."
                    "observe_batch (or classify through compile_model's "
                    "rule tables) instead of looping per synopsis; a "
                    "deliberate scalar baseline can disable CP001 inline",
                )
            )
        return out

    def _sh001(self, facts) -> List[Diagnostic]:
        out = []
        # Scoped like CC001, but to shard packages: only code that runs
        # inside (or builds) shard workers is held to the factory rule.
        in_shard = f"{os.sep}shard{os.sep}" in facts.path or facts.path.startswith(
            f"shard{os.sep}"
        )
        if not in_shard:
            return out
        for line, col in facts.detector_ctors:
            out.append(
                Diagnostic(
                    "SH001",
                    facts.path,
                    line,
                    col,
                    "direct AnomalyDetector construction in sharded code",
                    "build per-shard detectors through repro.shard.factory."
                    "shard_detector so the worker gets its process-local "
                    "registry, the key-echo tracer, and a shard_id tag",
                )
            )
        return out

    def _tr001(self, facts) -> List[Diagnostic]:
        out = []
        in_simsys = f"{os.sep}simsys{os.sep}" in facts.path or facts.path.startswith(
            f"simsys{os.sep}"
        )
        for line, col, receiver, attr, in_generator in facts.tracer_calls:
            # Same scope as CC001: simulated event-handler code only —
            # generator handlers anywhere, or anything under simsys.
            # Core pipeline code (the tracker itself) legitimately calls
            # the tracer and stays out of scope.
            if not (in_generator or in_simsys):
                continue
            out.append(
                Diagnostic(
                    "TR001",
                    facts.path,
                    line,
                    col,
                    f"manual span call {receiver}.{attr}() in simulated "
                    "event-handler code",
                    "rely on tracker instrumentation instead: set_context()/"
                    "end_task() emit spans automatically when the deployment "
                    "enables tracing, with sampling and retention applied; "
                    "hand-opened spans double-count the task",
                )
            )
        return out

    def _tm001(self, facts) -> List[Diagnostic]:
        out = []
        for line, col, attr, receiver in facts.telemetry_mutations:
            where = f"{receiver}.{attr}" if receiver else attr
            out.append(
                Diagnostic(
                    "TM001",
                    facts.path,
                    line,
                    col,
                    f"direct write to telemetry-backed counter {where!r}",
                    f"{attr} is a read-only property whose value feeds an "
                    f"exported metric; mutate the private _{attr} field "
                    "inside the owning class, or record the event through "
                    "the component's MetricsRegistry",
                )
            )
        return out

    def _lp001(self, facts, inventory_by_attr) -> List[Diagnostic]:
        out = []
        for site in facts.log_sites:
            if site.resolved_template is not None:
                continue
            if site.template_attr is not None:
                message = (
                    f"log template references unknown inventory attribute "
                    f"{site.template_attr!r}"
                )
                hint = (
                    "define the log point in the system's logpoints inventory "
                    "class, or fix the attribute name"
                )
            else:
                message = (
                    f"{site.method}() first argument is not statically "
                    f"resolvable ({type(site.template_expr).__name__})"
                )
                hint = (
                    "pass a literal template (or an inventory "
                    "<lps>.<name>.template) so the instrumentation pass can "
                    "assign this log point an id"
                )
            out.append(
                Diagnostic("LP001", facts.path, site.line, site.col, message, hint)
            )
        return out

    def _lp002(self, facts) -> List[Diagnostic]:
        out = []
        # Duplicate templates among inventory definitions in one file.
        seen: Dict[str, InventoryDef] = {}
        for definition in facts.inventory:
            prior = seen.get(definition.template)
            if prior is not None:
                out.append(
                    Diagnostic(
                        "LP002",
                        facts.path,
                        definition.line,
                        0,
                        f"template {definition.template!r} duplicates "
                        f"{prior.owner}.{prior.attr} (line {prior.line})",
                        "make the template text unique so anomaly reports "
                        "map back to a single source location",
                    )
                )
            else:
                seen[definition.template] = definition
        # Duplicate literal templates among direct log calls in one file
        # (each would register as a distinct log point with identical text).
        literal_seen: Dict[str, LogSite] = {}
        for site in facts.log_sites:
            if site.template_attr is not None or site.resolved_template is None:
                continue
            prior_site = literal_seen.get(site.resolved_template)
            if prior_site is not None:
                out.append(
                    Diagnostic(
                        "LP002",
                        facts.path,
                        site.line,
                        site.col,
                        f"literal template {site.resolved_template!r} repeats "
                        f"line {prior_site.line}'s",
                        "reuse one registered log point (or make the text "
                        "unique)",
                    )
                )
            else:
                literal_seen[site.resolved_template] = site
        return out

    def _lp003(self, facts) -> List[Diagnostic]:
        out = []
        int_sites: List[Tuple[LogSite, int]] = []
        for site in facts.log_sites:
            if site.lpid_expr is None:
                continue
            # Inventory idiom: template and lpid must name the same entry.
            lpid_attr = _lpid_attr_chain(site.lpid_expr)
            if site.template_attr is not None or lpid_attr is not None:
                if site.template_attr != lpid_attr:
                    out.append(
                        Diagnostic(
                            "LP003",
                            facts.path,
                            site.line,
                            site.col,
                            f"template references "
                            f"{site.template_attr or '<literal>'} but lpid "
                            f"references {lpid_attr or '<non-inventory>'}",
                            "make the template and lpid name the same "
                            "inventory entry",
                        )
                    )
                continue
            if isinstance(site.lpid_expr, ast.Constant) and isinstance(
                site.lpid_expr.value, int
            ):
                int_sites.append((site, site.lpid_expr.value))
        # Rewriter contract: integer lpids are dense source-order ids.
        seen_ids: Dict[int, LogSite] = {}
        previous = None
        for site, lpid in sorted(int_sites, key=lambda p: (p[0].line, p[0].col)):
            if lpid in seen_ids:
                out.append(
                    Diagnostic(
                        "LP003",
                        facts.path,
                        site.line,
                        site.col,
                        f"lpid={lpid} collides with line {seen_ids[lpid].line}",
                        "re-run the instrumentation rewriter to reassign ids",
                    )
                )
            else:
                seen_ids[lpid] = site
                if previous is not None and lpid < previous:
                    out.append(
                        Diagnostic(
                            "LP003",
                            facts.path,
                            site.line,
                            site.col,
                            f"lpid={lpid} breaks source-order assignment "
                            f"(follows lpid={previous})",
                            "re-run the instrumentation rewriter to reassign "
                            "ids",
                        )
                    )
                previous = lpid
        return out

    def _check_registry_drift(self, files: List[FileFacts]) -> List[Diagnostic]:
        scanned: Set[str] = set()
        location: Dict[str, Tuple[str, int]] = {}
        for facts in files:
            for definition in facts.inventory:
                scanned.add(definition.template)
                location.setdefault(definition.template, (facts.path, definition.line))
            for site in facts.log_sites:
                if site.resolved_template is not None and site.template_attr is None:
                    scanned.add(site.resolved_template)
                    location.setdefault(site.resolved_template, (facts.path, site.line))
        drift = self.registry.drift(scanned)
        out = []
        for template in drift.missing:
            path, line = location.get(template, (self.registry_label, 0))
            out.append(
                Diagnostic(
                    "LP004",
                    path,
                    line,
                    0,
                    f"template {template!r} found in source but absent from "
                    f"the persisted registry {self.registry_label}",
                    "regenerate the registry from the current source scan",
                )
            )
        for template in drift.stale:
            out.append(
                Diagnostic(
                    "LP004",
                    self.registry_label,
                    0,
                    0,
                    f"registry template {template!r} no longer exists in the "
                    f"scanned source",
                    "regenerate the registry from the current source scan",
                )
            )
        return out

    # -- ST family ------------------------------------------------------------
    def _st001(self, facts) -> List[Diagnostic]:
        out = []
        for name, (has_run, logs, ctx, line) in sorted(facts.classes.items()):
            if has_run and logs and not ctx:
                out.append(
                    Diagnostic(
                        "ST001",
                        facts.path,
                        line,
                        0,
                        f"stage class {name!r} (run() body) logs but never "
                        f"calls set_context",
                        "call runtime.set_context(<stage>) at the beginning "
                        "of the stage body",
                    )
                )
        for func in facts.functions:
            if func.has_dequeue and func.has_log_calls and not func.has_set_context:
                out.append(
                    Diagnostic(
                        "ST001",
                        facts.path,
                        func.node.lineno,
                        func.node.col_offset,
                        f"dequeue-loop {func.qualname}() logs but never calls "
                        f"set_context",
                        "call set_context(<stage>) right after each dequeue "
                        "(the consumer-stage beginning point)",
                    )
                )
        return out

    def _stage_cfg_rules(self, facts) -> List[Diagnostic]:
        out = []
        for func in facts.functions:
            if not func.has_set_context:
                continue
            cfg = build_cfg(func.node)
            context_nodes = cfg.nodes_matching(_stmt_calls(_SET_CONTEXT))
            if not context_nodes:
                continue  # set_context only in nested defs/lambdas
            if "ST002" in self.rules and func.has_log_calls:
                out.extend(self._st002(facts, func, cfg, context_nodes))
            if "ST003" in self.rules and func.has_end_task:
                out.extend(self._st003(facts, func, cfg, context_nodes))
        return out

    def _st002(self, facts, func, cfg: CFG, context_nodes) -> List[Diagnostic]:
        out = []
        bare = facts.bare_log_names
        log_nodes = cfg.nodes_matching(lambda s: _stmt_has_log_call(s, bare))
        reachable = cfg.reachable_avoiding(cfg.entry, context_nodes)
        for index in sorted(log_nodes & reachable):
            node = cfg.nodes[index]
            out.append(
                Diagnostic(
                    "ST002",
                    facts.path,
                    node.line,
                    node.stmt.col_offset,
                    f"log call in {func.qualname}() is reachable before any "
                    f"set_context",
                    "move the log call after set_context, or set the stage "
                    "context on every path that reaches it",
                )
            )
        return out

    def _st003(self, facts, func, cfg: CFG, context_nodes) -> List[Diagnostic]:
        out = []
        end_nodes = cfg.nodes_matching(_stmt_calls(_END_TASK))
        blocked = end_nodes | context_nodes
        for index in sorted(context_nodes):
            node = cfg.nodes[index]
            # The set_context call's own exception edges don't count — if
            # opening the stage fails there is no stage to leave dangling.
            escapes = cfg.reachable_via_exception_avoiding(
                index, cfg.raise_exit, blocked, ignore_start_exceptions=True
            ) or cfg.reachable_via_exception_avoiding(
                index, cfg.exit, blocked, ignore_start_exceptions=True
            )
            if escapes:
                out.append(
                    Diagnostic(
                        "ST003",
                        facts.path,
                        node.line,
                        node.stmt.col_offset,
                        f"stage opened in {func.qualname}() can terminate on "
                        f"an exception path without end_task",
                        "move end_task() into a finally block covering the "
                        "stage body",
                    )
                )
        return out

    # -- CC001 ----------------------------------------------------------------
    def _cc001(self, facts) -> List[Diagnostic]:
        out = []
        in_simsys = f"{os.sep}simsys{os.sep}" in facts.path or facts.path.startswith(
            f"simsys{os.sep}"
        )
        for func in facts.functions:
            if not (func.is_generator or in_simsys):
                continue
            out.extend(self._cc001_function(facts, func))
        return out

    def _cc001_function(self, facts, func) -> List[Diagnostic]:
        out = []
        real_queues = real_queue_names(facts, func.node)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            blocking = self._blocking_call_description(facts, node, real_queues)
            if blocking is not None:
                out.append(
                    Diagnostic(
                        "CC001",
                        facts.path,
                        node.lineno,
                        node.col_offset,
                        f"blocking call {blocking} inside simulated "
                        f"event-handler code ({func.qualname})",
                        "yield a sim-clock primitive (env.timeout, SimQueue) "
                        "instead of blocking the real thread",
                    )
                )
        return out

    def _blocking_call_description(
        self, facts, node: ast.Call, real_queues: Set[str]
    ) -> Optional[str]:
        return blocking_call_description(facts, node, real_queues)


def _stmt_calls(method: str):
    def predicate(stmt: ast.stmt) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == method:
                    return True
                if isinstance(func, ast.Name) and func.id == method:
                    return True
        return False

    return predicate


def _stmt_has_log_call(stmt: ast.stmt, bare_names: Set[str]) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in LOG_METHODS:
                return True
            if isinstance(func, ast.Name) and func.id in bare_names:
                return True
    return False


# ---------------------------------------------------------------------------
# Helpers / module API
# ---------------------------------------------------------------------------


def _python_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith(("__pycache__", ".")))
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def load_files(
    paths: Iterable[str], jobs: int = 1
) -> Tuple[List[FileFacts], List[str]]:
    """Collect facts for every python file under ``paths`` (pass 1).

    With ``jobs > 1`` the per-file collection fans out over a process
    pool — pass 1 dominates a cold full-tree run, and each file is
    independent.  Results come back in deterministic path order either
    way.  Any pool failure (e.g. a restricted environment that cannot
    spawn) falls back to in-process collection.
    """
    names = _python_files(paths)
    files: List[FileFacts] = []
    parse_errors: List[str] = []
    if jobs > 1 and len(names) > 1:
        try:
            return _load_files_parallel(names, jobs)
        except (ImportError, OSError, PermissionError):
            pass
    for path in names:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            files.append(collect_file(path, source))
        except SyntaxError as exc:
            parse_errors.append(f"{path}: {exc}")
    return files, parse_errors


def _load_files_parallel(
    names: Sequence[str], jobs: int
) -> Tuple[List[FileFacts], List[str]]:
    from concurrent.futures import ProcessPoolExecutor

    from .facts import read_and_collect

    files: List[FileFacts] = []
    parse_errors: List[str] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [(path, pool.submit(read_and_collect, path)) for path in names]
        for path, future in futures:
            try:
                files.append(future.result())
            except SyntaxError as exc:
                parse_errors.append(f"{path}: {exc}")
    return files, parse_errors


def run_lint(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
    registry: Optional[LogPointRegistry] = None,
    registry_label: str = "<registry>",
    jobs: int = 1,
) -> LintResult:
    """Run saadlint over ``paths`` and return the raw (unbaselined) result."""
    engine = LintEngine(
        select=select, ignore=ignore, registry=registry,
        registry_label=registry_label,
    )
    files, parse_errors = load_files(paths, jobs=jobs)
    return engine.run_collected(files, parse_errors)


def lint_source(
    source: str, path: str = "<source>", **kwargs
) -> List[Diagnostic]:
    """Lint one in-memory source text (unit-test convenience)."""
    engine = LintEngine(**kwargs)
    facts = collect_file(path, source)
    diagnostics = [
        d
        for d in engine.check_files([facts])
        if d.rule_id not in facts.suppressions.get(d.line, set())
    ]
    return sorted(diagnostics, key=Diagnostic.sort_key)
