"""Pass 1 of saadlint: per-file fact collection.

One :class:`FileFacts` per source file holds everything later passes
need — log call sites, log-point inventory definitions, per-function
facts, import alias maps, and the raw AST — collected in a single
visitor walk so the file is parsed exactly once.  The facts layer has
no rule logic: :mod:`repro.instrument.lint` (per-file and
template-resolution rules), :mod:`repro.instrument.callgraph`
(whole-program call graph), and :mod:`repro.instrument.concurrency`
(the concurrency rule families) all consume it.

This module is also the unit of parallelism for ``lint --jobs N``:
:func:`collect_file` is a module-level function over picklable inputs
and outputs, so a process pool can fan file collection out and ship
the facts back to the coordinating process.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .scanner import DEQUEUE_METHODS, LOG_METHODS

__all__ = [
    "FileFacts",
    "FunctionFacts",
    "InventoryDef",
    "LogSite",
    "collect_file",
    "iter_own_nodes",
    "parse_suppressions",
    "receiver_name",
    "suppressed_rules",
]

#: Receiver attribute names that mark a stage-context call.
SET_CONTEXT = "set_context"
END_TASK = "end_task"

#: subprocess functions that block on child processes.
SUBPROCESS_BLOCKING = {"run", "call", "check_call", "check_output", "Popen"}

#: Builtins that perform real, blocking I/O.
BLOCKING_BUILTINS = {"open", "input"}

#: Class whose direct construction SH001 flags inside shard packages —
#: per-shard detectors must come from repro.shard.factory.shard_detector.
_DETECTOR_CLASS = "AnomalyDetector"

#: Detect-path methods that have a batch-capable equivalent (CP001):
#: ``observe`` -> ``observe_batch``, ``classify`` -> compiled rule tables.
_BATCH_CAPABLE_METHODS = frozenset({"observe", "classify"})

#: Span-lifecycle method names on tracer-like receivers (TR001).  Sim
#: and server code should never call these directly — the task execution
#: tracker emits spans from set_context/end_task when tracing is on.
_TRACER_SPAN_METHODS = frozenset(
    {"begin_task", "begin_span", "start_span", "open_span", "finish", "record"}
)

#: Accounting attributes exposed as read-only properties backed by
#: telemetry (TM001).  Writing to the *public* name either raises
#: AttributeError at runtime or shadows the property on a subclass,
#: silently detaching the exported metric from reality.
_TELEMETRY_ATTRS = frozenset(
    {
        "tasks_seen",
        "bucket_probe_count",
        "windows_closed",
        "windows_open",
        "bytes_streamed",
        "frames_flushed",
        "frame_bytes",
        "bytes_received",
        "frames_received",
    }
)


@dataclass
class LogSite:
    """One log call site found in a file."""

    path: str
    line: int
    col: int
    method: str
    template_expr: ast.expr  # the first positional argument
    lpid_expr: Optional[ast.expr]  # value of the lpid= keyword, if present
    func_qualname: str
    resolved_template: Optional[str] = None
    #: Inventory attribute the template resolved through, if any
    #: (e.g. ``xc_recv_block`` for ``lps.xc_recv_block.template``).
    template_attr: Optional[str] = None


@dataclass
class InventoryDef:
    """One log-point definition: ``self.<attr> = lp("template", ...)``."""

    path: str
    line: int
    attr: str
    template: str
    owner: str  # class name


@dataclass
class FunctionFacts:
    """Per-function facts for the CFG and call-graph rules."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    owner_class: Optional[str]
    is_generator: bool
    has_set_context: bool
    has_end_task: bool
    has_log_calls: bool
    has_dequeue: bool

    @property
    def is_async(self) -> bool:
        """Whether this is an ``async def`` (an AS001 entry point)."""
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ClassFacts:
    """Per-class facts consumed by the whole-program passes."""

    name: str
    line: int
    #: Base class names resolvable as plain identifiers (``Thread`` for
    #: ``class X(Thread)``, ``Thread`` again for ``threading.Thread``).
    bases: List[str] = field(default_factory=list)
    #: attribute name -> class name, for ``self.attr = ClassName(...)``
    #: assignments anywhere in the class body (receiver typing).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FileFacts:
    path: str
    tree: ast.AST
    lines: List[str]
    log_sites: List[LogSite] = field(default_factory=list)
    inventory: List[InventoryDef] = field(default_factory=list)
    functions: List[FunctionFacts] = field(default_factory=list)
    #: class name -> (has run() method, has any log call, has set_context)
    classes: Dict[str, Tuple[bool, bool, bool, int]] = field(default_factory=dict)
    #: class name -> structured class facts (bases, attribute types).
    class_facts: Dict[str, ClassFacts] = field(default_factory=dict)
    #: Aliases of the real ``time`` module in this file ({"time", "_time"}).
    time_aliases: Set[str] = field(default_factory=set)
    #: Names bound to ``time.sleep`` via ``from time import sleep [as x]``.
    sleep_aliases: Set[str] = field(default_factory=set)
    #: Aliases of the stdlib ``queue`` module.
    queue_aliases: Set[str] = field(default_factory=set)
    #: Names bound to ``queue.Queue`` via ``from queue import Queue``.
    queue_classes: Set[str] = field(default_factory=set)
    #: Bare name -> log method (``from ...loglib import debug [as dbg]``).
    bare_log_names: Dict[str, str] = field(default_factory=dict)
    #: Aliases of os / subprocess / socket.
    os_aliases: Set[str] = field(default_factory=set)
    subprocess_aliases: Set[str] = field(default_factory=set)
    socket_aliases: Set[str] = field(default_factory=set)
    #: Every ``import M [as x]``: bound name -> full module path.
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: Every ``from M import n [as x]``: bound name -> (module, orig name).
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: (line, col, attribute, receiver) of writes to telemetry-backed
    #: accounting properties (TM001).
    telemetry_mutations: List[Tuple[int, int, str, str]] = field(
        default_factory=list
    )
    #: (line, col, receiver, method, inside-a-generator) of span-lifecycle
    #: calls on tracer-like receivers (TR001).
    tracer_calls: List[Tuple[int, int, str, str, bool]] = field(
        default_factory=list
    )
    #: (line, col) of direct ``AnomalyDetector(...)`` constructions (SH001).
    detector_ctors: List[Tuple[int, int]] = field(default_factory=list)
    #: (line, col, receiver, method) of per-task ``observe``/``classify``
    #: calls made inside a loop body (CP001).
    detect_loop_calls: List[Tuple[int, int, str, str]] = field(
        default_factory=list
    )
    #: Module-level ``NAME = struct.Struct("<fmt>")`` definitions:
    #: name -> format literal (None when the format is built dynamically).
    struct_defs: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Module-level names bound to mutable literals/constructors
    #: ({} / [] / set() / dict() / list()) — candidate interning tables.
    mutable_globals: Set[str] = field(default_factory=set)
    #: Global names mutated from inside a function in this file
    #: (subscript store, ``.add``/``.append``/``.update``/... calls).
    mutated_globals: Set[str] = field(default_factory=set)
    #: Inline suppression directives: line -> set of rule tokens.
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)


_SUPPRESSION_MARKER = "saadlint:"
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """All ``# saadlint: disable=RULE[,RULE]`` directives, by line number.

    Tokens are upper-cased; a token only counts when every id on the
    line is a plausible rule token (alphanumeric) — prose that merely
    *mentions* the directive syntax (docstrings, documentation) is not a
    directive.  The engine warns about unknown-but-plausible ids
    (SL001) and matches the rest against findings.  A trailing ``# why``
    comment after the rule list is ignored.
    """
    out: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        pos = text.find(_SUPPRESSION_MARKER)
        if pos < 0:
            continue
        directive = text[pos + len(_SUPPRESSION_MARKER):].strip()
        if not directive.startswith("disable="):
            continue
        spec = directive[len("disable="):].split("#")[0]
        rules = {
            token.strip().upper() for token in spec.split(",") if token.strip()
        }
        if rules and all(token.isalnum() for token in rules):
            out[number] = rules
    return out


def suppressed_rules(lines: Sequence[str], line: int) -> Set[str]:
    """Rules disabled by a suppression comment on ``line``."""
    if not (1 <= line <= len(lines)):
        return set()
    return parse_suppressions([lines[line - 1]]).get(1, set())


class _Collector(ast.NodeVisitor):
    """Pass-1 visitor filling a :class:`FileFacts`."""

    def __init__(self, facts: FileFacts):
        self.facts = facts
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        #: Facts of the function currently being visited (innermost).
        self._current: List[FunctionFacts] = []
        #: How many for/while bodies enclose the current node (CP001).
        self._loop_depth = 0

    # -- imports --------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self.facts.module_aliases[bound] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.name == "time":
                self.facts.time_aliases.add(bound)
            elif alias.name == "queue":
                self.facts.queue_aliases.add(bound)
            elif alias.name == "os":
                self.facts.os_aliases.add(bound)
            elif alias.name == "subprocess":
                self.facts.subprocess_aliases.add(bound)
            elif alias.name == "socket":
                self.facts.socket_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            self.facts.from_imports[bound] = (module, alias.name)
            if module == "time" and alias.name == "sleep":
                self.facts.sleep_aliases.add(bound)
            elif module == "queue" and alias.name == "Queue":
                self.facts.queue_classes.add(bound)
            elif alias.name in LOG_METHODS and "log" in module.lower():
                # Bare-name logger idiom: ``from repro.loglib import debug``.
                self.facts.bare_log_names[bound] = alias.name
        self.generic_visit(node)

    # -- scopes ---------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.facts.classes[node.name] = (False, False, False, node.lineno)
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        self.facts.class_facts[node.name] = ClassFacts(
            name=node.name, line=node.lineno, bases=bases
        )
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        owner = self._class_stack[-1] if self._class_stack else None
        qual = ".".join(
            ([owner] if owner else []) + self._func_stack + [node.name]
        )
        facts = FunctionFacts(
            node=node,
            qualname=qual,
            owner_class=owner,
            is_generator=_is_generator(node),
            has_set_context=False,
            has_end_task=False,
            has_log_calls=False,
            has_dequeue=False,
        )
        self.facts.functions.append(facts)
        if owner and node.name == "run" and _is_thread_run(node):
            has_run, logs, ctx, line = self.facts.classes[owner]
            self.facts.classes[owner] = (True, logs, ctx, line)
        self._current.append(facts)
        self._func_stack.append(node.name)
        # A nested def's body does not run per iteration of an enclosing
        # loop; loop depth restarts inside it.
        outer_depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = outer_depth
        self._func_stack.pop()
        self._current.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- loops (CP001 scope) ---------------------------------------------------
    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    # -- calls ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        method: Optional[str] = None
        if isinstance(func, ast.Attribute):
            method = func.attr
        elif isinstance(func, ast.Name) and func.id in self.facts.bare_log_names:
            method = self.facts.bare_log_names[func.id]

        if method in LOG_METHODS and node.args:
            lpid_expr = next(
                (kw.value for kw in node.keywords if kw.arg == "lpid"), None
            )
            self.facts.log_sites.append(
                LogSite(
                    path=self.facts.path,
                    line=node.lineno,
                    col=node.col_offset,
                    method=method,
                    template_expr=node.args[0],
                    lpid_expr=lpid_expr,
                    func_qualname=self._current[-1].qualname if self._current else "<module>",
                )
            )
            self._mark(log=True)
        elif method == SET_CONTEXT:
            self._mark(set_context=True)
        elif method == END_TASK:
            self._mark(end_task=True)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _TRACER_SPAN_METHODS
            and "tracer" in receiver_name(func.value).lower()
        ):
            self.facts.tracer_calls.append(
                (
                    node.lineno,
                    node.col_offset,
                    receiver_name(func.value),
                    func.attr,
                    self._current[-1].is_generator if self._current else False,
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in DEQUEUE_METHODS
            and "queue" in receiver_name(func.value).lower()
        ):
            if self._current:
                self._current[-1].has_dequeue = True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _BATCH_CAPABLE_METHODS
            and node.args
            and self._loop_depth > 0
        ):
            self.facts.detect_loop_calls.append(
                (
                    node.lineno,
                    node.col_offset,
                    receiver_name(func.value),
                    func.attr,
                )
            )
        ctor_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if ctor_name == _DETECTOR_CLASS:
            self.facts.detector_ctors.append((node.lineno, node.col_offset))
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and self._current
                and receiver.id in self.facts.mutable_globals
            ):
                self.facts.mutated_globals.add(receiver.id)
        self.generic_visit(node)

    def _mark(self, log=False, set_context=False, end_task=False) -> None:
        if self._current:
            facts = self._current[-1]
            facts.has_log_calls = facts.has_log_calls or log
            facts.has_set_context = facts.has_set_context or set_context
            facts.has_end_task = facts.has_end_task or end_task
        if self._class_stack:
            owner = self._class_stack[-1]
            has_run, logs, ctx, line = self.facts.classes[owner]
            self.facts.classes[owner] = (
                has_run, logs or log, ctx or set_context, line
            )

    # -- assignments -----------------------------------------------------------
    def _note_telemetry_write(self, target: ast.expr, node: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _TELEMETRY_ATTRS
        ):
            self.facts.telemetry_mutations.append(
                (
                    node.lineno,
                    node.col_offset,
                    target.attr,
                    receiver_name(target.value),
                )
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_telemetry_write(node.target, node)
        self._note_global_mutation(node.target)
        self.generic_visit(node)

    def _note_global_mutation(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and self._current
            and target.value.id in self.facts.mutable_globals
        ):
            self.facts.mutated_globals.add(target.value.id)

    def _note_struct_def(self, target: ast.expr, value: ast.expr) -> None:
        """Module-level ``NAME = struct.Struct(...)`` (or an alias of one)."""
        if self._current or self._class_stack or not isinstance(target, ast.Name):
            return
        if _is_struct_ctor(value, self.facts):
            fmt = None
            first = value.args[0] if value.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                fmt = first.value
            self.facts.struct_defs[target.id] = fmt
        elif (
            isinstance(value, ast.Name) and value.id in self.facts.struct_defs
        ):
            # ``PUBLIC = _PRIVATE`` alias: same packed layout.
            self.facts.struct_defs[target.id] = self.facts.struct_defs[value.id]
        elif isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        ):
            self.facts.mutable_globals.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_telemetry_write(target, node)
            self._note_global_mutation(target)
            self._note_struct_def(target, node.value)
        template = _register_call_template(node.value)
        if template is not None and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._class_stack
            ):
                self.facts.inventory.append(
                    InventoryDef(
                        path=self.facts.path,
                        line=node.lineno,
                        attr=target.attr,
                        template=template,
                        owner=self._class_stack[-1],
                    )
                )
        # Receiver typing: ``self.attr = ClassName(...)`` anywhere in a
        # class body records attr -> ClassName for the call-graph pass.
        if (
            self._class_stack
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "self"
            and isinstance(node.value, ast.Call)
        ):
            ctor = node.value.func
            ctor_name = (
                ctor.id
                if isinstance(ctor, ast.Name)
                else ctor.attr if isinstance(ctor, ast.Attribute) else None
            )
            if ctor_name:
                owner = self.facts.class_facts.get(self._class_stack[-1])
                if owner is not None:
                    owner.attr_types.setdefault(node.targets[0].attr, ctor_name)
        self.generic_visit(node)


def _is_struct_ctor(value: ast.expr, facts: FileFacts) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr == "Struct":
        base = func.value
        if isinstance(base, ast.Name):
            return facts.module_aliases.get(base.id) == "struct"
    if isinstance(func, ast.Name):
        return facts.from_imports.get(func.id) == ("struct", "Struct")
    return False


def receiver_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_generator(node) -> bool:
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Yields in nested functions belong to those functions; prune
            # by skipping their subtrees via a manual stack.
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            if _owning_function(node, child) is node:
                return True
    return False


def _owning_function(root, target) -> Optional[ast.AST]:
    """The innermost function node under ``root`` containing ``target``."""
    owner = root
    stack = [(root, root)]
    while stack:
        current, current_owner = stack.pop()
        for child in ast.iter_child_nodes(current):
            child_owner = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                else current_owner
            )
            if child is target:
                return child_owner
            stack.append((child, child_owner))
    return owner


def iter_own_nodes(func_node: ast.AST):
    """Walk a function body, pruning nested def/class subtrees.

    Yields every AST node that executes *as part of this function* —
    nested function and class bodies are separate scopes with their own
    :class:`FunctionFacts` entries, so whole-program passes must not
    attribute their calls to the enclosing function.  Lambda bodies stay
    included (they have no facts entry of their own).
    """
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_thread_run(node) -> bool:
    """A thread-body style ``run``: only ``self`` is required."""
    args = node.args
    required = [a for a in args.posonlyargs + args.args]
    return len(required) - len(args.defaults) <= 1


def _register_call_template(value: ast.expr) -> Optional[str]:
    """Template string when ``value`` is a log-point registration call.

    Recognizes local helper calls (``lp("...")``) and registry calls
    (``<registry>.register("...")``) with a literal first argument.
    """
    if not isinstance(value, ast.Call) or not value.args:
        return None
    func = value.func
    is_helper = isinstance(func, ast.Name) and func.id in ("lp", "_lp", "logpoint")
    is_register = isinstance(func, ast.Attribute) and func.attr == "register"
    if not (is_helper or is_register):
        return None
    first = value.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def real_queue_names(facts: FileFacts, func_node: ast.AST) -> Set[str]:
    """Local names bound to real ``queue.Queue(...)`` instances."""
    real_queues: Set[str] = set()
    for stmt in ast.walk(func_node):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            ctor = stmt.value.func
            is_queue = (
                isinstance(ctor, ast.Attribute)
                and ctor.attr == "Queue"
                and isinstance(ctor.value, ast.Name)
                and ctor.value.id in facts.queue_aliases
            ) or (
                isinstance(ctor, ast.Name) and ctor.id in facts.queue_classes
            )
            if is_queue:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        real_queues.add(target.id)
    return real_queues


def blocking_call_description(
    facts: FileFacts, node: ast.Call, real_queues: Set[str]
) -> Optional[str]:
    """Describe ``node`` when it is a real, thread-blocking primitive.

    Shared by CC001 (sim event handlers must stay on the virtual clock)
    and AS001 (nothing reachable from a coroutine may stall the event
    loop).  Returns None for calls that are not statically known to
    block.
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in facts.sleep_aliases:
            return f"{func.id}() (time.sleep)"
        if func.id in BLOCKING_BUILTINS:
            return f"{func.id}()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Name):
        base = receiver.id
        if func.attr == "sleep" and base in facts.time_aliases:
            return f"{base}.sleep()"
        if func.attr == "system" and base in facts.os_aliases:
            return f"{base}.system()"
        if (
            func.attr in SUBPROCESS_BLOCKING
            and base in facts.subprocess_aliases
        ):
            return f"{base}.{func.attr}()"
        if base in facts.socket_aliases:
            return f"{base}.{func.attr}()"
        if func.attr in ("get", "put", "join") and base in real_queues:
            return f"{base}.{func.attr}() (stdlib queue.Queue)"
    return None


def collect_file(path: str, source: str) -> FileFacts:
    """Parse ``source`` and collect one file's facts (pass 1)."""
    tree = ast.parse(source, filename=path)
    facts = FileFacts(path=path, tree=tree, lines=source.splitlines())
    _Collector(facts).visit(tree)
    facts.suppressions = parse_suppressions(facts.lines)
    return facts


def read_and_collect(path: str) -> FileFacts:
    """Read ``path`` from disk and collect its facts.

    Module-level so ``lint --jobs N`` can map it over a process pool
    (the returned facts, AST included, pickle cleanly).
    """
    with open(path, "r", encoding="utf-8") as handle:
        return collect_file(path, handle.read())
