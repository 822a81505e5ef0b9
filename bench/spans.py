"""In-memory span recorder for the traced passes.

The benchmark wraps each callable it hands across a layer boundary
(:meth:`SpanRecorder.wrap`) and brackets its own driver loops
(:meth:`begin` / :meth:`end`).  Spans live in parallel lists until the
pass ends; :meth:`self_times` then charges every layer its spans minus
the part its children cover, and :meth:`write` dumps the raw spans.

One recorder serves one pass.  Spans nest through a single stack, so at
most one thread may record at a time (the paced workload's server
thread records while the main thread only waits).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List


class SpanRecorder:
    """Spans as columns: layer, start, end, parent span, request id."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.layer: List[int] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []
        self.parent: List[int] = []
        self.ident: List[int] = []
        #: The task or frame the driver is working on; spans opened
        #: meanwhile share it as their request identifier.
        self.current = -1
        self._stack: List[int] = []

    def layer_id(self, name: str) -> int:
        """The column value standing for layer ``name``."""
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def begin(self, layer: int) -> int:
        """Open a span under the innermost open one; returns its handle."""
        stack = self._stack
        handle = len(self.start_ns)
        self.layer.append(layer)
        self.parent.append(stack[-1] if stack else -1)
        self.ident.append(self.current)
        self.end_ns.append(0)
        stack.append(handle)
        # Stamped last (and `end` stamps first) so the bookkeeping is
        # charged to the enclosing span, never to this one.
        self.start_ns.append(perf_counter_ns())
        return handle

    def end(self, handle: int) -> None:
        """Close the span ``begin`` returned ``handle`` for."""
        self.end_ns[handle] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of layer ``name``."""
        layer = self.layer_id(name)
        begin, end = self.begin, self.end

        def spanned(*args, **kwargs):
            handle = begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(handle)

        return spanned

    def self_times(self) -> Dict[str, int]:
        """Nanoseconds of self time per layer, summed over its spans."""
        own = [end - start for start, end in zip(self.start_ns, self.end_ns)]
        for duration, parent in zip(list(own), self.parent):
            if parent >= 0:
                own[parent] -= duration
        totals = dict.fromkeys(self.layers, 0)
        for layer, ns in zip(self.layer, own):
            totals[self.layers[layer]] += ns
        return totals

    def write(self, path: Path) -> None:
        """Dump the raw spans as one JSON object of columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                {
                    "layers": self.layers,
                    "layer": self.layer,
                    "start_ns": self.start_ns,
                    "end_ns": self.end_ns,
                    "parent": self.parent,
                    "id": self.ident,
                },
                out,
                separators=(",", ":"),
            )
