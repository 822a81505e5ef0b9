"""``python -m repro trace`` — capture and render SAAD task traces.

Two sources:

* **Live demo** (no file argument): runs the same deterministic demo
  deployment as ``python -m repro stats`` with tracing enabled — two
  nodes, training, a detection pass with an injected novel-signature
  burst — then renders the captured traces as ASCII timelines.  The
  injected anomaly leaves pinned exemplar traces, so
  ``--anomalies-only`` shows exactly the evidence the detector attached
  to its events.
* **Saved export** (a ``.json`` path written by ``--export chrome``):
  re-renders the file's traces; stage names, host names, and log
  templates are recovered from the export itself.

Usage::

    python -m repro trace                      # live demo, ASCII timelines
    python -m repro trace --anomalies-only     # only pinned exemplars
    python -m repro trace --limit 5            # at most 5 traces
    python -m repro trace --export chrome --out TRACE.json
                                               # write Perfetto-loadable JSON
    python -m repro trace TRACE.json           # re-render a saved export

Open an exported file at https://ui.perfetto.dev (or chrome://tracing):
hosts appear as processes, tasks as thread lanes, stages as nested
spans, log points as instants.
"""

from __future__ import annotations

from typing import List, Optional

from .export import read_chrome_trace, write_chrome_trace


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro trace``; returns an exit code."""
    argv = list(argv or [])
    anomalies_only = False
    export: Optional[str] = None
    out_path: Optional[str] = None
    limit: Optional[int] = None
    paths: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            print(__doc__)
            return 0
        if arg == "--anomalies-only":
            anomalies_only = True
        elif arg == "--export":
            i += 1
            if i >= len(argv):
                print("trace: --export needs a format (chrome)")
                return 2
            export = argv[i]
            if export != "chrome":
                print(f"trace: unknown export format {export!r} (only: chrome)")
                return 2
        elif arg == "--out":
            i += 1
            if i >= len(argv):
                print("trace: --out needs a path")
                return 2
            out_path = argv[i]
        elif arg == "--limit":
            i += 1
            if i >= len(argv):
                print("trace: --limit needs a count")
                return 2
            try:
                limit = int(argv[i])
            except ValueError:
                print(f"trace: --limit needs an integer, got {argv[i]!r}")
                return 2
            if limit < 0:
                print(f"trace: --limit must be >= 0: {limit}")
                return 2
        elif arg.startswith("-"):
            print(f"trace: unknown option {arg!r}")
            return 2
        else:
            paths.append(arg)
        i += 1
    if len(paths) > 1:
        print("trace: at most one saved export file")
        return 2

    if paths:
        try:
            archive = read_chrome_trace(paths[0])
        except (OSError, ValueError) as exc:
            print(f"trace: cannot read {paths[0]}: {exc}")
            return 1
        traces = archive.traces
        stage_names = archive.stage_names
        host_names = archive.host_names
        templates = archive.templates
        source = paths[0]
    else:
        from repro.telemetry.demo import demo_deployment

        saad = demo_deployment()
        traces = saad.tracer.traces()
        stage_names = {stage.stage_id: stage.name for stage in saad.stages}
        host_names = saad.host_names
        templates = {point.lpid: point.template for point in saad.logpoints}
        source = "live demo deployment"

    total = len(traces)
    pinned = sum(1 for trace in traces if trace.pinned)
    if anomalies_only:
        traces = [trace for trace in traces if trace.pinned]

    if export == "chrome":
        path = out_path or "TRACE.json"
        write_chrome_trace(
            traces,
            path,
            stage_names=stage_names,
            host_names=host_names,
            templates=templates,
        )
        print(
            f"{len(traces)} traces exported to {path} "
            "(open at https://ui.perfetto.dev)"
        )
        return 0

    from repro.viz.timeline import render_trace

    shown = traces if limit is None else traces[:limit]
    header = f"{total} traces captured from {source} ({pinned} pinned to anomalies)"
    if anomalies_only:
        header += " — showing pinned only"
    if limit is not None and len(shown) < len(traces):
        header += f" — showing first {len(shown)}"
    print(header)
    for trace in shown:
        print()
        print(
            render_trace(
                trace,
                stage_names=stage_names,
                host_names=host_names,
                templates=templates,
            ),
            end="",
        )
    return 0
