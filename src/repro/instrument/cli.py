"""The ``python -m repro lint`` command.

Usage::

    python -m repro lint src/repro                 # human-readable report
    python -m repro lint src/repro --json          # machine-readable
    python -m repro lint src --registry dict.json  # + LP004 drift check
    python -m repro lint src --write-baseline      # accept current findings
    python -m repro lint --list-rules

Exit codes: 0 clean, 1 findings (or parse errors), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core import LogPointRegistry

from .baseline import Baseline, find_default_baseline
from .cache import DEFAULT_CACHE_NAME, cache_key, load_cached_result, store_result
from .lint import ALL_RULES, _python_files, run_lint
from .reporters import render_json, render_rule_table, render_text


def _parse_rules(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    rules = [token.strip().upper() for token in spec.split(",") if token.strip()]
    unknown = sorted(set(rules) - set(ALL_RULES))
    if unknown:
        raise SystemExit(f"saadlint: unknown rule id(s): {', '.join(unknown)}")
    return rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="saadlint: static verification of SAAD instrumentation "
        "(log points, stage contexts, sim-safety).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    parser.add_argument(
        "--select", metavar="RULES", help="comma-separated rule ids to run"
    )
    parser.add_argument(
        "--ignore", metavar="RULES", help="comma-separated rule ids to skip"
    )
    parser.add_argument(
        "--registry",
        metavar="FILE",
        help="persisted log template dictionary (JSON) for the LP004 drift check",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file (default: nearest .saadlint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report everything)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the content-hash result cache (always analyze)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        help=f"result cache file (default: ./{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also list suppressed findings"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited early; not an error,
        # but stdout is gone — detach it so interpreter teardown doesn't
        # raise again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_table())
        return 0
    if not args.paths:
        parser.print_usage()
        print("saadlint: at least one path is required", file=sys.stderr)
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(f"saadlint: no such path: {path}", file=sys.stderr)
            return 2

    registry = None
    if args.registry:
        try:
            with open(args.registry, "r", encoding="utf-8") as handle:
                registry = LogPointRegistry.from_json(handle.read())
        except (OSError, ValueError) as exc:
            print(f"saadlint: cannot load registry: {exc}", file=sys.stderr)
            return 2

    select = _parse_rules(args.select)
    ignore = _parse_rules(args.ignore) or ()
    effective_rules = [r for r in (select or ALL_RULES) if r not in set(ignore)]

    cache_path = args.cache or DEFAULT_CACHE_NAME
    key = None
    result = None
    if not args.no_cache:
        hashed = list(_python_files(args.paths))
        if args.registry:
            # The registry changes LP004 output, so its content is part
            # of the cache identity too.
            hashed.append(args.registry)
        key = cache_key(hashed, effective_rules)
        result = load_cached_result(cache_path, key)

    if result is None:
        try:
            result = run_lint(
                args.paths,
                select=select,
                ignore=ignore,
                registry=registry,
                registry_label=args.registry or "<registry>",
            )
        except ValueError as exc:
            print(f"saadlint: {exc}", file=sys.stderr)
            return 2
        if key is not None:
            store_result(cache_path, key, result)

    baseline_path = args.baseline or find_default_baseline(args.paths)
    if args.write_baseline:
        Baseline.from_result(result).save(baseline_path)
        print(
            f"saadlint: wrote {len(result.diagnostics)} finding(s) to "
            f"{baseline_path}"
        )
        return 0

    unmatched: List[str] = []
    if not args.no_baseline and os.path.exists(baseline_path):
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"saadlint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        result, unmatched = baseline.apply(result)

    print(render_json(result) if args.json else render_text(result, args.verbose))
    if unmatched and not args.json:
        print(
            f"saadlint: note: {len(unmatched)} baseline entr"
            f"{'y' if len(unmatched) == 1 else 'ies'} no longer match — "
            f"re-run with --write-baseline to shrink the baseline",
            file=sys.stderr,
        )
    return 0 if result.clean else 1
