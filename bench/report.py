"""Running the suite, writing results, comparing two result files.

A result file holds, per workload and metric, the median and — where a
run has several passes — the per-pass values and their quartiles.
``compare`` never prints a bare signed percentage: every row carries
both sides' medians and quartiles, the bound from ``BENCHMARK.json``,
and one of four verdicts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import numpy

from . import BENCH_DIR, REPO_ROOT
from .workloads import SPECS

OUT_DIR = BENCH_DIR / "out"
RESULTS_PATH = OUT_DIR / "results.json"


def load_contract() -> dict:
    """``BENCHMARK.json``: names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json") as source:
        return json.load(source)


def _summary(samples: List[float]) -> dict:
    """Median and quartiles of one metric's samples (one or many)."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(samples)}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def _commit() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # a checkout without git metadata


def run_one(workload: str, args, trace: int) -> dict:
    """One run in a fresh subprocess; its full result dict."""
    with tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json") as scratch:
        command = [
            sys.executable, "-m", "bench",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--out", scratch.name,
        ]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
        try:
            result = json.load(scratch)
        except ValueError:
            sys.stderr.write(done.stdout + done.stderr)
            raise RuntimeError(f"{workload} --trace {trace} produced no result")
    return result


def suite(args, workloads: Optional[List[str]] = None, traces=(0, 1)) -> tuple:
    """Run every selected workload, untraced then traced; print as we go."""
    contract = load_contract()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    results = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "comparable": not args.quick,
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _commit(),
        },
        "workloads": {},
    }
    failed = 0
    for workload in workloads or args.workload or list(SPECS):
        entry = results["workloads"][workload] = {}
        for trace in traces:
            result = run_one(workload, args, trace)
            failed += result["failed"]
            section = entry["per_layer" if trace else "end_to_end"] = {
                name: _summary(result["passes"].get(name) or [value])
                for name, value in sorted(result["values"].items())
            }
            print(f"\n== {workload} ({'traced' if trace else 'untraced'}): "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for name, summary in section.items():
                print(f"  {name:42s} {summary['median']:>14.6g} {units.get(name, '')}")
    return results, failed


def write_results(results: dict, path=RESULTS_PATH) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as out:
        json.dump(results, out, indent=1, sort_keys=True)
    print(f"\nwrote {path}")


# -- comparison ---------------------------------------------------------------
def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    ``worse`` when B's median is worse than A's by more than the bound;
    ``unresolved`` when either side's quartile spread is wider than the
    bound (unless every B sample beats every A sample); ``better`` only
    when every B sample beats every A sample by more than that spread —
    or, for a metric with one sample a side and so no spread to show,
    by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    a_samples = a.get("samples", [a["median"]])
    b_samples = b.get("samples", [b["median"]])
    clean_win = all(sign * (y - x) < 0 for x in a_samples for y in b_samples)
    if spread > bound:
        return "better" if clean_win else "unresolved"
    if worse_by > bound:
        return "worse"
    if clean_win and -worse_by > (spread if len(a_samples) > 1 < len(b_samples) else bound):
        return "better"
    return "same"


def compare(a: dict, b: dict) -> List[dict]:
    """One row per end-to-end metric x workload present on both sides."""
    contract = load_contract()
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ours = a["workloads"][workload].get("end_to_end", {})
        theirs = b["workloads"][workload].get("end_to_end", {})
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name in ours and name in theirs:
                rows.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "unit": metric["unit"],
                        "bound": metric["bound"],
                        "a": ours[name],
                        "b": theirs[name],
                        "verdict": verdict(
                            ours[name], theirs[name], metric["better"], metric["bound"]
                        ),
                    }
                )
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':16s} {'metric':22s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'bound':>6s}  verdict")
    for row in rows:
        sides = [
            f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"
            for side in (row["a"], row["b"])
        ]
        print(f"{row['workload']:16s} {row['metric']:22s} {sides[0]:>38s} "
              f"{sides[1]:>38s} {row['bound']:>6.2f}  {row['verdict']} ({row['unit']})")


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as source_a, open(path_b) as source_b:
        a, b = json.load(source_a), json.load(source_b)
    if not (a["meta"]["comparable"] and b["meta"]["comparable"]):
        print("note: a --quick result is not comparable; verdicts are for show")
    rows = compare(a, b)
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def noise(args) -> int:
    """The suite twice, workloads interleaved A/B/A/B; same code must agree."""
    sides: Dict[str, dict] = {}
    for workload in args.workload or list(SPECS):
        for side in "AB":
            results, _ = suite(args, [workload], traces=(0,))
            if side in sides:
                sides[side]["workloads"].update(results["workloads"])
            else:
                sides[side] = results
    for side, results in sides.items():
        write_results(results, OUT_DIR / f"noise-{side}.json")
    rows = compare(sides["A"], sides["B"])
    print_rows(rows)
    disagree = [
        row
        for row in rows
        if abs(row["b"]["median"] - row["a"]["median"]) > row["bound"] * abs(row["a"]["median"])
    ]
    for row in disagree:
        print(f"medians disagree beyond the bound: {row['workload']} {row['metric']}")
    return 1 if disagree else 0
