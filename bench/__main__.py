"""``python -m bench``: one run, the whole suite, ``compare`` or ``noise``.

* ``--workload W --seed N --seconds S --trace 0|1`` is one run in this
  process; its last line of output is the JSON object the benchmark
  contract asks for (``--trace 0``: every end-to-end metric of
  ``BENCHMARK.json``, ``--trace 1``: every per-layer metric).
* Without ``--trace`` the suite runs: every selected workload, untraced
  then traced, each in a fresh subprocess, printed by name with units
  and written to ``bench/out/results.json``.
* ``compare A.json B.json`` and ``noise`` judge two result files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import measure, report
from .workloads import SPECS, scaled

#: ``--quick``: a twentieth of the tasks and of the measuring time.
QUICK_SCALE = 0.05


def one_run(args) -> int:
    """The contract's command: measure, print the result object last."""
    contract = report.load_contract()
    spec = scaled(SPECS[args.workload], args.scale)
    result = (measure.traced if args.trace else measure.untraced)(
        spec, args.seed, args.seconds
    )
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    values = result["values"]
    if args.out:
        with open(args.out, "w") as out:
            json.dump(result, out)
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name in sorted(values):
        print(f"{name:44s} {values[name]:>14.6g} {units.get(name, '')}")
    metrics = {
        metric["name"]: {
            # A layer off this workload's path did no work: 0.
            "value": values[metric["name"]] if not args.trace else values.get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("command", nargs="?", choices=("compare", "noise"))
    parser.add_argument("files", nargs="*", help="compare: two result files")
    parser.add_argument("--workload", action="append", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true", help="suite: traced runs only")
    parser.add_argument("--quick", action="store_true", help="1/20-size smoke run")
    parser.add_argument("--out", help="one run: also write the full result here")
    parser.add_argument("--results", default=str(report.RESULTS_PATH),
                        help="suite: where to write the results file")
    args = parser.parse_args(argv)
    contract = report.load_contract()
    args.scale = QUICK_SCALE if args.quick else 1.0
    if args.seconds is None:
        args.seconds = contract["run_seconds"] * args.scale

    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result files")
        return report.compare_files(*args.files)
    if args.command == "noise":
        return report.noise(args)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        args.workload = args.workload[0]
        return one_run(args)
    results, failed = report.suite(args, traces=(1,) if args.traced else (0, 1))
    report.write_results(results, Path(args.results))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
