"""Smoke test of the benchmark itself: ``pytest bench/`` (outside tier-1).

Runs the ``--quick`` suite once (a twentieth of the tasks and of the
measuring time; its numbers are not comparable) and checks the things a
later change to the benchmark must not break.
"""

import json
import subprocess
import sys
import time

import pytest

from bench import REPO_ROOT
from bench.workloads import SPECS, frames, make_script, scaled

QUICK_BUDGET_S = 30.0


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(results of ``python -m bench --quick``, contract, elapsed seconds)."""
    path = tmp_path_factory.mktemp("bench") / "results.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--results", str(path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(path) as source, open(REPO_ROOT / "BENCHMARK.json") as contract:
        return json.load(source), json.load(contract), elapsed


def test_quick_suite_fits_its_budget(quick):
    results, _, elapsed = quick
    assert elapsed < QUICK_BUDGET_S
    assert results["meta"]["comparable"] is False


def test_every_workload_reports_every_end_to_end_metric(quick):
    results, contract, _ = quick
    for workload in contract["workloads"]:
        measured = results["workloads"][workload["name"]]["end_to_end"]
        for metric in contract["end_to_end"]:
            assert measured[metric["name"]]["median"] > 0, (workload["name"], metric["name"])


def test_oracle_ran_and_passed(quick):
    results, _, _ = quick
    for name, sections in results["workloads"].items():
        measured = sections["end_to_end"]
        assert measured["failed_ops_share"]["median"] == 0, name
        assert measured["oracle_events"]["median"] >= 5, name


def test_span_self_times_sum_to_the_pass(quick):
    results, _, _ = quick
    for name, sections in results["workloads"].items():
        assert sections["per_layer"]["trace_span_sum_error_pct"]["median"] <= 2.0, name


def test_every_per_layer_metric_is_measured_somewhere(quick):
    results, contract, _ = quick
    measured = set()
    for sections in results["workloads"].values():
        measured.update(sections["per_layer"])
    missing = [m["name"] for m in contract["per_layer"] if m["name"] not in measured]
    assert not missing


def test_generator_is_a_function_of_the_seed():
    spec = scaled(SPECS["analyzer_churn"], 0.01)
    one, same, other = make_script(spec, 7), make_script(spec, 7), make_script(spec, 8)
    assert one.digest() == same.digest()
    assert one.digest() != other.digest()
    assert frames(one, spec.frame) == frames(same, spec.frame)
    assert frames(one, spec.frame) != frames(other, spec.frame)
