"""Tier-1 selfcheck: saadlint must run clean over the real simulators.

Every simulated server (HDFS, HBase, Cassandra, LSM) plus the simulation
kernel is linted with all rules enabled.  Any unbaselined diagnostic is a
regression: either fix the instrumentation defect or, for a deliberate
exception, add an inline ``# saadlint: disable=RULE`` with a comment
explaining why.
"""

import os
import re

import pytest

from repro.instrument import run_lint
from repro.instrument.cli import main as lint_cli

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src", "repro")

#: The trees ISSUE'd for verification: all four servers + the sim kernel.
SIM_TREES = ["hdfs", "hbase", "cassandra", "lsm", "simsys"]

pytestmark = pytest.mark.lint


@pytest.mark.parametrize("tree", SIM_TREES)
def test_sim_tree_lints_clean(tree):
    result = run_lint([os.path.join(SRC, tree)])
    assert result.parse_errors == []
    messages = "\n".join(
        f"{d.path}:{d.line}: {d.rule_id} {d.message}" for d in result.diagnostics
    )
    assert result.diagnostics == [], f"unbaselined saadlint findings:\n{messages}"


def test_whole_package_lints_clean():
    result = run_lint([SRC])
    assert result.files_scanned > 50  # the walk really covered the package
    assert result.clean, [d.as_dict() for d in result.diagnostics]


def test_cli_selfcheck_exits_zero(capsys):
    # --no-cache: always analyse, and leave no cache file in the cwd.
    assert lint_cli([SRC, "--no-cache"]) == 0
    assert "clean" in capsys.readouterr().out


def test_design_doc_rule_table_matches_registry():
    """DESIGN.md §9's rule table must stay in lockstep with RULES."""
    from repro.instrument.diagnostics import RULES, severity_name

    design = os.path.join(REPO_ROOT, "DESIGN.md")
    with open(design, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    documented = {}
    for line in lines:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and re.fullmatch(r"[A-Z]{2}\d{3}", cells[0]):
            documented[cells[0]] = cells[1]

    missing = sorted(set(RULES) - set(documented))
    assert not missing, f"rules absent from the DESIGN.md table: {missing}"
    retired = sorted(set(documented) - set(RULES))
    assert not retired, f"DESIGN.md table rows for unknown rules: {retired}"
    for rule_id, severity in sorted(documented.items()):
        expected = severity_name(RULES[rule_id].severity)
        assert severity == expected, (
            f"DESIGN.md lists {rule_id} as '{severity}', "
            f"registry says '{expected}'"
        )
