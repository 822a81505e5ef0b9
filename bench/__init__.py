"""Layered wall-clock benchmark for the log-call -> AnomalyEvent path.

Run as ``PYTHONPATH=src python -m bench`` from the repository root (the
package also finds ``src/`` on its own).  ``README.md`` in this
directory defines every metric and workload; ``BENCHMARK.json`` at the
repository root is the contract the numbers are judged against.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# The program under test is not installed; the driver runs the command
# without PYTHONPATH, so the package puts ``src/`` on the path itself.
if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


def counter_total(registry, name: str) -> float:
    """Sum of a metric family's samples in ``registry`` (0 when absent)."""
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(sample["value"] for sample in family.collect()["samples"])
