"""Where ``observe_batch``'s two exact routes cross (DESIGN §13's table).

``PYTHONPATH=src python benchmarks/observe_batch_crossover.py [seed]``
prints, per frame size, the cost of one task on the per-record loop and
on the vector kernel — the measurement behind
``repro.core.detector._VECTOR_MIN_RECORDS``.  Input is the ``bench``
package's 8-stage trace (the ``node_to_event`` shape), one frame per
``observe_batch`` call, a fresh compiled detector per run; each cell is
the fastest of seven runs spread over the whole measurement (this
host's speed moves in steps lasting seconds, and the minimum is what
the code costs).  A script, not a test: it asserts
nothing and is not collected.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import SPECS, frames, make_script, synopses  # noqa: E402
from repro.core import AnomalyDetector, OutlierModel, SAADConfig  # noqa: E402
from repro.core import detector as detector_module  # noqa: E402

SIZES = (16, 64, 128, 256, 384, 512, 768, 1024, 4096)
TASKS = 65_536
REPEATS = 7
ROUTES = {"records": 1 << 62, "vector": 1}


def main(seed: int) -> None:
    spec = replace(SPECS["node_to_event"], tasks=TASKS)
    config = SAADConfig(window_s=spec.window_s)
    model = OutlierModel(config).train(synopses(make_script(spec, seed, training=True)))
    script = make_script(spec, seed)
    print(f"{'records/frame':>13} {'records ns/task':>16} {'vector ns/task':>15}")
    batches = {size: frames(script, size) for size in SIZES}
    best = {(size, route): float("inf") for size in SIZES for route in ROUTES}
    for _ in range(REPEATS):
        for size, batch in batches.items():
            for route, floor in ROUTES.items():
                detector_module._VECTOR_MIN_RECORDS = floor
                detector = AnomalyDetector(model, config)
                detector.compiled_model()
                observe_batch = detector.observe_batch
                began = time.perf_counter()
                for frame in batch:
                    observe_batch(frame)
                cost = (time.perf_counter() - began) / TASKS * 1e9
                best[size, route] = min(best[size, route], cost)
    for size in SIZES:
        print(f"{size:>13} {best[size, 'records']:>16.0f} {best[size, 'vector']:>15.0f}")

if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
