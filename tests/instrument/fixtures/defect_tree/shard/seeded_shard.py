"""Seeded CP001 defect: shard-package detector misuse.

Planted defect (the line number is asserted in test_lint.py):

* line 13 — per-task ``detector.observe(...)`` loop (CP001)

The batch replay below must stay quiet.
"""


def replay_per_task(detector, trace):
    for synopsis in trace:
        detector.observe(synopsis)
    return detector.flush()


def replay_batched(detector, blob):
    return detector.observe_batch(blob)
