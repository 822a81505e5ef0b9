"""Command-line front end for the gossip-coordinated analyzer fleet.

``python -m repro fleet status``
    Stand up a loopback fleet, run gossip to convergence, and print the
    coordinator's membership table plus the ring's stage ownership.

``python -m repro fleet join``
    The elastic-resharding drill: detect a synthetic workload on an
    N-node fleet while a node joins mid-stream (and, with ``--kill``,
    another dies), then check the merged event feed against a
    single-process detector — the DESIGN.md §16 exactness argument,
    live.
"""

from __future__ import annotations

import argparse
import time

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="gossip-coordinated analyzer fleet drills",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser("status", help="membership + ring ownership")
    status.add_argument("--nodes", type=int, default=3, metavar="N")
    status.add_argument("--rounds", type=int, default=8, metavar="R")

    join = sub.add_parser("join", help="mid-stream join/kill reshard drill")
    join.add_argument("--nodes", type=int, default=3, metavar="N")
    join.add_argument("--tasks", type=int, default=30_000, metavar="M")
    join.add_argument(
        "--kill", action="store_true", help="also crash a node mid-stream"
    )
    return parser


def _demo_model(training_tasks: int):
    """A model trained on the fault-free demo trace."""
    from repro.core import OutlierModel, SAADConfig
    from repro.telemetry.demo import demo_trace

    config = SAADConfig(window_s=60.0, min_window_tasks=8)
    return OutlierModel(config).train(demo_trace(training_tasks))


def _status(args) -> int:
    from .node import AnalyzerFleet

    model = _demo_model(3000)
    with AnalyzerFleet(model, args.nodes) as fleet:
        fleet.step_gossip(args.rounds)
        print(f"membership ({args.rounds} gossip rounds, coordinator view):")
        for member in sorted(
            fleet.membership.members.values(), key=lambda m: m.node_id
        ):
            print(
                f"  {member.node_id:<14} {member.state:<8} "
                f"incarnation={member.incarnation} heartbeat={member.heartbeat}"
            )
        ring = fleet.router.ring
        print(f"\nring version {ring.version} ({ring.vnodes} vnodes/node):")
        for node_id, owned in sorted(ring.ownership().items()):
            print(f"  {node_id:<14} owns {owned:>3}/256 stage bytes")
    return 0


def _join(args) -> int:
    from repro.core import AnomalyDetector
    from repro.shard.coordinator import EVENT_ORDER
    from repro.telemetry.demo import demo_trace

    from .node import AnalyzerFleet

    model = _demo_model(max(args.tasks // 3, 3000))
    trace = demo_trace(args.tasks, anomalous=True)

    # Coordinator-side reference run, not a fleet node's detector.
    single = AnomalyDetector(model)  # saadlint: disable=SH001
    for synopsis in trace:
        single.observe(synopsis)  # saadlint: disable=CP001
    single.flush()
    expected = sorted(single.anomalies, key=EVENT_ORDER)

    third = len(trace) // 3
    started = time.perf_counter()
    with AnalyzerFleet(model, args.nodes) as fleet:
        fleet.dispatch(trace[:third])
        before = list(fleet.router.ring.table())
        fleet.join(f"node-{args.nodes}")
        moved = len(fleet.router.ring.moved(before, fleet.router.ring.table()))
        print(
            f"joined node-{args.nodes}: {moved}/256 stage bytes moved "
            f"(~1/N would be {256 // (args.nodes + 1)})"
        )
        fleet.dispatch(trace[third : 2 * third])
        if args.kill:
            victim = f"node-{args.nodes - 1}"
            fleet.kill(victim)
            print(f"killed {victim}: retained tails replayed to new owners")
        fleet.dispatch(trace[2 * third :])
        events = fleet.close()
    elapsed = time.perf_counter() - started

    print(f"\nsingle process : {len(expected)} events")
    print(f"fleet          : {len(events)} events in {elapsed:.2f}s")
    matches = events == expected
    print(f"event sets identical: {matches}")
    return 0 if matches else 1


def main(argv) -> int:
    """Entry for ``python -m repro fleet``."""
    args = _parser().parse_args(argv)
    if args.command == "status":
        return _status(args)
    return _join(args)
