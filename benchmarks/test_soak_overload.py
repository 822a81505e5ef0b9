"""Ingest-edge soak: 2x sustained overload through the loopback server.

The overload machinery (DESIGN.md §15) promises two things under
sustained overload: *bounded memory* — the ingest backlog parks at the
shed watermark instead of growing with offered load — and *monotone
goodput* — the sink keeps receiving frames at its capacity, with the
excess shed from the head-sampled priority class first.

This soak turns that promise into assertions.  The sink is
capacity-paced (a fixed asyncio service time per frame, modeling an
analyzer that can absorb C frames/sec).  Leg one offers ~1x capacity
from a single paced client; leg two offers ~2x from two clients pacing
at the same per-client rate, every 20th frame flagged exemplar-bearing.
Throughout leg two a monitor samples the server's pending-bytes gauge
and the cumulative delivery count.  The assertions:

* offered load in leg two really is ~2x leg one,
* goodput at 2x stays within 10% of the un-overloaded rate,
* peak backlog stays bounded by the shed watermark (plus one in-flight
  frame of slack — admission happens *below* the mark),
* every drop comes out of the sampled class; exemplar frames survive,
* goodput is monotone: no monitor window goes by without deliveries.

A third leg repeats the 2x overload with telemetry federation on: each
client carries its own registry and piggybacks ``TELEMETRY`` snapshots
on the data stream (docs/OPERATIONS.md §9.1), the server absorbing
them under ``node=`` labels.  The leg asserts the federation really
ran (pushes sent, snapshots absorbed, node-labeled series visible in
the server registry) and that it costs **under 2% goodput** against
the plain overload leg.

The soak writes no file: its record is the bounds it asserts.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_soak_overload.py -q
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import List

import pytest

from repro.core import TaskSynopsis
from repro.core.synopsis import encode_frame
from repro.shard import (
    PRIORITY_EXEMPLAR,
    PRIORITY_SAMPLED,
    FrameClient,
    LoadShedder,
    SynopsisServer,
)
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.slow

#: Modeled analyzer capacity: the sink's service time per frame.
SERVICE_S = 1.5e-3

#: Per-client send pacing — one frame per service time, i.e. each
#: client offers ~1x capacity.
PACE_S = SERVICE_S

#: Frames each client offers per leg.
FRAMES_PER_CLIENT = 1200

#: Synopses per frame (frame size ~2.5 KiB).
FRAME_TASKS = 64

#: Every Nth frame is exemplar-bearing (novel-signature evidence).
EXEMPLAR_EVERY = 20

#: Shed watermark: where sampled frames start being dropped.  Far below
#: the credit window and high watermark, so shedding — not backpressure
#: — is the relief valve and offered load stays sustained.
SHED_WATERMARK = 64 * 1024
HARD_WATERMARK = 512 * 1024

#: Acceptance guardrail: goodput at 2x offered load must stay within
#: this fraction of the un-overloaded rate.
MIN_GOODPUT_RATIO = 0.9

#: Monitor cadence and the stall bound for the monotone-goodput check.
MONITOR_S = 0.05
MAX_STALL_S = 1.0

#: Telemetry piggyback cadence in the federated leg — several pushes
#: per client over the ~2 s soak, frequent enough to measure the cost.
TELEMETRY_INTERVAL_S = 0.25

#: Acceptance guardrail: the federated leg's goodput loss vs the plain
#: overload leg.
MAX_FEDERATION_OVERHEAD_PCT = 2.0


def _make_frames(n: int, seed: int) -> List[bytes]:
    """``n`` wire frames of FRAME_TASKS synthetic synopses each."""
    rng = random.Random(seed)
    frames = []
    uid = 0
    for _ in range(n):
        batch = []
        for _ in range(FRAME_TASKS):
            stage = rng.randrange(6)
            base = stage * 10
            batch.append(
                TaskSynopsis(
                    host_id=uid % 2,
                    stage_id=stage,
                    uid=uid,
                    start_time=uid * 0.01,
                    duration=0.01 * rng.lognormvariate(0.0, 0.3),
                    log_points={base: 1, base + 1: 1, base + 3: 2},
                )
            )
            uid += 1
        frames.append(encode_frame(batch))
    return frames


def _run_leg(n_clients: int, seed: int, federated: bool = False) -> dict:
    """One soak leg: ``n_clients`` paced senders against the paced sink.

    With ``federated`` each client carries a private registry and
    piggybacks TELEMETRY snapshots of it every
    ``TELEMETRY_INTERVAL_S``; the server absorbs them under ``node=``
    labels.  Returns offered/goodput rates, backlog peaks, drop
    accounting, and the monitor's progress samples.
    """
    registry = MetricsRegistry()
    delivered = [0]

    async def sink(frame):
        await asyncio.sleep(SERVICE_S)
        delivered[0] += 1

    shedder = LoadShedder(SHED_WATERMARK, HARD_WATERMARK, registry=registry)
    server = SynopsisServer(
        sink,
        registry=registry,
        credit_window=1 << 20,
        high_watermark=1 << 22,  # reads never pause: shedding is the valve
        shedder=shedder,
        federation=registry.federation() if federated else None,
    )
    frame_sets = [
        _make_frames(FRAMES_PER_CLIENT, seed + i) for i in range(n_clients)
    ]
    frame_bytes = len(frame_sets[0][0])
    peak_pending = [0]
    samples: List[dict] = []
    client_registries = [MetricsRegistry() for _ in range(n_clients)]
    with server:
        if federated:
            clients = [
                FrameClient(
                    server.address,
                    registry=client_registries[i],
                    node=f"sender-{i + 1}",
                    telemetry_source=client_registries[i],
                    telemetry_interval_s=TELEMETRY_INTERVAL_S,
                )
                for i in range(n_clients)
            ]
        else:
            clients = [
                FrameClient(server.address, registry=registry)
                for _ in range(n_clients)
            ]

        def send_paced(client, frames):
            for i, frame in enumerate(frames):
                priority = (
                    PRIORITY_EXEMPLAR
                    if i % EXEMPLAR_EVERY == 0
                    else PRIORITY_SAMPLED
                )
                client.send(frame, priority=priority)
                time.sleep(PACE_S)

        started = time.perf_counter()
        senders = [
            threading.Thread(target=send_paced, args=(c, f), daemon=True)
            for c, f in zip(clients, frame_sets)
        ]
        for sender in senders:
            sender.start()
        while any(sender.is_alive() for sender in senders):
            peak_pending[0] = max(peak_pending[0], server.pending_bytes)
            samples.append(
                {
                    "t": time.perf_counter() - started,
                    "delivered": delivered[0],
                    "pending_bytes": server.pending_bytes,
                }
            )
            time.sleep(MONITOR_S)
        offered_seconds = time.perf_counter() - started
        # Senders are done: the drop count is final; drain the tail.
        sent = n_clients * FRAMES_PER_CLIENT
        admitted = sent - sum(shedder.drops().values())
        deadline = time.monotonic() + 30.0
        while delivered[0] < admitted:
            peak_pending[0] = max(peak_pending[0], server.pending_bytes)
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"tail never drained: {delivered[0]}/{admitted}"
                )
            time.sleep(MONITOR_S)
        goodput_seconds = time.perf_counter() - started
        for client in clients:
            client.close()
    leg = {
        "clients": n_clients,
        "frames_sent": sent,
        "frame_bytes": frame_bytes,
        "offered_frames_per_sec": sent / offered_seconds,
        "delivered_frames": delivered[0],
        "goodput_frames_per_sec": delivered[0] / goodput_seconds,
        "peak_pending_bytes": peak_pending[0],
        "drops": shedder.drops(),
        "samples": samples,
    }
    if federated:
        leg["telemetry_pushes"] = sum(
            _counter_total(r, "client_telemetry_pushes")
            for r in client_registries
        )
        leg["snapshots_absorbed"] = _counter_total(
            registry, "server_telemetry_snapshots"
        )
        leg["federated_nodes"] = sorted(
            {
                sample.get("labels", {}).get("node")
                for family in registry.collect()
                for sample in family["samples"]
                if sample.get("labels", {}).get("node")
            }
        )
    return leg


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    """Sum of a family's sample values across all label sets (0 if absent)."""
    for family in registry.collect():
        if family["name"] == name:
            return sum(s["value"] for s in family["samples"])
    return 0.0


def test_soak_2x_overload_bounded_and_monotone():
    baseline = _run_leg(1, seed=101)
    overload = _run_leg(2, seed=202)
    federated = _run_leg(2, seed=202, federated=True)

    # Scheduler jitter moves a single paced leg's goodput by ~±2.5%, so
    # the overhead comparison keeps the best of 3 alternating runs per
    # leg.
    best_plain = overload["goodput_frames_per_sec"]
    best_federated = federated["goodput_frames_per_sec"]
    for _ in range(2):
        best_plain = max(
            best_plain, _run_leg(2, seed=202)["goodput_frames_per_sec"]
        )
        best_federated = max(
            best_federated,
            _run_leg(2, seed=202, federated=True)["goodput_frames_per_sec"],
        )

    offered_ratio = (
        overload["offered_frames_per_sec"] / baseline["offered_frames_per_sec"]
    )
    goodput_ratio = (
        overload["goodput_frames_per_sec"] / baseline["goodput_frames_per_sec"]
    )

    # The second leg really is ~2x sustained offered load.
    assert 1.6 <= offered_ratio <= 2.4, f"offered ratio {offered_ratio:.2f}"

    # Bounded memory: backlog parks at the shed watermark.  Admission
    # happens strictly below the mark, so the peak can overshoot by at
    # most the frames in flight at that instant (one per client).
    slack = (overload["clients"] + 1) * overload["frame_bytes"]
    assert overload["peak_pending_bytes"] <= SHED_WATERMARK + slack, (
        f"peak backlog {overload['peak_pending_bytes']} above shed "
        f"watermark {SHED_WATERMARK} (+{slack} slack)"
    )

    # Monotone goodput: no monitor window without deliveries.
    last_t, last_n = 0.0, 0
    worst_stall = 0.0
    for sample in overload["samples"]:
        if sample["delivered"] > last_n:
            last_t, last_n = sample["t"], sample["delivered"]
        else:
            worst_stall = max(worst_stall, sample["t"] - last_t)
    assert worst_stall <= MAX_STALL_S, f"goodput stalled {worst_stall:.2f}s"

    # Goodput within 10% of the un-overloaded rate.
    assert goodput_ratio >= MIN_GOODPUT_RATIO, (
        f"goodput ratio {goodput_ratio:.3f} below {MIN_GOODPUT_RATIO} "
        f"(overload {overload['goodput_frames_per_sec']:.0f} f/s vs "
        f"baseline {baseline['goodput_frames_per_sec']:.0f} f/s)"
    )

    # The shed came out of the sampled class; anomaly evidence survived.
    assert overload["drops"]["sampled"] > 0
    assert overload["drops"]["exemplar"] == 0

    # The federated leg really federated: clients pushed snapshots, the
    # server absorbed them, and their series landed under node= labels.
    assert federated["telemetry_pushes"] > 0
    assert federated["snapshots_absorbed"] > 0
    assert federated["federated_nodes"] == ["sender-1", "sender-2"]

    # ...and piggybacked telemetry costs under 2% goodput at 2x load.
    federation_overhead_pct = 100.0 * (1.0 - best_federated / best_plain)
    assert federation_overhead_pct < MAX_FEDERATION_OVERHEAD_PCT, (
        f"federation overhead {federation_overhead_pct:.2f}% "
        f"(federated {best_federated:.0f} f/s vs plain {best_plain:.0f} f/s, "
        f"best of 3 each)"
    )
