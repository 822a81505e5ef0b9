"""The open-loop load generator of ``ingest_paced`` (its own process).

One thread, one :class:`~repro.shard.FrameClient` connection per pass, a
send schedule on ``time.monotonic`` that never waits for the analyzer's
Python (only the protocol's own credit window can hold a send back, and
that is counted).  Speaks to the measuring process over its pipes:

stdin
    one JSON line ``{"sizes", "per_frame"}``, then a ``<Q`` length and
    the concatenated frames — once.  Then, per pass, one JSON line
    ``{"address", "first", "phases"}`` followed by one ``go`` line per
    phase.  A phase is ``[tasks_per_s, frames]``; rate 0 sends back to
    back.  End of input ends the process.
stdout
    per pass ``ready`` once connected, then one JSON report per phase,
    written when every frame of the phase has been acked — the server
    acks a frame only after its sink returned for it.
"""

from __future__ import annotations

import json
import struct
import sys
import time

from . import counter_total  # also puts src/ on the path

from repro.shard import FrameClient
from repro.telemetry import MetricsRegistry

#: Head start of a paced phase, so the first frame is not already late.
LEAD_S = 0.05


def run_phase(client, frames, rate, per_frame, stalls) -> dict:
    """Send ``frames`` at ``rate`` tasks/s; the phase's report."""
    interval = per_frame / rate if rate else 0.0
    first_due = time.monotonic() + LEAD_S
    due, late_ms = [], []
    send_s = 0.0
    bytes_before, stalls_before = client.bytes_sent, stalls()
    for number, frame in enumerate(frames):
        at = first_due + number * interval if rate else time.monotonic()
        wait = at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        began = time.monotonic()
        client.send(frame)
        send_s += time.monotonic() - began
        due.append(at)
        late_ms.append((began - at) * 1e3)
    backlog = client.seq - client.acked
    client.wait_acked(timeout=60.0)
    return {
        "frames": len(frames),
        "due": due,
        "late_ms": late_ms,
        "send_s": send_s,
        "bytes_sent": client.bytes_sent - bytes_before,
        "credit_stalls": stalls() - stalls_before,
        "backlog_end_frames": backlog,
    }


def main() -> int:
    stdin = sys.stdin.buffer
    plan = json.loads(stdin.readline())
    (length,) = struct.unpack("<Q", stdin.read(8))
    blob = stdin.read(length)
    frames, at = [], 0
    for size in plan["sizes"]:
        frames.append(blob[at : at + size])
        at += size
    del blob
    registry = MetricsRegistry()

    def stalls() -> float:
        return counter_total(registry, "client_credit_stalls")

    for line in iter(stdin.readline, b""):
        one_pass = json.loads(line)
        sent = one_pass["first"]
        with FrameClient(tuple(one_pass["address"]), timeout=60.0, registry=registry) as client:
            print("ready", flush=True)
            for rate, count in one_pass["phases"]:
                if stdin.readline().strip() != b"go":
                    return 1
                report = run_phase(
                    client, frames[sent : sent + count], rate, plan["per_frame"], stalls
                )
                sent += count
                print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
