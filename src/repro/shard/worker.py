"""The shard worker process: decode-free detection over wire frames.

Each worker owns one :class:`~repro.core.detector.AnomalyDetector` (built
through :func:`repro.shard.factory.shard_detector`), its own process-local
signature interning table, and its own telemetry registry.  The parent
coordinator ships work as length-prefixed wire frames; the worker ingests
each blob through the detector's columnar :meth:`observe_batch` path
(DESIGN §13) and ships back anomaly events, telemetry snapshots, and
busy-time accounting.

Everything here is **spawn-safe**: :func:`worker_main` is a module-level
function, its :class:`WorkerInit` argument is a plain picklable
dataclass, and the trained model travels as the persistence-format JSON
payload (:func:`repro.core.persistence.broadcast_model`), so the pool
works identically under the ``fork``, ``spawn``, and ``forkserver``
start methods.

Protocol (one duplex pipe per worker)::

    parent -> worker   ("frames", bytes)   one or more wire frames
                       ("flush",)          close open windows, snapshot
                       ("close",)          flush, report, exit
    worker -> parent   ("events", [AnomalyEvent, ...])
                       ("snapshot", shard_id, stats, registry_snapshot)
                       ("done", shard_id, stats, registry_snapshot)
                       ("error", shard_id, traceback_text)

Anomaly events cross the process boundary with their ``exemplars`` field
holding **trace keys** (the :class:`KeyPinner` stand-in), which the
coordinator resolves against the deployment's real tracer — traces are
captured node-side and never shipped to workers.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Tuple

from repro.core.persistence import receive_model
from repro.telemetry import MetricsRegistry

from .factory import shard_detector


class KeyPinner:
    """Tracer stand-in inside workers: ``pin`` echoes the trace key.

    The real trace ring lives in the coordinator's process (traces are
    captured by node-side trackers), so a worker cannot resolve a
    ``(host_id, uid)`` key to a :class:`~repro.tracing.TaskTrace`.
    Advertising ``enabled`` makes the detector track exemplar candidates
    per window; echoing the key from ``pin`` makes emitted events carry
    the keys, which the coordinator swaps for pinned traces on merge.
    """

    enabled = True

    def pin(self, key: Tuple[int, int]) -> Tuple[int, int]:
        """Echo ``key`` so it rides the event back to the coordinator."""
        return key


@dataclass
class WorkerInit:
    """Picklable start-up payload for one shard worker.

    Attributes
    ----------
    shard_id:
        This worker's index in the pool.
    model_payload:
        The trained model in persistence-format JSON
        (:func:`~repro.core.persistence.broadcast_model`).
    lateness_s:
        Event-time lateness forwarded to the detector.
    exemplars_per_window:
        Exemplar cap forwarded to the detector.
    tracing:
        When True the detector runs with a :class:`KeyPinner` so events
        carry exemplar trace keys; otherwise exemplar tracking is off.
    """

    shard_id: int
    model_payload: str
    lateness_s: float = 0.0
    exemplars_per_window: int = 3
    tracing: bool = False


def _stats(detector, busy_seconds: float) -> dict:
    """The compact per-shard accounting shipped with every snapshot."""
    return {
        "tasks": detector.tasks_seen,
        "windows_closed": detector.windows_closed,
        "anomalies": len(detector.anomalies),
        "busy_seconds": busy_seconds,
    }


def worker_main(conn, init: WorkerInit) -> None:
    """Run one shard worker until the parent sends ``("close",)``.

    ``conn`` is the worker end of a ``multiprocessing.Pipe``.  Busy time
    is accounted with ``time.process_time`` — CPU seconds actually spent
    in this process — so the pipeline-throughput model stays honest even
    when workers time-share cores.
    """
    try:
        registry = MetricsRegistry()
        detector = shard_detector(
            receive_model(init.model_payload, registry=registry),
            shard_id=init.shard_id,
            lateness_s=init.lateness_s,
            registry=registry,
            tracer=KeyPinner() if init.tracing else None,
            exemplars_per_window=init.exemplars_per_window,
        )
        base_cpu = time.process_time()
        observe_batch = detector.observe_batch
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "frames":
                # One "frames" payload is concatenated wire frames — the
                # columnar batch path ingests the whole blob in one call
                # (through its per-record loop when tracing is on).
                events = observe_batch(message[1])
                if events:
                    conn.send(("events", events))
            elif kind == "flush":
                events = detector.flush()
                if events:
                    conn.send(("events", events))
                busy = time.process_time() - base_cpu
                conn.send(
                    ("snapshot", init.shard_id, _stats(detector, busy), registry.collect())
                )
            elif kind == "close":
                events = detector.flush()
                if events:
                    conn.send(("events", events))
                busy = time.process_time() - base_cpu
                conn.send(
                    ("done", init.shard_id, _stats(detector, busy), registry.collect())
                )
                break
            else:
                raise ValueError(f"unknown worker message {kind!r}")
    except (EOFError, KeyboardInterrupt):
        pass
    except BaseException:
        try:
            conn.send(("error", init.shard_id, traceback.format_exc()))
        except (OSError, ValueError, BrokenPipeError):
            pass
    finally:
        conn.close()
