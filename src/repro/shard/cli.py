"""Command-line front ends for the sharded analyzer.

``python -m repro shard``
    Demonstrate stage-sharded detection on a synthetic workload: print
    the stage -> shard partition map, run the same trace through a
    single-process detector and an N-shard pool, and report per-shard
    accounting plus the event-set equivalence check.

``python -m repro serve``
    Run a TCP synopsis ingest endpoint.  Without a model it is a pure
    collection endpoint (frames in, accounting out); with ``--model``
    (a file written by :func:`repro.core.persistence.save_model`) every
    ingested frame is routed straight into a sharded analyzer and the
    merged anomaly events are printed at shutdown.
"""

from __future__ import annotations

import argparse
import time
from typing import Optional

__all__ = ["main", "serve"]


def main(argv) -> int:
    """Entry for ``python -m repro shard``."""
    from repro.core import SAAD, OutlierModel, SAADConfig
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.demo import demo_trace

    from .coordinator import ShardedAnalyzer

    parser = argparse.ArgumentParser(
        prog="python -m repro shard",
        description="stage-sharded parallel detection demo",
    )
    parser.add_argument("--shards", type=int, default=4, metavar="N")
    parser.add_argument("--tasks", type=int, default=30_000, metavar="M")
    args = parser.parse_args(argv)

    config = SAADConfig(window_s=60.0, min_window_tasks=8)
    model = OutlierModel(config).train(demo_trace(max(args.tasks // 3, 3000)))
    trace = demo_trace(args.tasks, anomalous=True)

    started = time.perf_counter()
    saad = SAAD(config)
    saad.model = model
    single = saad.detect(trace)
    single_s = time.perf_counter() - started

    registry = MetricsRegistry()
    started = time.perf_counter()
    with ShardedAnalyzer(model, args.shards, registry=registry) as pool:
        print(f"partition map ({args.shards} shards):")
        for stage in sorted({synopsis.stage_id for synopsis in trace}):
            print(f"  stage {stage:>3} -> shard {pool.shard_of(stage)}")
        pool.dispatch(trace)
        pool.close()
        sharded_s = time.perf_counter() - started
        print(f"\nsingle process : {len(single)} events in {single_s:.2f}s")
        print(f"{args.shards} shards       : {len(pool.anomalies)} events in {sharded_s:.2f}s")
        for shard_id, stats in sorted(pool.worker_stats.items()):
            print(
                f"  shard {shard_id}: {stats['tasks']} tasks, "
                f"{stats['windows_closed']} windows, "
                f"{stats['busy_seconds']:.2f}s busy"
            )
        matches = single == pool.anomalies
    print(f"event sets identical: {matches}")
    return 0 if matches else 1


def serve(argv) -> int:
    """Entry for ``python -m repro serve``."""
    from repro.core.stream import SynopsisCollector
    from repro.telemetry import MetricsRegistry

    from .coordinator import ShardedAnalyzer
    from .server import SynopsisServer
    from .shedding import LoadShedder

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="TCP synopsis ingest endpoint",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--model", metavar="FILE", help="trained model JSON (enables detection)"
    )
    parser.add_argument("--shards", type=int, default=1, metavar="N")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve this long then exit (default: until Ctrl-C)",
    )
    parser.add_argument(
        "--credit-window",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-connection in-flight byte credit (default 256 KiB)",
    )
    parser.add_argument(
        "--high-watermark",
        type=int,
        default=None,
        metavar="BYTES",
        help="backlog at which connection reads pause (default 4 MiB)",
    )
    parser.add_argument(
        "--low-watermark",
        type=int,
        default=None,
        metavar="BYTES",
        help="backlog at which paused reads resume (default high/2)",
    )
    parser.add_argument(
        "--shed-watermark",
        type=int,
        default=None,
        metavar="BYTES",
        help="backlog at which head-sampled frames are shed "
        "(default: no shedding, backpressure only)",
    )
    parser.add_argument(
        "--hard-watermark",
        type=int,
        default=None,
        metavar="BYTES",
        help="backlog at which exemplar-bearing frames are shed too "
        "(default: 2x the shed watermark)",
    )
    args = parser.parse_args(argv)
    if args.hard_watermark is not None and args.shed_watermark is None:
        parser.error("--hard-watermark requires --shed-watermark")

    registry = MetricsRegistry()
    analyzer: Optional[ShardedAnalyzer] = None
    collector = SynopsisCollector(retain=False, registry=registry)
    if args.model:
        from repro.core.persistence import load_model

        model = load_model(args.model, registry=registry)
        analyzer = ShardedAnalyzer(model, args.shards, registry=registry)
        sink = analyzer.dispatch_frame
    else:
        sink = collector.feed

    shedder = None
    if args.shed_watermark is not None:
        shedder = LoadShedder(
            args.shed_watermark, args.hard_watermark, registry=registry
        )
    server = SynopsisServer(
        sink,
        host=args.host,
        port=args.port,
        registry=registry,
        credit_window=args.credit_window,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        shedder=shedder,
    )
    host, port = server.start()
    mode = f"detecting with {args.shards} shard(s)" if analyzer else "collecting"
    print(f"listening on {host}:{port} ({mode}); Ctrl-C to stop")
    try:
        if args.duration is None:
            while True:
                time.sleep(3600)
        else:
            time.sleep(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if analyzer is not None:
            events = analyzer.close()
            print(f"\n{len(analyzer.anomalies)} anomaly events merged")
            for event in events:
                print(
                    f"  {event.kind} host={event.host_id} stage={event.stage_id} "
                    f"window=[{event.window_start:.0f}, {event.window_end:.0f}) "
                    f"outliers={event.outliers}/{event.n}"
                )
        else:
            print(
                f"\n{collector.count} synopses in {collector.frames_received} "
                f"frames ({collector.bytes_received} bytes)"
            )
    return 0
