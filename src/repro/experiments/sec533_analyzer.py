"""Sec. 5.3.3 — statistical analyzer overhead vs offline text mining.

The paper's comparison: a MapReduce job reverse-matching one hour of
Cassandra DEBUG logs (11.9 M messages) needed ~12 minutes on 8 dedicated
cores, while SAAD handles the equivalent synopsis stream in real time on
one core (>= 1500 synopses/s; model construction ~60 s/host for 5.5 M
synopses).

We generate a DEBUG corpus + synopsis stream from the same Cassandra
run, then measure wall-clock time of (a) regex reverse-matching the
corpus (the map phase of the mining job) and (b) SAAD's full analyzer
path (classification + windowed tests) over the synopses, plus model
build time and analyzer throughput.  Shape target: text mining is
orders of magnitude more expensive per task than the analyzer.

The run executes with tracing enabled and injects a burst of
never-trained tasks (a novel log point inside the ``LogRecordAdder``
stage) late in the run: the detector flags the window as a flow anomaly
and pins the injected tasks' traces as exemplars.  ``main()`` writes
them to ``TRACE_sec533.json`` (Chrome trace-event JSON — load it at
https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.baseline import ReverseMatcher, extract_fields
from repro.cassandra import CassandraCluster, ClientOp
from repro.core import AnomalyDetector, OutlierModel, SAADConfig
from repro.loglib import DEBUG, WARN, MemoryAppender
from repro.simsys import SimThread
from repro.tracing import chrome_trace
from repro.ycsb import ClientPool, write_heavy


@dataclass
class Sec533Params:
    run_s: float = 240.0
    n_clients: int = 8
    seed: int = 42
    corpus_repeat: int = 1  # replicate the corpus to stress the miner
    #: Inject a novel-signature burst late in the run so the detection
    #: leg produces a flow anomaly with pinned exemplar traces.
    inject_anomaly: bool = True
    inject_at_frac: float = 0.9  # fraction of run_s (keeps it in the detect half)
    inject_tasks: int = 4

    @classmethod
    def quick(cls) -> "Sec533Params":
        return cls(run_s=150.0)


@dataclass
class Sec533Result:
    corpus_lines: int
    synopsis_count: int
    textmining_wall_s: float
    textmining_lines_per_s: float
    analyzer_wall_s: float
    analyzer_synopses_per_s: float
    model_build_wall_s: float
    matched_fraction: float
    #: Telemetry snapshot (collected family dicts) of the deployment,
    #: including the train_* / detector_* series of the timed legs.
    telemetry: List[dict] = field(default_factory=list)
    #: Anomaly events from the detection leg (the injected burst shows
    #: up as a flow anomaly carrying pinned exemplar traces).
    anomalies: List = field(default_factory=list)
    #: Chrome trace-event document holding the exemplar traces; written
    #: to ``TRACE_sec533.json`` by :func:`main`.
    trace_export: dict = field(default_factory=dict)

    @property
    def exemplar_count(self) -> int:
        """Pinned exemplar traces across all anomaly events (deduped)."""
        seen = set()
        for event in self.anomalies:
            for trace in event.exemplars:
                seen.add(trace.key)
        return len(seen)

    @property
    def per_task_cost_ratio(self) -> float:
        """Text-mining seconds per log line vs analyzer seconds per synopsis."""
        mining_cost = self.textmining_wall_s / max(self.corpus_lines, 1)
        analyzer_cost = self.analyzer_wall_s / max(self.synopsis_count, 1)
        return mining_cost * 25 / max(analyzer_cost, 1e-12)  # ~25 lines/task


def _inject_novel_burst(cluster: CassandraCluster, params: Sec533Params):
    """Arm a sim thread that runs a few never-trained tasks late in the run.

    Each injected task executes inside the ``LogRecordAdder`` stage on
    one node but visits a log point no training task ever produced, so
    its signature is novel — the detection leg must flag the window as a
    flow anomaly and (tracing being on) pin the injected traces.
    """
    saad = cluster.saad
    novel = saad.logpoints.register(
        "injected commitlog stall marker {}",
        level=WARN,
        logger_name="o.a.c.db.commitlog.CommitLog",
    )
    runtime = next(iter(saad.nodes.values()))
    log = runtime.logger("o.a.c.db.commitlog.CommitLog")
    lps = cluster.lps

    def body():
        yield cluster.env.timeout(params.inject_at_frac * params.run_s)
        for i in range(params.inject_tasks):
            runtime.set_context("LogRecordAdder")
            try:
                log.debug(lps.wal_add.template, lpid=lps.wal_add.lpid)
                yield cluster.env.timeout(0.02)  # stall: the injected defect
                log.warn(
                    "injected commitlog stall marker {}", i, lpid=novel.lpid
                )
                yield cluster.env.timeout(0.03)
                log.debug(lps.wal_added.template, lpid=lps.wal_added.lpid)
            finally:
                runtime.end_task()
            yield cluster.env.timeout(0.2)

    SimThread(cluster.env, target=body(), name="sec533-injector")
    return novel


def run_sec533(params: Optional[Sec533Params] = None) -> Sec533Result:
    params = params or Sec533Params()

    # One Cassandra run produces both artifacts.  Tracing is on so the
    # injected anomaly comes back with exemplar span timelines.
    cluster = CassandraCluster(
        n_nodes=4, seed=params.seed, log_level=DEBUG, tracing=True
    )
    corpus_appender = MemoryAppender()
    for node in cluster.saad.nodes.values():
        node.repository.add_appender(corpus_appender)
    ClientPool(
        cluster.env,
        write_heavy(record_count=4000),
        lambda node, op: cluster.nodes[node].client_request(
            ClientOp(op.kind, op.key, value="v", nbytes=op.value_bytes)
        ),
        cluster.ring.node_names,
        n_clients=params.n_clients,
        think_time_s=0.04,
        seed=params.seed + 1,
    )
    if params.inject_anomaly:
        _inject_novel_burst(cluster, params)
    cluster.run(until=params.run_s)
    corpus = corpus_appender.lines * params.corpus_repeat
    synopses = cluster.saad.collector.synopses

    # (a) Conventional mining: reverse-match every line to its template.
    matcher = ReverseMatcher(cluster.saad.logpoints)
    started = time.perf_counter()
    matched = 0
    for line in corpus:
        fields = extract_fields(line)
        if fields is None:
            continue
        if matcher.match(fields["msg"]) is not None:
            matched += 1
    textmining_wall = time.perf_counter() - started

    # (b) SAAD: model build + full streaming analysis of the synopses.
    config = SAADConfig(window_s=60.0)
    registry = cluster.saad.registry
    half = len(synopses) // 2
    started = time.perf_counter()
    model = OutlierModel(config, registry=registry).train(synopses[:half])
    model_build_wall = time.perf_counter() - started

    detector = AnomalyDetector(
        model, config, registry=registry, tracer=cluster.saad.tracer
    )
    started = time.perf_counter()
    for synopsis in synopses[half:]:
        detector.observe(synopsis)
    detector.flush()
    analyzer_wall = time.perf_counter() - started
    analyzed = len(synopses) - half

    saad = cluster.saad
    trace_export = chrome_trace(
        saad.tracer.pinned_traces(),
        stage_names={stage.stage_id: stage.name for stage in saad.stages},
        host_names=saad.host_names,
        templates={point.lpid: point.template for point in saad.logpoints},
    )

    return Sec533Result(
        corpus_lines=len(corpus),
        synopsis_count=analyzed,
        textmining_wall_s=textmining_wall,
        textmining_lines_per_s=len(corpus) / max(textmining_wall, 1e-9),
        analyzer_wall_s=analyzer_wall,
        analyzer_synopses_per_s=analyzed / max(analyzer_wall, 1e-9),
        model_build_wall_s=model_build_wall,
        matched_fraction=matched / max(len(corpus), 1),
        telemetry=registry.collect(),
        anomalies=list(detector.anomalies),
        trace_export=trace_export,
    )


def main() -> None:
    from repro.telemetry import write_jsonl

    result = run_sec533()
    write_jsonl(result.telemetry, "TELEMETRY_sec533.jsonl")
    with open("TRACE_sec533.json", "w", encoding="utf-8") as handle:
        json.dump(result.trace_export, handle, indent=1)
        handle.write("\n")
    print("Sec 5.3.3: analyzer overhead")
    print(f"  corpus: {result.corpus_lines} DEBUG lines "
          f"(matched {result.matched_fraction:.1%})")
    print(f"  text mining: {result.textmining_wall_s:.2f}s "
          f"({result.textmining_lines_per_s:,.0f} lines/s)")
    print(f"  SAAD analyzer: {result.analyzer_wall_s:.2f}s for "
          f"{result.synopsis_count} synopses "
          f"({result.analyzer_synopses_per_s:,.0f}/s)")
    print(f"  model build: {result.model_build_wall_s:.2f}s")
    print(f"  per-task cost ratio (mining/SAAD): "
          f"{result.per_task_cost_ratio:.0f}x")
    print(f"  anomalies: {len(result.anomalies)} events, "
          f"{result.exemplar_count} exemplar trace(s) pinned")
    print("  telemetry: snapshot appended to TELEMETRY_sec533.jsonl")
    print("  traces: exemplars written to TRACE_sec533.json "
          "(open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
