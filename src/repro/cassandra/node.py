"""A simulated Cassandra node (version 0.8 semantics where it matters).

The node reproduces the staged architecture and the failure-propagation
behaviour the paper's Sec. 5.4 experiments rely on:

* **Write path**: CassandraDaemon (thrift intake) → StorageProxy
  (coordination, quorum, hinting) → WorkerProcess (application workers) →
  Table (MemTable apply, freeze gate) → LogRecordAdder (group-committed
  WAL appends).
* **WAL error faults** wedge the commit-log executor after consecutive
  failures, leaving the MemTable frozen *forever*: subsequent mutations
  log only "MemTable is already frozen..." and terminate prematurely —
  the paper's Table 1 anomaly — while peers hint and eventually the node
  OOMs (Sec. 5.4.1).
* **WAL delay faults** slow the local write path without changing flow:
  performance anomalies in WorkerProcess/StorageProxy (Sec. 5.4.2).
* **Flush error/delay faults** hit the ``"sstable"`` I/O path used by the
  Memtable flush workers and the CompactionManager; slow flushes back up
  CommitLog segment trimming and the flush-triggering WorkerProcess tasks.
* **GCInspector** turns heap pressure (queued work, pending flushes,
  stored hints) into longer GC pauses, new log flows, and ultimately an
  OutOfMemory crash.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import NodeRuntime
from repro.lsm import LSMStore
from repro.simsys import (
    Environment,
    Event,
    Executor,
    Gate,
    Host,
    Semaphore,
    SimulatedIOError,
    spawn_worker,
)
from repro.simsys.rng import SimRandom
from repro.simsys.threads import SimThread

from .config import CassandraConfig
from .logpoints import CassandraLogPoints
from .messages import HINT_REPLAY, HINT_STORE, MUTATION, READ, Message


class ClientOp:
    """One client-visible operation."""

    __slots__ = ("kind", "key", "value", "nbytes")

    def __init__(self, kind: str, key: str, value=None, nbytes: int = 1024):
        if kind not in ("write", "read"):
            raise ValueError(f"unknown op kind {kind!r}")
        self.kind = kind
        self.key = key
        self.value = value
        self.nbytes = nbytes


class CassandraNode:
    """One Cassandra process on one simulated host."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        runtime: NodeRuntime,
        lps: CassandraLogPoints,
        config: CassandraConfig,
        cluster,
        seed: int = 17,
    ):
        self.env = env
        self.host = host
        self.name = host.name
        self.runtime = runtime
        self.lps = lps
        self.config = config
        self.cluster = cluster
        self.rng = SimRandom(seed)
        self.alive = True

        self.store = LSMStore(
            host.disk,
            name=f"{self.name}-ks",
            memtable_flush_bytes=config.memtable_flush_bytes,
            compaction_threshold=config.compaction_threshold,
        )
        #: MemTable freeze gate; closed during WAL retries and switches.
        self.freeze_gate = Gate(env, name=f"{self.name}-freeze")
        self.wal_wedged = False
        self.flush_needed = False
        self.flush_slots = Semaphore(env, config.flush_slots, name=f"{self.name}-flush")
        #: Flush completion events, newest last (CommitLog waits on these).
        self._active_flushes: List[Event] = []
        #: endpoint -> number of hinted rows stored on this node.
        self.hints: Dict[str, int] = {}
        self.gc_slowdown = 1.0
        self._heap_fraction = config.heap_base
        self._oom_strikes = 0
        self._last_switch_time = 0.0

        lg = runtime.logger
        self.log_daemon = lg("CassandraDaemon")
        self.log_proxy = lg("StorageProxy")
        self.log_worker = lg("WorkerProcess")
        self.log_table = lg("Table")
        self.log_wal = lg("LogRecordAdder")
        self.log_memtable = lg("Memtable")
        self.log_commitlog = lg("CommitLog")
        self.log_read = lg("LocalReadRunnable")
        self.log_gc = lg("GCInspector")
        self.log_compaction = lg("CompactionManager")
        self.log_hints = lg("HintedHandOffManager")
        self.log_in = lg("IncomingTcpConnection")
        self.log_out = lg("OutboundTcpConnection")

        def pool(stage_name: str, size: int) -> Executor:
            return Executor(
                env,
                pool_size=size,
                name=f"{self.name}-{stage_name}",
                on_dequeue=lambda _task, s=stage_name: runtime.set_context(s),
            )

        self.daemon_exec = pool("CassandraDaemon", config.daemon_pool)
        self.proxy_exec = pool("StorageProxy", config.proxy_pool)
        self.worker_exec = pool("WorkerProcess", config.worker_pool)
        self.table_exec = pool("Table", config.table_pool)
        self.wal_exec_queue = self._start_wal_executor()
        self.out_tcp_exec = pool("OutboundTcpConnection", config.out_tcp_pool)
        self.in_tcp_exec = pool("IncomingTcpConnection", config.in_tcp_pool)

        self._periodic_threads: List[SimThread] = []
        self._start_periodic("GCInspector", config.gc_interval_s, self._gc_body)
        self._start_periodic("CommitLog", config.commitlog_interval_s, self._commitlog_body)
        self._start_periodic(
            "CompactionManager", config.compaction_interval_s, self._compaction_body
        )
        self._start_periodic(
            "HintedHandOffManager", config.hints_interval_s, self._hints_body
        )
        self._lifetime_thread = SimThread(
            env, target=self._memtable_lifetime_loop(), name=f"{self.name}-mt-life"
        )
        self._flush_retry_thread = SimThread(
            env, target=self._flush_retry_loop(), name=f"{self.name}-flush-retry"
        )

    # ------------------------------------------------------------------ utils
    def cpu(self, seconds: float):
        """Timeout scaled by host CPU pressure and GC slowdown."""
        factor = self.host.cpu_factor * self.gc_slowdown
        return self.env.timeout(seconds * factor * self.rng.lognormal_by_median(1.0, 0.2))

    def _wait(self, event: Event, timeout_s: float):
        """Generator: wait for event or timeout; returns True if event won."""
        if event.triggered:
            yield self.env.timeout(0)
            return True
        yield self.env.deadline(event, timeout_s)
        return event.triggered

    @property
    def total_backlog(self) -> int:
        return (
            self.daemon_exec.backlog
            + self.proxy_exec.backlog
            + self.worker_exec.backlog
            + self.table_exec.backlog
            + len(self.wal_exec_queue)
        )

    def heap_fraction(self) -> float:
        c = self.config
        backlog_term = min(c.heap_backlog_cap, self.total_backlog / c.heap_backlog_scale)
        flush_term = min(c.heap_flush_cap, c.heap_flush_weight * len(self.store.pending_flushes))
        hint_term = min(c.heap_hint_cap, sum(self.hints.values()) / c.heap_hint_scale)
        return min(1.0, c.heap_base + backlog_term + flush_term + hint_term)

    # ------------------------------------------------------------------ client
    def client_request(self, op: ClientOp) -> Event:
        """Entry point for emulated clients; returns a success/failure event."""
        done = Event(self.env)
        if not self.alive or not self.daemon_exec.try_submit(
            lambda: self._daemon_task(op, done)
        ):
            # Connection refused: fail after a short connect attempt.
            def refuse():
                yield self.env.timeout(0.05)
                if not done.triggered:
                    done.succeed(False)

            self.env.process(refuse(), name=f"{self.name}-refuse")
        return done

    def _daemon_task(self, op: ClientOp, done: Event):
        lps = self.lps
        self.log_daemon.debug(lps.daemon_recv.template, op.key, lpid=lps.daemon_recv.lpid)
        yield self.cpu(self.config.cpu_daemon_s)
        proxy_done = Event(self.env)
        if op.kind == "write":
            self.log_daemon.debug(lps.daemon_write.template, lpid=lps.daemon_write.lpid)
            submitted = self.proxy_exec.try_submit(
                lambda: self._proxy_write_task(op, proxy_done)
            )
        else:
            self.log_daemon.debug(lps.daemon_read.template, lpid=lps.daemon_read.lpid)
            submitted = self.proxy_exec.try_submit(
                lambda: self._proxy_read_task(op, proxy_done)
            )
        ok = False
        if submitted:
            ok = yield from self._wait(proxy_done, self.config.client_timeout_s)
            ok = ok and bool(proxy_done.value)
        if ok:
            self.log_daemon.debug(lps.daemon_done.template, lpid=lps.daemon_done.lpid)
        else:
            self.log_daemon.warn(lps.daemon_fail.template, lpid=lps.daemon_fail.lpid)
        if not done.triggered:
            done.succeed(ok)

    # ------------------------------------------------------------------ writes
    def _proxy_write_task(self, op: ClientOp, done: Event):
        lps, config = self.lps, self.config
        self.log_proxy.debug(lps.proxy_mutate.template, op.key, lpid=lps.proxy_mutate.lpid)
        yield self.cpu(config.cpu_proxy_s)
        replicas = self.cluster.ring.replicas_for(op.key)
        quorum = self.cluster.ring.quorum()
        acked: Dict[str, bool] = {r: False for r in replicas}
        state = {"count": 0}
        quorum_event = Event(self.env)
        all_event = Event(self.env)
        local_event = Event(self.env) if self.name in replicas else None

        def make_ack(replica: str) -> Callable:
            def ack(result) -> None:
                if not result or acked[replica]:
                    return
                acked[replica] = True
                state["count"] += 1
                if state["count"] >= quorum and not quorum_event.triggered:
                    quorum_event.succeed(True)
                if state["count"] >= len(replicas) and not all_event.triggered:
                    all_event.succeed(True)
                if replica == self.name and local_event is not None:
                    if not local_event.triggered:
                        local_event.succeed(True)

            return ack

        timestamp = self.env.now
        for replica in replicas:
            message = Message(
                kind=MUTATION,
                key=op.key,
                sender=self.name,
                value=op.value,
                nbytes=op.nbytes,
                timestamp=timestamp,
                on_done=make_ack(replica),
            )
            if replica == self.name:
                self.log_proxy.debug(lps.proxy_local.template, lpid=lps.proxy_local.lpid)
                self.submit_mutation(message)
            else:
                self.log_proxy.debug(
                    lps.proxy_remote.template, replica, lpid=lps.proxy_remote.lpid
                )
                self.send_message(replica, message)

        ok = yield from self._wait(quorum_event, config.write_quorum_timeout_s)
        if ok and local_event is not None and not local_event.triggered:
            # Cassandra 0.8 applies the coordinator-local mutation on the
            # proxy path: the write does not return before the local WAL
            # append — this is what couples WAL latency into StorageProxy.
            ok = yield from self._wait(local_event, config.write_quorum_timeout_s)
        if ok:
            self.log_proxy.debug(lps.proxy_ack.template, lpid=lps.proxy_ack.lpid)
        else:
            self.log_proxy.warn(
                lps.proxy_unavailable.template, lpid=lps.proxy_unavailable.lpid
            )
        if not done.triggered:
            done.succeed(ok)

        # Hinting grace: give stragglers a moment, then delegate hints for
        # replicas that still have not responded (Sec. 5.4.1).
        yield from self._wait(all_event, config.hint_grace_s)
        if all(acked.values()):
            return
        for replica, was_acked in acked.items():
            if was_acked:
                continue
            self.log_proxy.debug(
                lps.proxy_timeout.template, replica, lpid=lps.proxy_timeout.lpid
            )
            holder = self._pick_hint_holder(exclude=replica)
            if holder is None:
                continue
            hint = Message(
                kind=HINT_STORE,
                key=op.key,
                sender=self.name,
                value=op.value,
                nbytes=op.nbytes,
                timestamp=timestamp,
                hint_target=replica,
            )
            if holder == self.name:
                self.worker_exec.try_submit(lambda m=hint: self._worker_hint_store(m))
            else:
                self.send_message(holder, hint)

    def _pick_hint_holder(self, exclude: str) -> Optional[str]:
        candidates = [
            n for n in self.cluster.ring.node_names
            if n != exclude and self.cluster.nodes[n].alive
        ]
        return self.rng.choice(candidates) if candidates else None

    # -- mutation application (WorkerProcess -> Table -> LogRecordAdder) -------
    def submit_mutation(self, message: Message) -> None:
        self.worker_exec.try_submit(lambda: self._worker_mutation_task(message))

    def _worker_mutation_task(self, message: Message):
        lps, config = self.lps, self.config
        self.log_worker.debug(
            lps.worker_start.template, message.kind, lpid=lps.worker_start.lpid
        )
        yield self.cpu(config.cpu_worker_s)
        self.log_worker.debug(lps.worker_apply.template, lpid=lps.worker_apply.lpid)
        table_done = Event(self.env)
        self.table_exec.try_submit(lambda: self._table_task(message, table_done))
        ok = yield from self._wait(table_done, config.wal_ack_timeout_s / 2)
        if ok and table_done.value:
            self.log_worker.debug(
                lps.worker_applied.template, lpid=lps.worker_applied.lpid
            )
            message.done(True)
        else:
            self.log_worker.debug(
                lps.worker_apply_fail.template, lpid=lps.worker_apply_fail.lpid
            )
        if self.flush_needed:
            self.flush_needed = False
            yield from self._trigger_flush()

    def _table_task(self, message: Message, done: Event):
        """The paper's Table stage (Table 1 log points)."""
        lps, config = self.lps, self.config
        if self.freeze_gate.is_closed:
            self.log_table.debug(lps.table_frozen.template, lpid=lps.table_frozen.lpid)
            opened = yield from self.freeze_gate.wait(config.table_freeze_timeout_s)
            if not opened:
                # Premature termination: the signature is {frozen} only.
                if not done.triggered:
                    done.succeed(False)
                return
        self.log_table.debug(lps.table_start.template, lpid=lps.table_start.lpid)
        yield self.cpu(config.cpu_table_s)
        wal_done = Event(self.env)
        self.wal_exec_queue.try_put((message.nbytes, wal_done))
        ok = yield from self._wait(wal_done, config.wal_ack_timeout_s)
        if not ok:
            # The commit log never acknowledged (wedged executor): give up
            # without applying; signature is {frozen?, start}.
            if not done.triggered:
                done.succeed(False)
            return
        self.log_table.debug(lps.table_apply.template, lpid=lps.table_apply.lpid)
        full = self.store.apply(message.key, message.value, message.nbytes, message.timestamp)
        if full:
            self.flush_needed = True
        self.log_table.debug(lps.table_done.template, lpid=lps.table_done.lpid)
        if not done.triggered:
            done.succeed(True)

    # -- LogRecordAdder: single-threaded, group-committed WAL appends ----------
    def _start_wal_executor(self):
        from repro.simsys import SimQueue

        queue = SimQueue(self.env, name=f"{self.name}-wal-queue")
        self._wal_thread = SimThread(
            self.env, target=self._wal_loop(queue), name=f"{self.name}-LogRecordAdder"
        )
        return queue

    def _wal_loop(self, queue):
        from repro.simsys import QueueClosed

        lps, config = self.lps, self.config
        while True:
            try:
                first = yield queue.get()
            except QueueClosed:
                return
            batch = [first]
            while len(batch) < config.wal_batch_limit:
                extra = queue.try_get()
                if extra is None:
                    break
                batch.append(extra)
            self.runtime.set_context("LogRecordAdder")
            self.log_wal.debug(lps.wal_add.template, lpid=lps.wal_add.lpid)
            total_bytes = sum(nbytes for nbytes, _ in batch)
            failures = 0
            while True:
                try:
                    yield from self.store.wal_append(max(total_bytes, 64))
                    break
                except SimulatedIOError:
                    failures += 1
                    if failures == 1:
                        # Freeze mutations while the append is retried; the
                        # gate stays closed if we wedge.
                        self.freeze_gate.close()
                    self.log_wal.debug(lps.wal_retry.template, lpid=lps.wal_retry.lpid)
                    if failures >= config.wal_wedge_after_failures:
                        # Paper Sec. 5.4.1: the stuck append never releases
                        # the MemTable; the commit-log executor is dead.
                        self.log_wal.error(lps.wal_error.template, lpid=lps.wal_error.lpid)
                        self.wal_wedged = True
                        yield Event(self.env)  # block forever
                    yield self.env.timeout(config.wal_retry_backoff_s)
            if failures:
                self.freeze_gate.open()
            self.log_wal.debug(lps.wal_added.template, lpid=lps.wal_added.lpid)
            for _nbytes, done in batch:
                if not done.triggered:
                    done.succeed(True)

    # -- flush path -----------------------------------------------------------
    def _trigger_flush(self):
        """Run inside a WorkerProcess task: switch + synchronous flush wait."""
        lps, config = self.lps, self.config
        self.log_worker.debug(
            lps.worker_flush_wait.template, lpid=lps.worker_flush_wait.lpid
        )
        yield self.flush_slots.acquire()
        self.freeze_gate.close()
        yield self.cpu(config.cpu_table_s)
        frozen = self.store.switch_memtable()
        self._last_switch_time = self.env.now
        self.freeze_gate.open()
        flush_done = Event(self.env)
        self._active_flushes.append(flush_done)
        spawn_worker(
            self.env,
            self._memtable_flush_task(frozen, flush_done),
            name=f"{self.name}-Memtable-flush",
        )
        # Cassandra 0.8's bounded flush-writer queue makes the triggering
        # mutation thread wait for the flush — the WorkerProcess slowdown
        # the paper reports under flush-delay faults (Sec. 5.4.2).
        yield from self._wait(flush_done, config.wal_ack_timeout_s * 2)
        self.flush_slots.release()

    def _memtable_flush_task(self, memtable, flush_done: Event):
        """Dispatcher-worker Memtable stage: chunked SSTable write."""
        lps, config = self.lps, self.config
        self.runtime.set_context("Memtable")
        self.log_memtable.info(
            lps.flush_enqueue.template, memtable.name, lpid=lps.flush_enqueue.lpid
        )
        attempts = 0
        while True:
            attempts += 1
            try:
                self.log_memtable.info(
                    lps.flush_write.template, memtable.name, lpid=lps.flush_write.lpid
                )
                chunks = max(1, memtable.size_bytes // config.flush_chunk_bytes)
                for _ in range(chunks):
                    yield from self.host.disk.write(config.flush_chunk_bytes, path="sstable")
                # Materialize the SSTable without double-charging I/O.
                from repro.lsm.sstable import SSTable

                sstable = SSTable(
                    memtable.sorted_items(), self.host.disk, name=f"{self.name}-sst"
                )
                self.store.sstables.append(sstable)
                if memtable in self.store.pending_flushes:
                    self.store.pending_flushes.remove(memtable)
                self.store.flushes_completed += 1
                self.log_memtable.info(
                    lps.flush_done.template, memtable.name, lpid=lps.flush_done.lpid
                )
                break
            except SimulatedIOError:
                if attempts >= config.flush_retry_limit:
                    self.log_memtable.error(
                        lps.flush_fail.template, lpid=lps.flush_fail.lpid
                    )
                    break
                self.log_memtable.warn(
                    lps.flush_retry.template, lpid=lps.flush_retry.lpid
                )
                yield self.env.timeout(config.flush_retry_backoff_s)
        if flush_done in self._active_flushes:
            self._active_flushes.remove(flush_done)
        if not flush_done.triggered:
            flush_done.succeed(True)

    def _memtable_lifetime_loop(self):
        """Force a switch when a MemTable gets old (memtable_flush_after)."""
        config = self.config
        while self.alive:
            yield self.env.timeout(config.memtable_lifetime_s / 4)
            if not self.alive:
                return
            age = self.env.now - self._last_switch_time
            if age >= config.memtable_lifetime_s and len(self.store.memtable) > 0:
                self.flush_needed = False
                self.worker_exec.try_submit(self._flush_trigger_task)

    def _flush_trigger_task(self):
        yield from self._trigger_flush()

    def _flush_retry_loop(self):
        """Re-attempt flushes for MemTables stuck in pending state."""
        config = self.config
        while self.alive:
            yield self.env.timeout(config.flush_retry_interval_s)
            if not self.alive:
                return
            stuck = [m for m in self.store.pending_flushes]
            for memtable in stuck[:1]:  # one retry per tick
                flush_done = Event(self.env)
                self._active_flushes.append(flush_done)
                spawn_worker(
                    self.env,
                    self._memtable_flush_task(memtable, flush_done),
                    name=f"{self.name}-Memtable-retry",
                )

    # ------------------------------------------------------------------ reads
    def _proxy_read_task(self, op: ClientOp, done: Event):
        lps, config = self.lps, self.config
        self.log_proxy.debug(lps.proxy_read.template, op.key, lpid=lps.proxy_read.lpid)
        yield self.cpu(config.cpu_proxy_s)
        replicas = self.cluster.ring.replicas_for(op.key)
        if self.name in replicas:
            target = self.name
        else:
            alive = [r for r in replicas if self.cluster.nodes[r].alive]
            target = alive[0] if alive else replicas[0]
        read_done = Event(self.env)
        message = Message(
            kind=READ,
            key=op.key,
            sender=self.name,
            on_done=lambda value: read_done.succeed(value)
            if not read_done.triggered
            else None,
        )
        if target == self.name:
            self.spawn_local_read(message)
        else:
            self.send_message(target, message)
        ok = yield from self._wait(read_done, config.read_timeout_s)
        if ok:
            self.log_proxy.debug(
                lps.proxy_read_done.template, lpid=lps.proxy_read_done.lpid
            )
        if not done.triggered:
            done.succeed(ok)

    def spawn_local_read(self, message: Message) -> None:
        spawn_worker(
            self.env,
            self._local_read_task(message),
            name=f"{self.name}-LocalRead",
        )

    def _local_read_task(self, message: Message):
        lps = self.lps
        self.runtime.set_context("LocalReadRunnable")
        self.log_read.debug(lps.read_start.template, message.key, lpid=lps.read_start.lpid)
        yield self.cpu(self.config.cpu_read_s)
        mem_hit = self.store.memtable.get(message.key) is not None
        candidates = sum(
            1 for s in self.store.sstables if s.might_contain(message.key)
        )
        value = yield from self.store.get(message.key)
        if mem_hit:
            self.log_read.debug(lps.read_mem_hit.template, lpid=lps.read_mem_hit.lpid)
        elif candidates:
            self.log_read.debug(
                lps.read_sstables.template, candidates, lpid=lps.read_sstables.lpid
            )
        else:
            self.log_read.debug(lps.read_miss.template, lpid=lps.read_miss.lpid)
        self.log_read.debug(lps.read_done.template, lpid=lps.read_done.lpid)
        message.done(value)

    # ------------------------------------------------------------------ hints
    def _worker_hint_store(self, message: Message):
        lps = self.lps
        self.log_worker.debug(
            lps.worker_start.template, message.kind, lpid=lps.worker_start.lpid
        )
        yield self.cpu(self.config.cpu_worker_s)
        target = message.hint_target or "unknown"
        self.hints[target] = self.hints.get(target, 0) + 1
        self.log_worker.debug(
            lps.worker_hint_store.template, target, lpid=lps.worker_hint_store.lpid
        )
        message.done(True)

    def _hints_body(self):
        """HintedHandOffManager periodic tick."""
        lps, config = self.lps, self.config
        self.log_hints.debug(lps.hints_check.template, lpid=lps.hints_check.lpid)
        yield self.cpu(0.0002)
        for target, count in list(self.hints.items()):
            if count <= 0:
                del self.hints[target]
                continue
            self.log_hints.info(
                lps.hints_replay.template, target, lpid=lps.hints_replay.lpid
            )
            batch = min(count, 32)
            replayed = yield from self._replay_hints(target, batch)
            if replayed:
                self.hints[target] = max(0, self.hints[target] - batch)
                self.log_hints.info(
                    lps.hints_done.template, batch, lpid=lps.hints_done.lpid
                )
            else:
                self.log_hints.debug(
                    lps.hints_timeout.template, target, lpid=lps.hints_timeout.lpid
                )

    def _replay_hints(self, target: str, batch: int):
        """Replay one batch through a WorkerProcess task; True on success."""
        result = Event(self.env)
        self.worker_exec.try_submit(
            lambda: self._worker_hint_replay(target, batch, result)
        )
        ok = yield from self._wait(result, self.config.hint_replay_timeout_s * 3)
        return ok and bool(result.value)

    def _worker_hint_replay(self, target: str, batch: int, result: Event):
        lps, config = self.lps, self.config
        self.log_worker.debug(
            lps.worker_start.template, "hint-replay", lpid=lps.worker_start.lpid
        )
        yield self.cpu(config.cpu_worker_s)
        ack = Event(self.env)
        message = Message(
            kind=HINT_REPLAY,
            key=f"hints-{target}",
            sender=self.name,
            nbytes=config.row_bytes,
            timestamp=self.env.now,
            on_done=lambda ok: ack.succeed(bool(ok)) if not ack.triggered else None,
        )
        self.send_message(target, message)
        ok = yield from self._wait(ack, config.hint_replay_timeout_s)
        if ok and ack.value:
            if not result.triggered:
                result.succeed(True)
        else:
            self.log_worker.debug(
                lps.worker_hint_timeout.template, target, lpid=lps.worker_hint_timeout.lpid
            )
            if not result.triggered:
                result.succeed(False)

    # ------------------------------------------------------------------ network
    def send_message(self, target: str, message: Message) -> None:
        """Queue an outbound message through the OutboundTcpConnection stage."""
        original_done = message.on_done
        if original_done is not None:
            # Charge the reply trip: the remote node invokes the wrapper,
            # which ships the response back before firing the callback.
            def reply_shipper(result):
                def ship():
                    try:
                        yield from self.cluster.network.send(
                            target, self.name, 256
                        )
                    except SimulatedIOError:
                        return
                    original_done(result)

                self.env.process(ship(), name=f"reply-{target}-{self.name}")

            message.on_done = reply_shipper
        self.out_tcp_exec.try_submit(lambda: self._out_tcp_task(target, message))

    def _out_tcp_task(self, target: str, message: Message):
        lps = self.lps
        self.log_out.debug(lps.out_send.template, target, lpid=lps.out_send.lpid)
        try:
            yield from self.cluster.network.send(
                self.name, target, message.nbytes or self.config.message_bytes
            )
        except SimulatedIOError:
            self.log_out.debug(lps.out_error.template, target, lpid=lps.out_error.lpid)
            return
        self.log_out.debug(lps.out_sent.template, lpid=lps.out_sent.lpid)
        self.cluster.nodes[target].receive_message(message)

    def receive_message(self, message: Message) -> None:
        if not self.alive:
            return
        self.in_tcp_exec.try_submit(lambda: self._in_tcp_task(message))

    def _in_tcp_task(self, message: Message):
        lps = self.lps
        self.log_in.debug(lps.in_msg.template, message.sender, lpid=lps.in_msg.lpid)
        yield self.cpu(0.0002)
        self.log_in.debug(lps.in_dispatch.template, lpid=lps.in_dispatch.lpid)
        if message.kind in (MUTATION, HINT_REPLAY):
            self.submit_mutation(message)
        elif message.kind == READ:
            self.spawn_local_read(message)
        elif message.kind == HINT_STORE:
            self.worker_exec.try_submit(lambda: self._worker_hint_store(message))

    # ------------------------------------------------------------------ periodic
    def _start_periodic(self, stage_name: str, interval_s: float, body) -> None:
        offset = self.rng.random() * interval_s

        def loop():
            yield self.env.timeout(offset)
            while self.alive:
                self.runtime.set_context(stage_name)
                # A body may return an interval scale < 1 to ask for a
                # sooner re-check (e.g. compaction under a write burst
                # re-checks before a full interval of flushes piles up).
                scale = 1.0
                try:
                    scale = (yield from body()) or 1.0
                except SimulatedIOError:
                    pass  # injected I/O faults must not kill periodic stages
                # Jittered interval: decorrelates periodic ticks from the
                # flush/segment cadence so every branch of a periodic
                # stage (e.g. CommitLog's idle tick) is represented in
                # fault-free training data, not just under faults.
                yield self.env.timeout(
                    interval_s * scale * (0.6 + 0.8 * self.rng.random())
                )

        self._periodic_threads.append(
            SimThread(self.env, target=loop(), name=f"{self.name}-{stage_name}")
        )

    def _gc_body(self):
        lps, config = self.lps, self.config
        heap = self.heap_fraction()
        self._heap_fraction = heap
        self.gc_slowdown = 1.0 + 2.5 * heap * heap
        pause = config.gc_base_pause_s * self.rng.lognormal_by_median(1.0, 0.3) * (
            1.0 + 8.0 * heap * heap
        )
        yield self.env.timeout(pause)
        self.log_gc.info(
            lps.gc_parnew.template, int(pause * 1000), lpid=lps.gc_parnew.lpid
        )
        if heap >= config.gc_cms_heap:
            cms_pause = pause * 4
            yield self.env.timeout(cms_pause)
            self.log_gc.info(
                lps.gc_cms.template, int(cms_pause * 1000), lpid=lps.gc_cms.lpid
            )
        if heap >= config.gc_warn_heap:
            self.log_gc.warn(lps.gc_heap_warn.template, heap, lpid=lps.gc_heap_warn.lpid)
        if heap >= config.gc_oom_heap:
            self._oom_strikes += 1
            if self._oom_strikes >= config.gc_oom_consecutive:
                for _ in range(12):
                    self.log_gc.error(lps.gc_oom.template, lpid=lps.gc_oom.lpid)
                self.crash()
        else:
            self._oom_strikes = 0

    def _commitlog_body(self):
        lps = self.lps
        self.log_commitlog.debug(lps.cl_check.template, lpid=lps.cl_check.lpid)
        yield self.cpu(0.0002)
        if self._active_flushes:
            # Segments cannot be discarded until the covering MemTables are
            # flushed: CommitLog task duration tracks flush slowness.
            yield from self._wait(self._active_flushes[0], 8.0)
        sealed = [s for s in self.store.wal.segments if s.sealed]
        if sealed and not self.store.pending_flushes:
            try:
                discarded = yield from self.store.trim_wal()
            except SimulatedIOError:
                discarded = 0
            for _ in range(discarded):
                self.log_commitlog.debug(
                    lps.cl_discard.template, lpid=lps.cl_discard.lpid
                )
        else:
            self.log_commitlog.debug(lps.cl_none.template, lpid=lps.cl_none.lpid)

    def _compaction_body(self):
        lps = self.lps
        self.log_compaction.debug(lps.compact_check.template, lpid=lps.compact_check.lpid)
        yield self.cpu(0.0003)
        from repro.lsm.sstable import SSTable, merge_entries

        # Size-tiered drain: a store whose flush rate outpaces one merge
        # per tick compacts back-to-back until the table count drops
        # below the threshold again, taking up to 4x the threshold per
        # merge (Cassandra's min/max_compaction_threshold split) so a
        # deep backlog folds in a few large passes instead of one table
        # at a time.
        compacted = False
        while self.store.needs_compaction:
            victims = self.store.sstables[: 4 * self.store.compaction_threshold]
            self.log_compaction.info(
                lps.compact_start.template, len(victims), lpid=lps.compact_start.lpid
            )
            try:
                # Chunked I/O so delay faults scale with compaction size.
                total = sum(max(v.size_bytes, 4096) for v in victims)
                chunk = self.config.flush_chunk_bytes
                for _ in range(max(1, total // chunk)):
                    yield from self.host.disk.read(chunk, path="data")
                for _ in range(max(1, total // chunk)):
                    yield from self.host.disk.write(chunk, path="sstable")
            except SimulatedIOError:
                self.log_compaction.warn(
                    lps.compact_retry.template, lpid=lps.compact_retry.lpid
                )
                return
            merged = merge_entries(victims)
            survivor = SSTable(merged, self.host.disk, name=f"{self.name}-sst-c")
            self.store.sstables = [s for s in self.store.sstables if s not in victims]
            self.store.sstables.insert(0, survivor)
            self.store.compactions_completed += 1
            compacted = True
            self.log_compaction.info(
                lps.compact_done.template, survivor.size_bytes, lpid=lps.compact_done.lpid
            )
        # Under a write burst, re-check well before a full interval of
        # flushes can pile a fresh backlog past the test's table bound.
        if compacted:
            return 0.25
        return None

    # ------------------------------------------------------------------ crash
    def crash(self) -> None:
        """Terminate the node (OOM or operator action)."""
        if not self.alive:
            return
        self.alive = False
        self.host.crash()
        for executor in (
            self.daemon_exec,
            self.proxy_exec,
            self.worker_exec,
            self.table_exec,
            self.out_tcp_exec,
            self.in_tcp_exec,
        ):
            executor.shutdown()
        self.wal_exec_queue.close()
