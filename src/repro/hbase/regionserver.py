"""A simulated HBase Regionserver (0.92 semantics where it matters).

Write path: ``Call`` tasks append to the write-ahead log (an HDFS block
pipeline driven by the embedded DFS client), wait for the group-commit
``log sync`` performed by ``Handler`` tasks, then apply to the region's
MemStore.  Flushes write HFiles through HDFS; ``CompactionChecker``
schedules ``CompactionRequest`` tasks.  A failed WAL sync triggers block
recovery through the buggy HDFS client — exhausting its retries aborts
the Regionserver (the paper's Sec. 5.5 crash).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import NodeRuntime
from repro.hdfs import DFSClient, DfsWriteStream
from repro.lsm import MemTable
from repro.simsys import (
    Environment,
    Event,
    Executor,
    Host,
    QueueClosed,
    SimQueue,
    SimulatedIOError,
    spawn_worker,
)
from repro.simsys.rng import SimRandom
from repro.simsys.threads import SimThread

from .config import HBaseConfig
from .logpoints import HBaseLogPoints


class Region:
    """One region: a MemStore plus on-disk storefiles."""

    def __init__(self, name: str, flush_bytes: int):
        self.name = name
        self.memstore = MemTable(name=f"{name}-memstore", flush_threshold_bytes=flush_bytes)
        self.storefiles: List[int] = []  # sizes in bytes
        self.flushing = False

    def reset_memstore(self, flush_bytes: int) -> MemTable:
        """Snapshot-and-swap for flushing; returns the frozen memstore."""
        frozen = self.memstore
        frozen.freeze()
        self.memstore = MemTable(
            name=f"{self.name}-memstore", flush_threshold_bytes=flush_bytes
        )
        return frozen


class RegionServer:
    """One Regionserver process (co-located with a Data Node)."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        runtime: NodeRuntime,
        lps: HBaseLogPoints,
        dfs: DFSClient,
        config: HBaseConfig,
        cluster,
        seed: int = 31,
    ):
        self.env = env
        self.host = host
        self.name = host.name
        self.runtime = runtime
        self.lps = lps
        self.dfs = dfs
        self.config = config
        self.cluster = cluster
        self.rng = SimRandom(seed)
        self.alive = True
        self.abort_reason: Optional[str] = None
        self.regions: Dict[str, Region] = {}
        self.recovering = False
        self._wal_poisoned = False
        self._call_count = 0
        self._last_roll_time = 0.0

        lg = runtime.logger
        self.log_call = lg("Call")
        self.log_handler = lg("Handler")
        self.log_or = lg("OpenRegionHandler")
        self.log_po = lg("PostOpenDeployTasksThread")
        self.log_lr = lg("LogRoller")
        self.log_sw = lg("SplitLogWorker")
        self.log_cc = lg("CompactionChecker")
        self.log_cr = lg("CompactionRequest")
        self.log_li = lg("Listener")
        self.log_cx = lg("Connection")
        self.log_fl = lg("MemStoreFlusher")

        self.call_exec = Executor(
            env,
            pool_size=config.call_pool,
            name=f"{self.name}-Call",
            on_dequeue=lambda _t: runtime.set_context("Call"),
        )
        self.compaction_exec = Executor(
            env,
            pool_size=config.compaction_pool,
            name=f"{self.name}-CompactionRequest",
            on_dequeue=lambda _t: runtime.set_context("CompactionRequest"),
        )
        self.wal_stream: Optional[DfsWriteStream] = None
        self.wal_queue: SimQueue = SimQueue(env, name=f"{self.name}-wal-sync")
        self._sync_thread = SimThread(
            env, target=self._sync_loop(), name=f"{self.name}-log-sync"
        )
        self._threads: List[SimThread] = [self._sync_thread]
        self._start_periodic(
            "CompactionChecker", config.compaction_check_interval_s, self._compaction_body
        )
        self._start_periodic("LogRoller", config.log_roller_interval_s, self._roller_body)
        self._start_periodic("Listener", config.listener_interval_s, self._listener_body)
        self._start_periodic(
            "SplitLogWorker", config.split_poll_interval_s, self._split_poll_body
        )
        self._next_major = (
            env.now + config.major_compaction_interval_s
            if config.major_compaction_interval_s > 0
            else None
        )

    # ---------------------------------------------------------------- utils
    def cpu(self, seconds: float):
        return self.env.timeout(
            seconds * self.host.cpu_factor * self.rng.lognormal_by_median(1.0, 0.25)
        )

    def _wait(self, event: Event, timeout_s: float):
        if event.triggered:
            yield self.env.timeout(0)
            return True
        yield self.env.deadline(event, timeout_s)
        return event.triggered

    def _start_periodic(self, stage: str, interval_s: float, body) -> None:
        offset = self.rng.random() * interval_s

        def loop():
            yield self.env.timeout(offset)
            while self.alive:
                self.runtime.set_context(stage)
                try:
                    yield from body()
                except SimulatedIOError:
                    pass
                yield self.env.timeout(interval_s)

        self._threads.append(
            SimThread(self.env, target=loop(), name=f"{self.name}-{stage}")
        )

    # ---------------------------------------------------------------- startup
    def start(self) -> None:
        """Open the initial WAL block pipeline."""
        self.wal_stream = self.dfs.open_stream(ack_mode="local")
        self._last_roll_time = self.env.now

    def assign_region(self, region_name: str) -> None:
        """Initial (silent) assignment at cluster build time."""
        self.regions[region_name] = Region(region_name, self.config.memstore_flush_bytes)

    # ---------------------------------------------------------------- client ops
    def client_call(self, op) -> Event:
        """Entry for client RPCs.  ``op.kind`` in {'read','write','multi'}."""
        done = Event(self.env)
        if not self.alive or not self.call_exec.try_submit(
            lambda: self._call_task(op, done)
        ):
            def refuse():
                yield self.env.timeout(0.05)
                if not done.triggered:
                    done.succeed(False)

            self.env.process(refuse(), name=f"{self.name}-refuse")
            return done
        self._call_count += 1
        if self._call_count % self.config.connection_sample == 0:
            spawn_worker(self.env, self._connection_task(), name=f"{self.name}-conn")
        return done

    def _call_task(self, op, done: Event):
        lps, config = self.lps, self.config
        region = self.regions.get(self.cluster.region_name_for(op.key))
        if region is None:
            self.log_call.warn(
                lps.call_nsre.template, op.key, lpid=lps.call_nsre.lpid
            )
            if not done.triggered:
                done.succeed(False)
            return
        if op.kind == "read":
            yield from self._get(op, region)
            if not done.triggered:
                done.succeed(True)
            return
        edits = getattr(op, "edits", 1)
        self.log_call.debug(
            lps.call_put.template, edits, region.name, lpid=lps.call_put.lpid
        )
        yield self.cpu(config.cpu_put_s * max(1, edits // 4))
        if len(region.storefiles) > 3 * config.storefile_compact_threshold:
            # Backpressure: too many storefiles blocks updates.
            self.log_call.debug(
                lps.call_blocked.template, region.name, lpid=lps.call_blocked.lpid
            )
        sync_done = Event(self.env)
        self.wal_queue.try_put((op.value_bytes * edits, sync_done))
        self.log_call.debug(lps.call_wal_wait.template, lpid=lps.call_wal_wait.lpid)
        ok = yield from self._wait(sync_done, config.call_sync_wait_s)
        if not ok or not sync_done.value:
            if not done.triggered:
                done.succeed(False)
            return
        for i in range(edits):
            region.memstore.put(
                f"{op.key}#{i}", op.value, op.value_bytes, self.env.now
            )
        self.log_call.debug(lps.call_memstore.template, lpid=lps.call_memstore.lpid)
        if region.memstore.is_full and not region.flushing:
            region.flushing = True
            spawn_worker(
                self.env, self._flush_task(region), name=f"{self.name}-flush"
            )
        self.log_call.debug(lps.call_done.template, lpid=lps.call_done.lpid)
        if not done.triggered:
            done.succeed(True)

    def _get(self, op, region: Region):
        lps, config = self.lps, self.config
        self.log_call.debug(lps.call_get.template, op.key, lpid=lps.call_get.lpid)
        yield self.cpu(config.cpu_get_s)
        if region.memstore.get(f"{op.key}#0") is None and region.storefiles:
            touched = min(len(region.storefiles), 3)
            self.log_call.debug(
                lps.call_storefile.template, touched, lpid=lps.call_storefile.lpid
            )
            for _ in range(touched):
                try:
                    yield from self.host.disk.read(config.read_block_bytes, path="data")
                except SimulatedIOError:
                    break
        self.log_call.debug(lps.call_done.template, lpid=lps.call_done.lpid)

    def _connection_task(self):
        lps = self.lps
        self.runtime.set_context("Connection")
        self.log_cx.debug(lps.cx_setup.template, "client", lpid=lps.cx_setup.lpid)
        yield self.cpu(0.0002)
        self.log_cx.debug(lps.cx_read.template, lpid=lps.cx_read.lpid)

    # ---------------------------------------------------------------- log sync
    def _sync_loop(self):
        lps, config = self.lps, self.config
        while True:
            try:
                first = yield self.wal_queue.get()
            except QueueClosed:
                return
            batch = [first]
            while len(batch) < config.sync_batch_limit:
                extra = self.wal_queue.try_get()
                if extra is None:
                    break
                batch.append(extra)
            self.runtime.set_context("Handler")
            yield self.cpu(config.cpu_handler_s)
            self.log_handler.debug(
                lps.ha_sync_start.template, len(batch), lpid=lps.ha_sync_start.lpid
            )
            total = sum(nbytes for nbytes, _ in batch)
            started = self.env.now
            ok = False
            if self._wal_poisoned:
                self._wal_poisoned = False
                ok = False
            elif self.wal_stream is not None and not self.recovering:
                # HDFS clients absorb transient hiccups; only sync
                # failures that persist across a backoff mark the WAL
                # block bad.  (Without the backoff, a single multi-second
                # disk stall spans all retries and every hiccup is fatal.)
                for attempt in range(config.sync_retry_limit):
                    ok = yield from self.wal_stream.write_sync(
                        max(total, 256), timeout_s=config.sync_timeout_s
                    )
                    if ok:
                        break
                    if attempt + 1 < config.sync_retry_limit:
                        yield self.env.timeout(config.sync_retry_backoff_s)
            elapsed = self.env.now - started
            if ok:
                self.log_handler.debug(
                    lps.ha_sync_done.template, id(batch) & 0xFFFF, lpid=lps.ha_sync_done.lpid
                )
                if elapsed > config.sync_slow_warn_s:
                    self.log_handler.warn(
                        lps.ha_sync_slow.template, int(elapsed * 1000),
                        lpid=lps.ha_sync_slow.lpid,
                    )
                for _nbytes, event in batch:
                    if not event.triggered:
                        event.succeed(True)
                continue
            # Sync failed: fail the batch and run WAL block recovery
            # through the buggy client (paper Sec. 5.5).  Writes stall
            # until recovery is confirmed — or the server aborts.
            for _nbytes, event in batch:
                if not event.triggered:
                    event.succeed(False)
            self.log_handler.error(
                lps.ha_sync_error.template, lpid=lps.ha_sync_error.lpid
            )
            self.recovering = True
            recovered = False
            if self.wal_stream is not None:
                recovered = yield from self.dfs.recover_block_with_bug(
                    self.wal_stream.block
                )
            if recovered:
                yield from self._roll_wal()
                self.recovering = False
            else:
                self.abort("premature recovery termination")
                return

    def _roll_wal(self):
        if self.wal_stream is not None:
            yield from self.wal_stream.close(timeout_s=1.0)
        self.wal_stream = self.dfs.open_stream(ack_mode="local")
        self._last_roll_time = self.env.now

    # ---------------------------------------------------------------- flush
    def _flush_task(self, region: Region):
        lps = self.lps
        self.runtime.set_context("MemStoreFlusher")
        self.log_fl.debug(lps.fl_request.template, region.name, lpid=lps.fl_request.lpid)
        frozen = region.reset_memstore(self.config.memstore_flush_bytes)
        self.log_fl.info(
            lps.fl_start.template, region.name, frozen.size_bytes, lpid=lps.fl_start.lpid
        )
        ok = yield from self.dfs.write_file(max(frozen.size_bytes, 4096))
        if ok:
            region.storefiles.append(frozen.size_bytes)
            self.log_fl.info(lps.fl_done.template, region.name, lpid=lps.fl_done.lpid)
        else:
            self.log_fl.error(lps.fl_failed.template, region.name, lpid=lps.fl_failed.lpid)
        region.flushing = False

    # ---------------------------------------------------------------- compaction
    def _compaction_body(self):
        lps, config = self.lps, self.config
        self.log_cc.debug(lps.cc_check.template, lpid=lps.cc_check.lpid)
        yield self.cpu(0.0003)
        major_due = self._next_major is not None and self.env.now >= self._next_major
        if major_due:
            self._next_major = self.env.now + config.major_compaction_interval_s
        for region in self.regions.values():
            minor_due = len(region.storefiles) >= config.storefile_compact_threshold
            if major_due and len(region.storefiles) >= 2:
                self.log_cc.info(
                    lps.cc_request.template, "major", region.name,
                    lpid=lps.cc_request.lpid,
                )
                self.compaction_exec.try_submit(
                    lambda r=region: self._compaction_task(r, major=True)
                )
            elif minor_due:
                self.log_cc.info(
                    lps.cc_request.template, "minor", region.name,
                    lpid=lps.cc_request.lpid,
                )
                self.compaction_exec.try_submit(
                    lambda r=region: self._compaction_task(r, major=False)
                )

    def request_major_compaction(self) -> None:
        """Force a major compaction on the next checker tick (Fig. 10)."""
        self._next_major = self.env.now

    def force_wal_failure(self) -> None:
        """Mark the current WAL block bad: the next log sync fails and
        block recovery starts.  Experiment harnesses use this to script
        the paper's Sec. 5.5 crash deterministically on one server; the
        same path also triggers emergently from deep disk stalls."""
        self._wal_poisoned = True

    def _compaction_task(self, region: Region, major: bool):
        lps, config = self.lps, self.config
        if major:
            victims = list(region.storefiles)
        else:
            victims = region.storefiles[: config.storefile_compact_threshold]
        if len(victims) < 2:
            yield self.env.timeout(0)
            return
        self.log_cr.info(lps.cr_start.template, len(victims), lpid=lps.cr_start.lpid)
        if major:
            self.log_cr.info(
                lps.cr_major.template, region.name, lpid=lps.cr_major.lpid
            )
        total = sum(victims)
        try:
            chunk = 256 * 1024
            for _ in range(max(1, total // chunk)):
                yield from self.host.disk.read(chunk, path="data")
        except SimulatedIOError:
            self.log_cr.error(
                lps.cr_failed.template, region.name, lpid=lps.cr_failed.lpid
            )
            return
        ok = yield from self.dfs.write_file(max(total, 4096))
        if not ok:
            self.log_cr.error(
                lps.cr_failed.template, region.name, lpid=lps.cr_failed.lpid
            )
            return
        if major:
            region.storefiles.clear()
        else:
            del region.storefiles[: len(victims)]
        region.storefiles.insert(0, total)
        self.log_cr.info(lps.cr_done.template, total, lpid=lps.cr_done.lpid)

    # ---------------------------------------------------------------- periodic
    def _roller_body(self):
        lps, config = self.lps, self.config
        self.log_lr.debug(lps.lr_check.template, lpid=lps.lr_check.lpid)
        yield self.cpu(0.0002)
        stream = self.wal_stream
        if stream is None or self.recovering:
            return
        age = self.env.now - self._last_roll_time
        if stream.bytes_written >= config.wal_roll_bytes or age >= config.wal_roll_age_s:
            self.log_lr.info(
                lps.lr_roll.template, stream.block.block_id, lpid=lps.lr_roll.lpid
            )
            yield from self._roll_wal()
            self.log_lr.debug(lps.lr_done.template, lpid=lps.lr_done.lpid)

    def _listener_body(self):
        lps = self.lps
        self.log_li.debug(lps.li_poll.template, lpid=lps.li_poll.lpid)
        yield self.cpu(0.0001)

    def _split_poll_body(self):
        lps = self.lps
        self.log_sw.debug(lps.sw_poll.template, lpid=lps.sw_poll.lpid)
        yield self.cpu(0.0001)

    # ---------------------------------------------------------------- failover
    def open_region(self, region_name: str, replay: bool = False) -> None:
        """Master-directed assignment after a failure (OpenRegionHandler)."""
        if not self.alive:
            return
        spawn_worker(
            self.env,
            self._open_region_task(region_name, replay),
            name=f"{self.name}-open-{region_name}",
        )

    def _open_region_task(self, region_name: str, replay: bool):
        lps = self.lps
        self.runtime.set_context("OpenRegionHandler")
        self.log_or.info(lps.or_open.template, region_name, lpid=lps.or_open.lpid)
        yield self.cpu(0.002)
        if replay:
            self.log_or.info(
                lps.or_replay.template, region_name, lpid=lps.or_replay.lpid
            )
            yield from self.host.disk.read(512 * 1024, path="data")
        self.regions[region_name] = Region(region_name, self.config.memstore_flush_bytes)
        self.log_or.info(lps.or_done.template, region_name, lpid=lps.or_done.lpid)
        spawn_worker(
            self.env,
            self._post_open_task(region_name),
            name=f"{self.name}-postopen-{region_name}",
        )
        # Reconnecting clients show up as a burst of Connection tasks.
        for _ in range(3):
            spawn_worker(self.env, self._connection_task(), name=f"{self.name}-conn")

    def _post_open_task(self, region_name: str):
        lps = self.lps
        self.runtime.set_context("PostOpenDeployTasksThread")
        self.log_po.info(lps.po_deploy.template, region_name, lpid=lps.po_deploy.lpid)
        yield self.cpu(0.001)
        self.log_po.debug(lps.po_done.template, lpid=lps.po_done.lpid)

    def split_log_task(self, dead_rs: str, block_id: int, nbytes: int) -> None:
        """Master-directed split-log work for a dead Regionserver's WAL."""
        if not self.alive:
            return
        spawn_worker(
            self.env,
            self._split_task(dead_rs, block_id, nbytes),
            name=f"{self.name}-split-{block_id}",
        )

    def _split_task(self, dead_rs: str, block_id: int, nbytes: int):
        lps = self.lps
        self.runtime.set_context("SplitLogWorker")
        self.log_sw.info(lps.sw_acquire.template, dead_rs, lpid=lps.sw_acquire.lpid)
        datanode = self.cluster.hdfs.datanodes.get(self.name)
        if datanode is not None:
            datanode.transfer_block(block_id, nbytes, target=None)
        try:
            yield from self.host.disk.read(max(nbytes, 4096), path="data")
        except SimulatedIOError:
            return
        ok = yield from self.dfs.write_file(max(nbytes // 2, 4096))
        if ok:
            self.log_sw.info(lps.sw_done.template, dead_rs, lpid=lps.sw_done.lpid)

    # ---------------------------------------------------------------- abort
    def abort(self, reason: str) -> None:
        if not self.alive:
            return
        self.log_handler.error(
            self.lps.rs_abort.template, self.name, reason, lpid=self.lps.rs_abort.lpid
        )
        self.alive = False
        self.abort_reason = reason
        self.call_exec.shutdown()
        self.compaction_exec.shutdown()
        self.wal_queue.close()
