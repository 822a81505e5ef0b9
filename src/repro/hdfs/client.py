"""HDFS client: DataStreamer / ResponseProcessor stages and the
premature-recovery-termination bug (paper Sec. 5.5).

The client runs *inside* the writing process (e.g. an HBase
Regionserver), which is why ``DataStreamer`` and ``ResponseProcessor``
tasks appear on Regionserver hosts in the paper's Fig. 10(a).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import NodeRuntime
from repro.simsys import Environment, Event, QueueClosed, SimQueue, SimulatedIOError
from repro.simsys.threads import SimThread

from .datanode import CLOSE_PACKET, _Packet
from .logpoints import HdfsLogPoints
from .namenode import Block


class DfsWriteStream:
    """An open block write pipeline, driven by two client-side stages."""

    def __init__(self, client: "DFSClient", block: Block):
        self.client = client
        self.env = client.env
        self.block = block
        self._seq = 0
        self._packets = SimQueue(self.env, name=f"ds-{block.block_id}")
        self._acks = SimQueue(self.env, name=f"rp-{block.block_id}")
        self._waiters: Dict[int, Event] = {}
        self.closed = False
        self.bytes_written = 0
        self.failed = False
        self._close_event = Event(self.env)
        self._streamer = SimThread(
            self.env, target=self._streamer_loop(), name=f"{client.host_name}-ds"
        )
        self._responder = SimThread(
            self.env, target=self._responder_loop(), name=f"{client.host_name}-rp"
        )

    # -- caller API -----------------------------------------------------------
    def write_sync(self, nbytes: int, timeout_s: float = 2.0, empty: bool = False):
        """Generator: send one packet and wait for its pipeline ack.

        Returns True when the ack arrived within the timeout.
        """
        if self.closed:
            return False
        self._seq += 1
        seqno = self._seq
        waiter = Event(self.env)
        self._waiters[seqno] = waiter
        self._packets.try_put(_Packet(seqno, 0 if empty else nbytes, empty=empty))
        yield self.env.deadline(waiter, timeout_s)
        self._waiters.pop(seqno, None)
        if waiter.triggered:
            self.bytes_written += nbytes
            return True
        self.failed = True
        return False

    def close(self, timeout_s: float = 3.0):
        """Generator: close the pipeline and finalize the block."""
        if self.closed:
            return True
        self.closed = True
        self._packets.try_put(_Packet(CLOSE_PACKET, 0))
        yield self.env.deadline(self._close_event, timeout_s)
        self._packets.close()
        self._acks.close()
        self.client.cluster.unregister_stream(self.block.block_id)
        self.client.namenode.finalize_block(self.block.block_id, self.bytes_written)
        return self._close_event.triggered

    # -- internal routing -------------------------------------------------------
    def deliver_ack(self, seqno: int) -> None:
        self._acks.try_put(seqno)

    def _streamer_loop(self):
        lps = self.client.lps
        log = self.client.log_ds
        runtime = self.client.runtime
        runtime.set_context("DataStreamer")
        log.debug(lps.ds_alloc.template, self.block.block_id, lpid=lps.ds_alloc.lpid)
        head = self.block.pipeline[0]
        while True:
            try:
                packet = yield self._packets.get()
            except QueueClosed:
                return
            if packet.seqno == CLOSE_PACKET:
                log.debug(lps.ds_close.template, self.block.block_id, lpid=lps.ds_close.lpid)
            else:
                log.debug(lps.ds_packet.template, packet.seqno, lpid=lps.ds_packet.lpid)
            try:
                if head != self.client.host_name:
                    yield from self.client.cluster.network.send(
                        self.client.host_name, head, max(packet.nbytes, 128)
                    )
            except SimulatedIOError:
                log.warn(lps.ds_error.template, self.block.block_id, lpid=lps.ds_error.lpid)
                continue
            datanode = self.client.cluster.datanodes.get(head)
            if datanode is not None:
                datanode.deliver_packet(self.block.block_id, packet)
            if packet.seqno == CLOSE_PACKET:
                return

    def _responder_loop(self):
        lps = self.client.lps
        log = self.client.log_rp
        runtime = self.client.runtime
        runtime.set_context("ResponseProcessor")
        while True:
            try:
                seqno = yield self._acks.get()
            except QueueClosed:
                return
            if seqno == CLOSE_PACKET:
                if not self._close_event.triggered:
                    self._close_event.succeed(True)
                return
            log.debug(lps.rp_ack.template, seqno, lpid=lps.rp_ack.lpid)
            waiter = self._waiters.get(seqno)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(True)


class DFSClient:
    """Per-process HDFS client (one per Regionserver / writer)."""

    def __init__(
        self,
        env: Environment,
        host_name: str,
        runtime: NodeRuntime,
        cluster,
        recovery_max_retries: int = 6,
        recovery_attempt_timeout_s: float = 1.0,
    ):
        self.env = env
        self.host_name = host_name
        self.runtime = runtime
        self.cluster = cluster
        self.namenode = cluster.namenode
        self.lps = cluster.lps
        self.log_ds = runtime.logger("DataStreamer")
        self.log_rp = runtime.logger("ResponseProcessor")
        self.recovery_max_retries = recovery_max_retries
        self.recovery_attempt_timeout_s = recovery_attempt_timeout_s

    def open_stream(self, ack_mode: str = "tail") -> DfsWriteStream:
        """Allocate a block and open its write pipeline.

        ``ack_mode="local"`` acknowledges on head-node persist (WAL
        hflush semantics); ``"tail"`` waits for the full pipeline.
        """
        block = self.namenode.add_block(client_host=self.host_name)
        head = self.cluster.datanodes[block.pipeline[0]]
        head.open_block(block, ack_mode=ack_mode)
        stream = DfsWriteStream(self, block)
        self.cluster.register_stream(block.block_id, stream)
        return stream

    def write_file(self, nbytes: int, chunk_bytes: int = 256 * 1024):
        """Generator: write a whole file (one block) through the pipeline.

        Returns True on success.  Used for MemStore flushes and
        compaction output.
        """
        stream = self.open_stream()
        remaining = nbytes
        ok = True
        while remaining > 0 and ok:
            chunk = min(chunk_bytes, remaining)
            ok = yield from stream.write_sync(chunk, timeout_s=5.0)
            remaining -= chunk
        closed = yield from stream.close()
        return ok and closed

    def recover_block_with_bug(self, block: Block):
        """Generator: the Sec. 5.5 premature-recovery-termination bug.

        Sends recoverBlock to the primary Data Node.  The first attempt
        times out (recovery takes seconds); every subsequent attempt gets
        the "already being recovered" reply, which this buggy client
        misinterprets as an exception and retries — until the retry
        budget is exhausted.  Returns True only if an attempt happens to
        complete within its timeout.
        """
        lps = self.lps
        primary_name = block.pipeline[0]
        for _attempt in range(self.recovery_max_retries):
            primary = self.cluster.datanodes.get(primary_name)
            if primary is None or not primary.alive:
                alive = [d for d in self.cluster.datanodes.values() if d.alive]
                if not alive:
                    return False
                primary = alive[0]
            result = primary.recover_block(block.block_id)
            yield self.env.deadline(result, self.recovery_attempt_timeout_s)
            if result.triggered and result.ok and result.value == "ok":
                return True
            # BUG: "in-progress" (and timeouts) treated as failures.
            self.log_ds.warn(
                lps.ds_error.template, block.block_id, lpid=lps.ds_error.lpid
            )
            yield self.env.timeout(0.3)
        return False
