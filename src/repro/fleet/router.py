"""Ring-routed frame dispatch with watermark-pruned replay retention.

The router is the fleet's coordinator-side hot path, the elastic
counterpart of :class:`~repro.shard.coordinator.ShardedAnalyzer`'s
dispatch: synopses are routed **by the consistent-hash ring** into
per-analyzer buckets using the exact decode-free byte scan the static
partitioner uses (:func:`~repro.shard.partition.route_payload` is
table-agnostic — the ring only changes how the 256-entry table is
built), re-framed, and shipped over per-node :class:`FrameClient`
connections.

The part that makes membership changes *exact* (DESIGN.md §16) is the
retention buffer.  Every routed synopsis is also retained, per stage,
tagged with its window index, until the stage's owner advertises — via
the watermark record piggybacked on its acks — an event-time watermark
past that window's close horizon.  The invariant: a retained synopsis
is one whose window might still be **open** at its owner; a pruned one
is in a window the owner has provably finalized (and whose events are
therefore already emitted).  When the ring moves a stage:

* the retained synopses for that stage are **replayed** to the new
  owner through the deferred-close absorb path — rebuilding exactly
  the open windows whose events the old owner never emitted;
* a still-alive old owner is told to **disown** the stage — dropping
  its partial buckets without emitting, so the rebuilt windows are
  counted once.

Because the advertised watermark lags the true one, a window may be
finalized at a dying owner *after* its last ack; its synopses are then
replayed and the window closes twice — with identical content, since
both closings saw the identical task multiset.  The fleet merge
deduplicates value-identical events, turning that at-least-once replay
into an exactly-once event feed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.synopsis import FRAME_HEADER, MAX_FRAME_SYNOPSES, TaskSynopsis
from repro.shard.partition import route_payload
from repro.telemetry import NULL_REGISTRY

from .ring import HashRing

__all__ = ["FleetRouter"]

#: Byte offset of the synopsis start timestamp (ms, ``<Q``) inside an
#: encoded synopsis — see ``repro.core.synopsis``'s packed header
#: ``<BBIQiB`` (host, sid, uid, ts_ms, duration_us, n).
_TS_OFFSET = 6


class FleetRouter:
    """Route wire synopses across an elastic analyzer fleet.

    Parameters
    ----------
    connect:
        ``node_id -> FrameClient``-shaped factory; called once per
        routable node (and again if a node rejoins after a death).
    window_s, lateness_s:
        The detection window geometry — must match the analyzers'
        (the retention horizon is computed from it).
    vnodes:
        Virtual nodes per analyzer for the ring.
    registry:
        Telemetry registry for the ``fleet_*`` routing metrics.
    """

    def __init__(
        self,
        connect: Callable[[str], object],
        *,
        window_s: float,
        lateness_s: float = 0.0,
        vnodes: Optional[int] = None,
        registry=None,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0: {window_s}")
        self.connect = connect
        self.window_s = window_s
        self.lateness_s = lateness_s
        self.ring = HashRing(vnodes=vnodes) if vnodes else HashRing()
        self.closed = False
        self._clients: Dict[str, object] = {}
        #: Sorted routable node ids; bucket index == position here.
        self._order: List[str] = []
        #: 256-entry ``stage byte -> bucket index`` table (ring-derived).
        self._table: List[int] = []
        self._pending: List[List[bytes]] = []
        #: stage id -> [(window_index, encoded synopsis bytes), ...]
        self._retained: Dict[int, List[Tuple[int, bytes]]] = {}
        self._retained_count = 0
        registry = registry if registry is not None else NULL_REGISTRY
        registry.gauge(
            "fleet_ring_version",
            "consistent-hash ring rebuild epoch (bumps on join/leave)",
        ).set_function(lambda: self.ring.version)
        registry.gauge(
            "fleet_retained_synopses",
            "synopses retained for replay (windows not yet finalized "
            "at their owner)",
        ).set_function(lambda: self._retained_count)
        self._m_moved = registry.counter(
            "fleet_stages_moved",
            "stage bytes whose ring owner changed across membership changes",
        )
        self._m_replays = registry.counter(
            "fleet_reroute_replays",
            "retained synopses replayed to a stage's new owner",
        )
        self._m_synopses = registry.counter(
            "fleet_synopses_routed",
            "synopses routed to fleet analyzers",
            labels=("node",),
        )
        self._m_owned = registry.gauge(
            "fleet_ring_owned",
            "stage bytes owned per analyzer in the current ring table",
            labels=("node",),
        )

    # -- membership ------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Routable node ids, sorted."""
        return list(self._order)

    @property
    def ring_version(self) -> int:
        """The ring epoch stamped on current routes."""
        return self.ring.version

    def sync(self, routable: Dict[str, object]) -> List[int]:
        """Reconcile the ring with ``routable`` (``node_id -> address``).

        Adds new nodes, removes vanished ones, and runs the reroute
        protocol for every stage byte whose owner changed: replay the
        stage's retained synopses to the new owner, then disown the old
        owner if it is still routable.  Returns the moved stage bytes.

        Safe to call with an unchanged membership (no-op).  Flushes
        pending buckets first so reroute ordering is per-connection
        FIFO against everything already dispatched.
        """
        self._check_open()
        before = list(self.ring.table()) if len(self.ring) else []
        added = [n for n in routable if n not in self.ring]
        removed = [n for n in self.ring.nodes if n not in routable]
        if not added and not removed:
            return []
        self.flush()
        old_clients = dict(self._clients)
        for node_id in removed:
            self.ring.remove(node_id)
        for node_id in added:
            self.ring.add(node_id)
        for node_id in removed:
            client = self._clients.pop(node_id, None)
            if client is not None:
                try:
                    client.close()
                except OSError:
                    pass
        for node_id in added:
            if node_id not in self._clients:
                self._clients[node_id] = self.connect(node_id)
        self._order = self.ring.nodes
        after = self.ring.table()
        self._table = self.ring.index_table()
        self._pending = [[] for _ in self._order]
        for node_id in removed:
            self._m_owned.labels(node=node_id).set(0)
        for node_id, owned in self.ring.ownership().items():
            self._m_owned.labels(node=node_id).set(owned)
        moved = (
            HashRing.moved(before, after) if before else []
        )
        self._m_moved.inc(len(moved))
        self._reroute(moved, before, old_clients)
        return moved

    def _reroute(
        self,
        moved: List[int],
        before: List[str],
        old_clients: Dict[str, object],
    ) -> None:
        """Replay + disown for every moved stage (DESIGN.md §16)."""
        disown_by_old: Dict[str, List[int]] = {}
        for stage_id in moved:
            old_owner = before[stage_id]
            # Prune against the old owner's last advertised watermark
            # first: windows it provably finalized need no replay (their
            # events are already out).
            old_client = old_clients.get(old_owner)
            if old_client is not None:
                self._prune_stage(stage_id, old_client.peer_watermark)
            retained = self._retained.get(stage_id)
            if retained:
                new_client = self._clients[self.ring.table()[stage_id]]
                try:
                    for frame in self._frames_of(retained):
                        new_client.send_replay(frame)
                except (ConnectionError, OSError, TimeoutError, RuntimeError):
                    continue  # new owner gone too: the next sync re-replays
                self._m_replays.inc(len(retained))
            if old_owner in self._clients:  # still routable: must forget
                disown_by_old.setdefault(old_owner, []).append(stage_id)
        for old_owner, stages in disown_by_old.items():
            try:
                self._clients[old_owner].send_disown(stages)
            except (ConnectionError, OSError, TimeoutError, RuntimeError):
                pass  # it died after all: its partial windows die with it

    @staticmethod
    def _frames_of(retained: List[Tuple[int, bytes]]) -> List[bytes]:
        frames = []
        for start in range(0, len(retained), MAX_FRAME_SYNOPSES):
            chunk = [blob for _, blob in retained[start : start + MAX_FRAME_SYNOPSES]]
            payload = b"".join(chunk)
            frames.append(FRAME_HEADER.pack(len(payload), len(chunk)) + payload)
        return frames

    # -- dispatch --------------------------------------------------------------
    def dispatch_frame(self, frame: bytes, offset: int = 0) -> None:
        """Route one length-prefixed wire frame across the fleet."""
        if len(frame) - offset < FRAME_HEADER.size:
            raise ValueError("truncated frame header")
        length, _ = FRAME_HEADER.unpack_from(frame, offset)
        start = offset + FRAME_HEADER.size
        if len(frame) < start + length:
            raise ValueError("truncated frame payload")
        self.dispatch_payload(frame, start, start + length)

    def dispatch_payload(self, payload: bytes, offset: int, end: int) -> None:
        """Route the bare encoded synopses in ``payload[offset:end]``."""
        self._check_open()
        if not self._order:
            raise LookupError("fleet router has no routable analyzers")
        marks = [len(bucket) for bucket in self._pending]
        counts = route_payload(payload, offset, end, self._table, self._pending)
        for index, count in enumerate(counts):
            if count:
                self._m_synopses.labels(node=self._order[index]).inc(count)
                self._retain(self._pending[index], marks[index])
        self.flush()

    def dispatch(self, synopses) -> None:
        """Object-path convenience: encode and route decoded synopses."""
        parts = []
        for synopsis in synopses:
            if not isinstance(synopsis, TaskSynopsis):
                raise TypeError(f"expected TaskSynopsis, got {type(synopsis)!r}")
            parts.append(synopsis.encode())
        blob = b"".join(parts)
        self.dispatch_payload(blob, 0, len(blob))

    def _retain(self, bucket: List[bytes], start: int) -> None:
        """Tag and retain the bucket's newly routed synopses."""
        width = self.window_s
        for blob in bucket[start:]:
            ts_ms = int.from_bytes(blob[_TS_OFFSET : _TS_OFFSET + 8], "little")
            index = int((ts_ms / 1000.0) // width)
            stage_id = blob[1]
            self._retained.setdefault(stage_id, []).append((index, blob))
            self._retained_count += 1

    def flush(self) -> None:
        """Ship every pending bucket and prune retention by watermarks.

        A send to a dead analyzer is tolerated, not fatal: the frame's
        synopses are already in the retention buffer (retention happens
        at route time, before the send), so the membership change that
        follows replays them to the stage's new owner — losing the
        wire write loses nothing.
        """
        self._check_open()
        for index, bucket in enumerate(self._pending):
            if not bucket:
                continue
            node_id = self._order[index]
            client = self._clients[node_id]
            for start in range(0, len(bucket), MAX_FRAME_SYNOPSES):
                chunk = bucket[start : start + MAX_FRAME_SYNOPSES]
                payload = b"".join(chunk)
                try:
                    client.send(
                        FRAME_HEADER.pack(len(payload), len(chunk)) + payload
                    )
                except (ConnectionError, OSError, TimeoutError, RuntimeError):
                    break  # peer down: retention + reroute recover this
            bucket.clear()
        self._prune()

    # -- retention -------------------------------------------------------------
    def _prune(self) -> None:
        """Drop retained synopses their owner has provably finalized."""
        if not self._retained:
            return
        table = self.ring.table()
        marks = {
            node_id: self._clients[node_id].peer_watermark
            for node_id in self._order
        }
        for stage_id in list(self._retained):
            self._prune_stage(stage_id, marks[table[stage_id]])

    def _prune_stage(self, stage_id: int, watermark: float) -> None:
        retained = self._retained.get(stage_id)
        if not retained:
            return
        width = self.window_s
        horizon = watermark - self.lateness_s
        kept = [
            entry for entry in retained if (entry[0] + 1) * width > horizon
        ]
        if len(kept) != len(retained):
            self._retained_count -= len(retained) - len(kept)
            if kept:
                self._retained[stage_id] = kept
            else:
                del self._retained[stage_id]

    @property
    def retained_synopses(self) -> int:
        """Synopses currently held for possible replay."""
        return self._retained_count

    # -- lifecycle -------------------------------------------------------------
    def wait_acked(self, timeout: Optional[float] = None) -> None:
        """Block until every live client's sent envelopes are acked."""
        for client in self._clients.values():
            try:
                client.wait_acked(timeout)
            except (ConnectionError, OSError, TimeoutError, RuntimeError):
                pass  # peer down: handled by the next membership sync
        self._prune()

    def close(self) -> None:
        """Close every client connection.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for client in self._clients.values():
            try:
                client.close()
            except OSError:
                pass

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("fleet router is closed")
