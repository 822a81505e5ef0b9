"""The LSM store: MemTable + WAL + SSTables + compaction scheduling.

The store is deliberately policy-light: it provides the correct data-path
mechanics as simulation generators and *signals* (memtable full,
compaction needed) that the host system's stage code acts on — because in
the simulated servers it is specific stages (``Memtable``,
``CompactionManager``, ``CommitLog``...) that perform these steps and
emit the log points SAAD tracks.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.simsys import SimDisk

from .memtable import MemTable
from .sstable import SSTable, merge_entries, write_sstable
from .wal import WriteAheadLog


class LSMStore:
    """One table/column-family worth of LSM state on one node."""

    def __init__(
        self,
        disk: SimDisk,
        name: str = "store",
        memtable_flush_bytes: int = 256 * 1024,
        compaction_threshold: int = 4,
        wal_segment_bytes: int = 1 * 1024 * 1024,
    ):
        if compaction_threshold < 2:
            raise ValueError("compaction_threshold must be >= 2")
        self.disk = disk
        self.name = name
        self.memtable = MemTable(
            name=f"{name}-mem-0", flush_threshold_bytes=memtable_flush_bytes
        )
        self.memtable_flush_bytes = memtable_flush_bytes
        self.wal = WriteAheadLog(disk, name=f"{name}-wal", segment_bytes=wal_segment_bytes)
        self.sstables: List[SSTable] = []
        self.compaction_threshold = compaction_threshold
        self._memtable_counter = 0
        #: MemTables frozen and waiting to be flushed.
        self.pending_flushes: List[MemTable] = []
        self.flushes_completed = 0
        self.compactions_completed = 0

    # -- write path ----------------------------------------------------------
    def wal_append(self, nbytes: int) -> Generator:
        """Append one record to the WAL (fault target path ``"wal"``)."""
        yield from self.wal.append(nbytes)

    def apply(self, key: str, value: Any, nbytes: int, timestamp: float) -> bool:
        """Apply a mutation to the active MemTable (no I/O).

        Returns True when this mutation filled the MemTable, i.e. the
        caller should arrange a flush (the paper's "task that adds the
        last entry must flush").
        """
        self.memtable.put(key, value, nbytes, timestamp)
        return self.memtable.is_full

    def switch_memtable(self) -> MemTable:
        """Freeze the active MemTable and install a fresh one."""
        frozen = self.memtable
        frozen.freeze()
        self.pending_flushes.append(frozen)
        self._memtable_counter += 1
        self.memtable = MemTable(
            name=f"{self.name}-mem-{self._memtable_counter}",
            flush_threshold_bytes=self.memtable_flush_bytes,
        )
        self.wal.seal_active()
        return frozen

    def flush(self, memtable: MemTable) -> Generator:
        """Process generator: persist a frozen MemTable as an SSTable.

        Raises on injected ``"sstable"``-path I/O errors; the caller owns
        retry policy.  On success the MemTable leaves ``pending_flushes``.
        """
        if not memtable.frozen:
            raise RuntimeError("flush requires a frozen memtable")
        sstable = yield from write_sstable(
            memtable.sorted_items(), self.disk, name=f"{self.name}-sst"
        )
        self.sstables.append(sstable)
        if memtable in self.pending_flushes:
            self.pending_flushes.remove(memtable)
        self.flushes_completed += 1
        return sstable

    def trim_wal(self) -> Generator:
        """Process generator: discard sealed WAL segments after a flush."""
        discarded = yield from self.wal.trim()
        return discarded

    # -- read path -------------------------------------------------------------
    def get(self, key: str) -> Generator:
        """Process generator: read a key (memtables first, then SSTables).

        Returns the freshest value or None.
        """
        best: Optional[Tuple[Any, float]] = None
        hit = self.memtable.get(key)
        if hit is not None:
            best = hit
        for pending in self.pending_flushes:
            hit = pending.get(key)
            if hit is not None and (best is None or hit[1] >= best[1]):
                best = hit
        # Newest SSTables first; a newer-timestamped hit always wins.
        for sstable in reversed(self.sstables):
            if not sstable.might_contain(key):
                continue
            hit = yield from sstable.read(key)
            if hit is not None and (best is None or hit[1] >= best[1]):
                best = hit
        return best[0] if best is not None else None

    # -- compaction ---------------------------------------------------------------
    @property
    def needs_compaction(self) -> bool:
        return len(self.sstables) >= self.compaction_threshold

    def compact(self, major: bool = False) -> Generator:
        """Process generator: merge SSTables into one.

        Minor compaction merges the oldest ``compaction_threshold`` tables;
        major compaction merges everything.  Reads cost ``"data"``-path I/O,
        the merged output is written on the ``"sstable"`` path (so the
        paper's MemTable-flush faults hit compaction too).
        """
        if major:
            victims = list(self.sstables)
        else:
            victims = self.sstables[: self.compaction_threshold]
        if len(victims) < 2:
            return None
        for victim in victims:
            yield from self.disk.read(max(victim.size_bytes, 512), path="data")
        merged = merge_entries(victims)
        survivor = yield from write_sstable(
            merged, self.disk, name=f"{self.name}-sst-compacted"
        )
        self.sstables = [s for s in self.sstables if s not in victims]
        # Compacted output is the oldest data: it must sit *below* any
        # table that was not part of the merge.
        self.sstables.insert(0, survivor)
        self.compactions_completed += 1
        return survivor

    # -- introspection -----------------------------------------------------------
