"""HBase-on-HDFS cluster assembly (the paper's Sec. 5.2 testbed).

Each of the four worker hosts runs a Data Node and a Regionserver; the
HBase Master and HDFS NameNode live on a dedicated master host.  Region
assignment is intentionally skewed (Regionservers 1 and 2 carry more
regions), matching the paper's observation that only the loaded servers
flag under the low-intensity fault.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cassandra.ring import hash_key
from repro.core import SAAD, SAADConfig
from repro.simsys import Cluster, Environment, Event, HogSchedule

from repro.hdfs import HdfsCluster

from .config import HBaseConfig
from .logpoints import HBaseLogPoints
from .master import HMaster
from .regionserver import RegionServer


class HBaseOp:
    """One HBase client operation (read / write / batched multi-put)."""

    __slots__ = ("kind", "key", "value", "value_bytes", "edits")

    def __init__(self, kind: str, key: str, value=None, value_bytes: int = 1024, edits: int = 1):
        self.kind = kind
        self.key = key
        self.value = value
        self.value_bytes = value_bytes
        self.edits = edits


class HBaseCluster:
    """Regionservers + embedded HDFS + master, with SAAD installed."""

    def __init__(
        self,
        n_servers: int = 4,
        seed: int = 42,
        config: Optional[HBaseConfig] = None,
        saad_config: Optional[SAADConfig] = None,
        region_skew: Optional[List[int]] = None,
        tracker_enabled: bool = True,
        log_level: Optional[int] = None,
    ):
        if n_servers < 1:
            raise ValueError("cluster needs at least one regionserver")
        self.env = Environment()
        self.config = config or HBaseConfig()
        worker_hosts = [f"host{i + 1}" for i in range(n_servers)]
        self.sim_cluster = Cluster(self.env, worker_hosts + ["master"], seed=seed)
        self.network = self.sim_cluster.network
        self.saad = SAAD(saad_config or SAADConfig())
        self.hdfs = HdfsCluster(
            self.env, self.sim_cluster, self.saad, worker_hosts,
            replication=min(3, n_servers),
            tracker_enabled=tracker_enabled,
            log_level=log_level,
        )
        self.lps = HBaseLogPoints(self.saad)
        self.regionservers: Dict[str, RegionServer] = {}
        self.region_owner: Dict[str, str] = {}
        for name in worker_hosts:
            runtime = self.saad.nodes[name]
            dfs = self.hdfs.client_for(
                name,
                recovery_max_retries=self.config.recovery_max_retries,
                recovery_attempt_timeout_s=self.config.recovery_attempt_timeout_s,
            )
            self.regionservers[name] = RegionServer(
                env=self.env,
                host=self.sim_cluster[name],
                runtime=runtime,
                lps=self.lps,
                dfs=dfs,
                config=self.config,
                cluster=self,
                seed=self.sim_cluster.seeds.child_seed(f"{name}/regionserver"),
            )
        self._assign_regions(region_skew)
        for rs in self.regionservers.values():
            rs.start()
        self.master = HMaster(
            self.env, self, monitor_interval_s=self.config.master_monitor_interval_s
        )

    def _assign_regions(self, region_skew: Optional[List[int]]) -> None:
        names = list(self.regionservers)
        n_regions = self.config.n_regions
        if region_skew is None:
            # Paper-like skew: the first two servers carry most regions.
            weights = [3 if i < 2 else 1 for i in range(len(names))]
        else:
            if len(region_skew) != len(names):
                raise ValueError("region_skew length must match server count")
            weights = list(region_skew)
        total_weight = sum(weights)
        assignments: List[str] = []
        for name, weight in zip(names, weights):
            count = max(1, round(n_regions * weight / total_weight))
            assignments.extend([name] * count)
        assignments = assignments[:n_regions]
        while len(assignments) < n_regions:
            assignments.append(names[-1])
        for index in range(n_regions):
            region_name = f"region-{index:02d}"
            owner = assignments[index]
            self.region_owner[region_name] = owner
            self.regionservers[owner].assign_region(region_name)

    # -- routing ------------------------------------------------------------
    def region_name_for(self, key: str) -> str:
        return f"region-{hash_key(key) % self.config.n_regions:02d}"

    def submit(self, op: HBaseOp) -> Event:
        """Route an operation to the owning Regionserver."""
        owner = self.region_owner.get(self.region_name_for(op.key))
        rs = self.regionservers.get(owner) if owner else None
        if rs is None:
            event = Event(self.env)

            def fail():
                yield self.env.timeout(0.05)
                if not event.triggered:
                    event.succeed(False)

            self.env.process(fail(), name="hbase-no-owner")
            return event
        return rs.client_call(op)

    # -- fault helpers ------------------------------------------------------
    def hog_schedule(self, entries: List[tuple]) -> HogSchedule:
        """A Table 2-style disk-hog schedule on all worker hosts."""
        hogs = [
            self.sim_cluster[name].hog
            for name in self.regionservers
        ]
        schedule = HogSchedule(self.env, hogs)
        for start_s, end_s, processes in entries:
            schedule.add(start_s, end_s, processes)
        return schedule

    def run(self, until: float) -> None:
        self.env.run(until=until)
