"""Cluster assembly for the Cassandra simulation."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import SAAD, SAADConfig
from repro.simsys import Cluster, Environment, FaultSchedule, FaultSpec

from .config import CassandraConfig
from .logpoints import CassandraLogPoints
from .node import CassandraNode, ClientOp
from .ring import TokenRing


class CassandraCluster:
    """A complete simulated Cassandra deployment with SAAD installed.

    Builds the simulation environment, the hosts, the token ring, one
    :class:`CassandraNode` per host, and a SAAD node runtime on each.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        seed: int = 42,
        config: Optional[CassandraConfig] = None,
        saad_config: Optional[SAADConfig] = None,
        env: Optional[Environment] = None,
        tracker_enabled: bool = True,
        log_level: Optional[int] = None,
        tracing: bool = False,
    ):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.env = env or Environment()
        self.config = config or CassandraConfig()
        if self.config.replication_factor > n_nodes:
            self.config.replication_factor = n_nodes
        host_names = [f"host{i + 1}" for i in range(n_nodes)]
        self.sim_cluster = Cluster(self.env, host_names, seed=seed)
        self.network = self.sim_cluster.network
        self.ring = TokenRing(host_names, self.config.replication_factor)
        self.saad = SAAD(saad_config or SAADConfig(), tracing=tracing)
        self.lps = CassandraLogPoints(self.saad)
        self.nodes: Dict[str, CassandraNode] = {}
        node_kwargs = {"tracker_enabled": tracker_enabled}
        if log_level is not None:
            node_kwargs["log_level"] = log_level
        for index, name in enumerate(host_names):
            runtime = self.saad.add_sim_node(name, self.env, **node_kwargs)
            self.nodes[name] = CassandraNode(
                env=self.env,
                host=self.sim_cluster[name],
                runtime=runtime,
                lps=self.lps,
                config=self.config,
                cluster=self,
                seed=self.sim_cluster.seeds.child_seed(f"{name}/cassandra"),
            )

    @property
    def node_list(self) -> List[CassandraNode]:
        return list(self.nodes.values())

    def fault_schedule_for(self, host_name: str) -> FaultSchedule:
        """A fault schedule bound to one host's injector."""
        return FaultSchedule(self.env, self.sim_cluster[host_name].fault_injector)

    def arm_fault(self, host_name: str, fault: FaultSpec) -> None:
        self.sim_cluster[host_name].fault_injector.arm(fault)

    def run(self, until: float) -> None:
        self.env.run(until=until)
