"""HDFS: SplitServe's common shuffle layer for VM and Lambda executors.

§4.3: *"SplitServe uses a single common high throughput storage layer,
which can be accessed by both VM and Lambda based executors"* — HDFS,
chosen for ease of implementation.

The model: a namenode (metadata RPCs, negligible data traffic) plus one
or more datanodes, each hosted on a VM whose **dedicated EBS bandwidth is
the datanode's throughput ceiling**. The paper's PageRank setup colocates
the single datanode with the Spark master on an m4.xlarge (750 Mbps EBS),
which is exactly the bottleneck its §5.2 discussion dissects.

Writes with replication ``r`` traverse the write pipeline: the block
lands on ``r`` datanodes, occupying each one's EBS channel. Reads are
served by one replica (round-robin across datanodes). The namenode also
rate-limits metadata RPCs — at very high degrees of parallelism the
M*R explosion of shuffle-block opens is what bends the Figure 4 U-curve
back up.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.cloud.constants import (
    HDFS_DEFAULT_REPLICATION,
    HDFS_REQUEST_LATENCY_CV,
    HDFS_REQUEST_LATENCY_MEAN_S,
)
from repro.storage.base import StorageService

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.network import FairShareLink
    from repro.cloud.pricing import BillingMeter
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams

#: Sustained namenode RPC capacity (requests/s) — a modest single-node
#: namenode colocated with the Spark master.
NAMENODE_RPC_RATE = 4000.0


class HDFS(StorageService):
    """A small HDFS cluster."""

    def __init__(
        self,
        env: "Environment",
        datanodes: Sequence["VirtualMachine"],
        rng: "RandomStreams",
        meter: "BillingMeter" = None,
        replication: int = HDFS_DEFAULT_REPLICATION,
        name: str = "hdfs",
    ) -> None:
        if not datanodes:
            raise ValueError("HDFS needs at least one datanode")
        if not 1 <= replication <= len(datanodes):
            raise ValueError(
                f"replication {replication} outside [1, {len(datanodes)}]")
        super().__init__(env, name, rng, meter)
        self.datanodes: List["VirtualMachine"] = list(datanodes)
        self.replication = replication
        self._placement: Dict[str, List["VirtualMachine"]] = {}
        self._write_rr = itertools.count()
        self._read_rr = itertools.count()
        self._rpc_virtual_time = -float("inf")

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _admit(self, count: int, write: bool) -> float:
        """Namenode RPC admission: a leaky bucket at NAMENODE_RPC_RATE
        with one second of burst."""
        now = self.env.now
        interval = 1.0 / NAMENODE_RPC_RATE
        earliest = max(self._rpc_virtual_time + interval, now - 1.0)
        self._rpc_virtual_time = earliest + (count - 1) * interval
        return max(0.0, self._rpc_virtual_time - now)

    def _op_latency(self, write: bool) -> float:
        return self.rng.lognormal_around(
            "hdfs.rpc", HDFS_REQUEST_LATENCY_MEAN_S, HDFS_REQUEST_LATENCY_CV)

    def _op_context(self, key: str, write: bool):
        if write:
            replicas = self._pick_replicas()
            if key is not None:
                self._placement[key] = replicas
            return replicas
        if key is not None and key in self._placement:
            replicas = self._placement[key]
            return [replicas[next(self._read_rr) % len(replicas)]]
        return [self.datanodes[next(self._read_rr) % len(self.datanodes)]]

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool,
                       context=None):
        nodes = context
        if nodes is None:
            nodes = (self._pick_replicas() if write
                     else [self.datanodes[next(self._read_rr)
                                          % len(self.datanodes)]])
        links = list(via_links)
        for i, node in enumerate(nodes):
            links.append(node.ebs_link)
            if write and i > 0:
                # Pipeline hop between replicas crosses their NICs too.
                links.append(node.net_link)
        yield from self._transfer_all(links, nbytes)

    # ------------------------------------------------------------------

    def _pick_replicas(self) -> List["VirtualMachine"]:
        """Round-robin block placement across datanodes."""
        start = next(self._write_rr)
        n = len(self.datanodes)
        return [self.datanodes[(start + i) % n] for i in range(self.replication)]

    def delete(self, key: str) -> None:
        super().delete(key)
        self._placement.pop(key, None)

    def placement_of(self, key: str) -> List[str]:
        """Names of the datanodes holding ``key`` (for tests/analysis)."""
        return [vm.name for vm in self._placement.get(key, [])]
