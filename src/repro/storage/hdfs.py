"""HDFS: SplitServe's common shuffle layer for VM and Lambda executors.

§4.3: *"SplitServe uses a single common high throughput storage layer,
which can be accessed by both VM and Lambda based executors"* — HDFS,
chosen for ease of implementation.

The model: a namenode (metadata RPCs, negligible data traffic) plus one
datanode hosted on a VM whose **dedicated EBS bandwidth is the
datanode's throughput ceiling**. The paper colocates that datanode with
the Spark master on an m4.xlarge (750 Mbps EBS), which is exactly the
bottleneck its §5.2 discussion dissects. The namenode rate-limits
metadata RPCs — at very high degrees of parallelism the M*R explosion
of shuffle-block opens is what bends the Figure 4 U-curve back up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cloud.constants import (
    HDFS_REQUEST_LATENCY_CV,
    HDFS_REQUEST_LATENCY_MEAN_S,
)
from repro.storage.base import StorageService, TokenBucket

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
    """A namenode plus one datanode on ``datanode``'s VM."""

    name = "hdfs"

    def __init__(self, env: "Environment", datanode: "VirtualMachine",
                 rng: "RandomStreams", meter: "BillingMeter") -> None:
        super().__init__(env, rng, meter)
        self.datanode = datanode
        self._namenode = TokenBucket(env, NAMENODE_RPC_RATE)

    def _admit(self, count: int, write: bool) -> float:
        return self._namenode.admit_delay(count)

    def _op_latency(self, write: bool) -> float:
        return self.rng.lognormal_around(
            "hdfs.rpc", HDFS_REQUEST_LATENCY_MEAN_S, HDFS_REQUEST_LATENCY_CV)

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool):
        yield from self._transfer_all([*via_links, self.datanode.ebs_link],
                                      nbytes)
