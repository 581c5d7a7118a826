"""Redis/ElastiCache: Locus's shuffle substrate — fast but expensive.

An in-memory store served by one or more dedicated cache nodes. Latency
is sub-millisecond and there are no per-request charges, but the node
itself is a large VM billed by the hour whether or not it is busy — the
paper's reason for calling this option "quite expensive" (§2).

The scenario driver is responsible for billing the node-hours via
:meth:`bill_node_hours`; reads and writes contend on the cluster's
aggregate throughput link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cloud.constants import (
    REDIS_NODE_BYTES_PER_S,
    REDIS_NODE_PRICE_PER_HOUR,
    REDIS_REQUEST_LATENCY_CV,
    REDIS_REQUEST_LATENCY_MEAN_S,
    SECONDS_PER_HOUR,
)
from repro.cloud.network import FairShareLink
from repro.storage.base import StorageService

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.pricing import BillingMeter
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams


class RedisStore(StorageService):
    """An in-memory cache cluster of ``nodes`` identical nodes."""

    def __init__(
        self,
        env: "Environment",
        rng: "RandomStreams",
        meter: "BillingMeter" = None,
        name: str = "redis",
        nodes: int = 1,
    ) -> None:
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        super().__init__(env, name, rng, meter)
        self.nodes = nodes
        # One shared link models the cluster's aggregate throughput; keys
        # hash across nodes, so aggregate scaling is linear in practice.
        self._link = FairShareLink(
            env, REDIS_NODE_BYTES_PER_S * nodes, name=f"{name}/mem")

    def _op_latency(self, write: bool) -> float:
        return self.rng.lognormal_around(
            "redis.request", REDIS_REQUEST_LATENCY_MEAN_S,
            REDIS_REQUEST_LATENCY_CV)

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool,
                       context=None):
        yield from self._transfer_all([self._link, *via_links], nbytes)

    def bill_node_hours(self, duration_s: float) -> float:
        """Bill the cache nodes for ``duration_s`` of wall-clock existence
        (minimum one hour per node, as ElastiCache bills)."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        hours = max(1.0, duration_s / SECONDS_PER_HOUR)
        cost = self.nodes * REDIS_NODE_PRICE_PER_HOUR * hours
        if self.meter is not None:
            self.meter.bill_storage(self.name, cost)
        return cost
