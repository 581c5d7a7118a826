"""Redis/ElastiCache: Locus's shuffle substrate — fast but expensive.

An in-memory store served by one dedicated cache node. Latency is
sub-millisecond and there are no per-request charges, but the node
itself is a large VM billed by the hour whether or not it is busy — the
paper's reason for calling this option "quite expensive" (§2).

The scenario driver is responsible for billing the node-hours via
:meth:`bill_node_hours`; reads and writes contend on the node's
throughput link.
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
    """One in-memory cache node."""

    name = "redis"

    def __init__(self, env: "Environment", rng: "RandomStreams",
                 meter: "BillingMeter") -> None:
        super().__init__(env, rng, meter)
        self._link = FairShareLink(env, REDIS_NODE_BYTES_PER_S,
                                   name="redis/mem")

    def _op_latency(self, write: bool) -> float:
        return self.rng.lognormal_around(
            "redis.request", REDIS_REQUEST_LATENCY_MEAN_S,
            REDIS_REQUEST_LATENCY_CV)

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool):
        yield from self._transfer_all([self._link, *via_links], nbytes)

    def bill_node_hours(self, duration_s: float) -> float:
        """Bill the cache node for ``duration_s`` of wall-clock existence
        (minimum one hour, as ElastiCache bills)."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        hours = max(1.0, duration_s / SECONDS_PER_HOUR)
        cost = REDIS_NODE_PRICE_PER_HOUR * hours
        self.meter.bill_storage(self.name, cost)
        return cost
