"""S3: the Qubole/PyWren shuffle substrate — slow and billed per request.

The two properties the paper's §2/§3 discussion leans on:

1. **Throttling** — "the service usually tends to throttle when the
   aggregate throughput reaches a few thousands of requests per second"
   per bucket. Modelled as leaky buckets (one for PUT, one for GET) whose
   drain rates are the per-bucket ceilings; requests beyond the rate wait
   and the delay is recorded in ``stats.throttle_wait_s``.
2. **Per-request cost** — workloads with ~1e10 shuffle writes "can incur
   enormous total S3 related costs". Every PUT/GET is billed.

Payloads stream at a bounded per-connection rate (S3's aggregate
bandwidth is effectively unbounded at our scales, but one stream is not),
composed with the caller's own links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cloud.constants import (
    S3_GET_RATE_LIMIT,
    S3_PRICE_PER_GET,
    S3_PRICE_PER_PUT,
    S3_PUT_RATE_LIMIT,
    S3_REQUEST_LATENCY_CV,
    S3_REQUEST_LATENCY_MEAN_S,
    S3_STREAM_BYTES_PER_S,
)
from repro.storage.base import StorageService, TokenBucket

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.network import FairShareLink
    from repro.cloud.pricing import BillingMeter
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams


class S3(StorageService):
    """One S3 bucket."""

    name = "s3"

    def __init__(
        self,
        env: "Environment",
        rng: "RandomStreams",
        meter: "BillingMeter",
        put_rate_limit: float = S3_PUT_RATE_LIMIT,
        get_rate_limit: float = S3_GET_RATE_LIMIT,
        stream_bytes_per_s: float = S3_STREAM_BYTES_PER_S,
    ) -> None:
        super().__init__(env, rng, meter)
        self._put_bucket = TokenBucket(env, put_rate_limit)
        self._get_bucket = TokenBucket(env, get_rate_limit)
        self._stream_rate = stream_bytes_per_s

    def _admit(self, count: int, write: bool) -> float:
        bucket = self._put_bucket if write else self._get_bucket
        return bucket.admit_delay(count)

    def _op_latency(self, write: bool) -> float:
        return self.rng.lognormal_around(
            "s3.request", S3_REQUEST_LATENCY_MEAN_S, S3_REQUEST_LATENCY_CV)

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool):
        # Per-connection ceiling composed with the caller's links.
        events = [link.transfer(nbytes) for link in via_links]
        events.append(self.env.timeout(nbytes / self._stream_rate))
        for event in events:
            yield event

    def _bill_write(self, nbytes: float, count: int) -> float:
        return count * S3_PRICE_PER_PUT

    def _bill_read(self, nbytes: float, count: int) -> float:
        return count * S3_PRICE_PER_GET
