"""SQS: Flint's shuffle substrate — queue semantics, chunked messages.

Blobs larger than the 256 KB message cap are split into chunks; every
chunk costs one SEND on write and one RECEIVE plus one DELETE on read.
Good throughput for many small writes (the paper: "a better fit for a
high number of small writes"), but the per-request fees triple relative
to S3's read path and large blobs pay heavy chunking overhead.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.cloud.constants import (
    SQS_MAX_MESSAGE_BYTES,
    SQS_PRICE_PER_REQUEST,
    SQS_REQUEST_LATENCY_CV,
    SQS_REQUEST_LATENCY_MEAN_S,
)
from repro.storage.base import StorageService

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.network import FairShareLink

#: Effective per-connection streaming rate to SQS.
_SQS_STREAM_BYTES_PER_S = 30.0 * 1024 * 1024


class SQSQueue(StorageService):
    """One SQS queue used as a blob store via message chunking.

    Callers issue the same request batches as on every other service,
    but chunk counts drive the bills and the extra latency waves: a
    payload past 256 KB is split into messages internally.
    """

    name = "sqs"

    @staticmethod
    def chunks_for(nbytes: float) -> int:
        """Number of 256 KB messages a blob of ``nbytes`` needs."""
        if nbytes <= 0:
            return 1
        return max(1, math.ceil(nbytes / SQS_MAX_MESSAGE_BYTES))

    def _op_latency(self, write: bool) -> float:
        # One latency per request wave; the chunk count is folded into
        # billing and into the extra latency waves of _bulk_transfer.
        return self.rng.lognormal_around(
            "sqs.request", SQS_REQUEST_LATENCY_MEAN_S, SQS_REQUEST_LATENCY_CV)

    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool):
        # Chunking latency: beyond the base request, each extra wave of
        # 8 pipelined chunks pays one more round trip.
        extra_waves = max(0, math.ceil(self.chunks_for(nbytes) / 8) - 1)
        for _ in range(extra_waves):
            yield self.env.timeout(self._op_latency(write))
        events = [link.transfer(nbytes) for link in via_links]
        events.append(self.env.timeout(nbytes / _SQS_STREAM_BYTES_PER_S))
        for event in events:
            yield event

    def _bill_write(self, nbytes: float, count: int) -> float:
        # One SEND per chunk. nbytes is the batch's fused payload: the
        # chunk count scales with the payload, lower-bounded by count.
        chunks = max(count, self.chunks_for(nbytes))
        return chunks * SQS_PRICE_PER_REQUEST

    def _bill_read(self, nbytes: float, count: int) -> float:
        # One RECEIVE + one DELETE per chunk.
        chunks = max(count, self.chunks_for(nbytes))
        return 2 * chunks * SQS_PRICE_PER_REQUEST
