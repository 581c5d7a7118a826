"""The common storage-service protocol: request batches.

Every service serves one operation, the *request batch*:
``batch_write``/``batch_read`` issue ``count`` requests carrying
``total_bytes`` overall and return an event whose completion time models
the service's latency, bandwidth contention, and throttling. A batch pays
admission for all its requests, per-request latency in waves of
:data:`REQUEST_PARALLELISM`, and one fused payload stream, so a
200-partition Spark SQL stage costs hundreds of *requests* (correctly
billed and throttled) without hundreds of simulated transfers. Callers
pass ``via_links`` — the fair-share links on the *caller's* side of the
path (a Lambda's NIC, a VM's network interface) — so that client-side
bottlenecks compose with service-side ones. Services keep no key
registry: which shuffle outputs exist is the
:class:`~repro.spark.shuffle.MapOutputTracker`'s business.

Services implement three hooks:

- :meth:`_admit` — request-rate admission control (S3 throttling, the
  HDFS namenode's RPC ceiling);
- :meth:`_op_latency` — per-request software/network latency;
- :meth:`_bulk_transfer` — the payload's path through the service's own
  bandwidth constraints.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.network import FairShareLink
    from repro.cloud.pricing import BillingMeter
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams

#: Requests a caller keeps in flight within one batch (in the spirit of
#: ``spark.reducer.maxReqsInFlight``).
REQUEST_PARALLELISM = 5


class TokenBucket:
    """Deterministic leaky bucket: admits ``rate_per_s`` requests/s
    sustained, with one second of burst allowance. Batch admission
    advances the virtual clock by the whole batch."""

    def __init__(self, env: "Environment", rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.env = env
        self.interval = 1.0 / rate_per_s
        self._virtual_time = -float("inf")

    def admit_delay(self, count: int) -> float:
        """Seconds the batch must wait for its last request's slot."""
        now = self.env.now
        earliest = max(self._virtual_time + self.interval, now - 1.0)
        self._virtual_time = earliest + (count - 1) * self.interval
        return max(0.0, self._virtual_time - now)


@dataclass
class StorageStats:
    """Aggregate I/O counters for one service."""

    bytes_written: float = 0.0
    bytes_read: float = 0.0
    write_requests: int = 0
    read_requests: int = 0
    #: Cumulative seconds requests spent queued behind throttling.
    throttle_wait_s: float = 0.0
    #: Extra seconds added by an active brownout (degradation_factor > 1).
    brownout_wait_s: float = 0.0


class StorageService(abc.ABC):
    """Base class: stats, billing, brownouts, and the batch plumbing."""

    #: The service's meter category (``storage:<name>``) and what a
    #: ``storage:<glob>`` fault target matches.
    name: str

    def __init__(self, env: "Environment", rng: "RandomStreams",
                 meter: "BillingMeter") -> None:
        self.env = env
        self.rng = rng
        self.meter = meter
        self.stats = StorageStats()
        #: Brownout multiplier (>= 1) stretching admission delay,
        #: per-request latency and payload transfer. 1.0 = healthy; a
        #: ``storage_brownout`` fault raises it for its window. Elevated
        #: error rates are folded in as latency (retry-until-success),
        #: which keeps the model deterministic.
        self.degradation_factor = 1.0

    # ------------------------------------------------------------------
    # Brownouts (fault injection)
    # ------------------------------------------------------------------

    def degrade(self, factor: float) -> None:
        """Enter a brownout: every operation stretched by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self.degradation_factor = float(factor)

    def restore(self) -> None:
        """Leave the brownout; subsequent operations run at full health."""
        self.degradation_factor = 1.0

    # ------------------------------------------------------------------
    # Service hooks
    # ------------------------------------------------------------------

    def _admit(self, count: int, write: bool) -> float:
        """Seconds of throttle delay before ``count`` requests may start
        (0 = no admission control)."""
        return 0.0

    def _op_latency(self, write: bool) -> float:
        """Latency of one request (drawn fresh per request)."""
        return 0.0

    @abc.abstractmethod
    def _bulk_transfer(self, nbytes: float,
                       via_links: Sequence["FairShareLink"], write: bool):
        """Generator: move the payload through the service-side and
        caller-side constraints."""

    def _bill_write(self, nbytes: float, count: int) -> float:
        """Dollar cost of ``count`` write requests (0 unless charged)."""
        return 0.0

    def _bill_read(self, nbytes: float, count: int) -> float:
        return 0.0

    # ------------------------------------------------------------------
    # Public API: request batches (fused payload, counted requests)
    # ------------------------------------------------------------------

    def batch_write(self, count: int, total_bytes: float,
                    via_links: Sequence["FairShareLink"] = ()) -> Event:
        """Issue ``count`` write requests carrying ``total_bytes`` overall;
        the event fires when the last is durable."""
        return self._start(count, total_bytes, via_links, True)

    def batch_read(self, count: int, total_bytes: float,
                   via_links: Sequence["FairShareLink"] = ()) -> Event:
        """Issue ``count`` read requests fetching ``total_bytes`` overall."""
        return self._start(count, total_bytes, via_links, False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start(self, count: int, total_bytes: float, via_links,
               write: bool) -> Event:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if total_bytes < 0:
            raise ValueError(f"total_bytes must be non-negative, got {total_bytes}")
        done = Event(self.env)
        self.env.process(self._run_io(count, float(total_bytes), via_links,
                                      write, done))
        return done

    def _run_io(self, count: int, nbytes: float, via_links, write: bool,
                done: Event):
        try:
            degraded = self.degradation_factor
            throttle = self._admit(count, write)
            if throttle > 0:
                if degraded > 1.0:
                    self.stats.brownout_wait_s += throttle * (degraded - 1.0)
                    throttle *= degraded
                self.stats.throttle_wait_s += throttle
                yield self.env.timeout(throttle)
            for _ in range(math.ceil(count / REQUEST_PARALLELISM)):
                latency = self._op_latency(write)
                if latency > 0:
                    if degraded > 1.0:
                        self.stats.brownout_wait_s += latency * (degraded - 1.0)
                        latency *= degraded
                    yield self.env.timeout(latency)
            if nbytes > 0:
                transfer_start = self.env.now
                yield from self._bulk_transfer(nbytes, via_links, write)
                if degraded > 1.0:
                    # A browned-out service streams the payload at 1/factor
                    # of its healthy rate: stretch the observed transfer.
                    stall = (self.env.now - transfer_start) * (degraded - 1.0)
                    if stall > 0:
                        self.stats.brownout_wait_s += stall
                        yield self.env.timeout(stall)
        except BaseException as exc:  # pragma: no cover - defensive
            done.fail(exc)
            return
        if write:
            self.stats.bytes_written += nbytes
            self.stats.write_requests += count
            cost = self._bill_write(nbytes, count)
        else:
            self.stats.bytes_read += nbytes
            self.stats.read_requests += count
            cost = self._bill_read(nbytes, count)
        if cost:
            self.meter.bill_storage(self.name, cost)
        done.succeed(nbytes)

    def _transfer_all(self, links, nbytes: float):
        """Yield until ``nbytes`` has crossed every link in ``links``."""
        events = [link.transfer(nbytes) for link in links]
        for event in events:
            yield event

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
