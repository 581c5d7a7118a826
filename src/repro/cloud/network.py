"""Fair-share bandwidth links (processor-sharing queues over bytes).

A :class:`FairShareLink` models a capacity-limited pipe — a VM's dedicated
EBS channel, a Lambda's NIC, an instance's network interface. Concurrent
transfers share the capacity equally (processor sharing), which is the
standard fluid approximation for TCP flows over a common bottleneck and
for EBS traffic under the dedicated-bandwidth cap.

The SplitServe evaluation hinges on this model: the single HDFS node's
750 Mbps EBS link is the shared bottleneck that all Lambda shuffle traffic
squeezes through (§5.2, PageRank discussion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment


class _Transfer:
    __slots__ = ("remaining", "event", "total")

    def __init__(self, nbytes: float, event: Event) -> None:
        self.total = float(nbytes)
        self.remaining = float(nbytes)
        self.event = event


class FairShareLink:
    """A pipe of fixed capacity shared equally by concurrent transfers."""

    #: Bytes below which a transfer is considered finished (float slack).
    _EPS = 1e-6

    def __init__(self, env: "Environment", capacity_bytes_per_s: float,
                 name: str = "link") -> None:
        if capacity_bytes_per_s <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes_per_s}")
        self.env = env
        self.name = name
        self._capacity = float(capacity_bytes_per_s)
        self._active: List[_Transfer] = []
        self._last_update = env.now
        self._epoch = 0
        self._bytes_moved = 0.0
        # Cached min(t.remaining for t in _active), inf when idle.
        # Uniform subtraction preserves float ordering (a <= b implies
        # a-m <= b-m), so maintaining the min incrementally — subtract
        # on advance, min() on admit, recompute on completion — yields
        # the exact value a fresh scan would, and both the completion
        # test and the wake-up scheduling become O(1).
        self._min_remaining = float("inf")

    @property
    def capacity_bytes_per_s(self) -> float:
        return self._capacity

    @property
    def bytes_moved(self) -> float:
        """Total bytes delivered since creation (for utilization stats)."""
        self._advance()
        return self._bytes_moved

    def transfer(self, nbytes: float) -> Event:
        """Start moving ``nbytes``; the returned event fires on completion.

        Zero-byte transfers complete immediately (still one event).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        event = Event(self.env)
        if nbytes == 0:
            event.succeed(0.0)
            return event
        self._advance()
        t = _Transfer(nbytes, event)
        self._active.append(t)
        if t.remaining < self._min_remaining:
            self._min_remaining = t.remaining
        self._reschedule()
        return event

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        """Account progress since the last state change."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        active = self._active
        if not active:
            return
        moved = 0.0
        if elapsed > 0:
            moved = (self._capacity / len(active)) * elapsed
        eps = self._EPS
        # Fast path: nothing completes this advance (the common case on
        # mid-flight re-entries) — update progress in place, no list
        # rebuild, no event firing. ``min_remaining - moved <= eps`` is
        # exactly "some transfer meets the completion predicate of the
        # general loop below", so the two paths agree bit-for-bit on
        # who finishes when.
        if self._min_remaining - moved > eps:
            if moved:
                bytes_moved = self._bytes_moved
                for t in active:
                    t.remaining -= moved
                    bytes_moved += moved
                self._bytes_moved = bytes_moved
                self._min_remaining -= moved
            return
        still_active: List[_Transfer] = []
        for t in active:
            delivered = min(moved, t.remaining)
            t.remaining -= delivered
            self._bytes_moved += delivered
            if t.remaining <= eps:
                # Flush float dust so near-complete transfers finish even
                # on a zero-elapsed re-entry (prevents 0-delay wake loops).
                self._bytes_moved += t.remaining
                t.remaining = 0.0
                t.event.succeed(t.total)
            else:
                still_active.append(t)
        self._active = still_active
        self._min_remaining = min(
            [t.remaining for t in still_active], default=float("inf"))

    def _reschedule(self) -> None:
        """Arrange a wake-up at the next transfer completion time."""
        self._epoch += 1
        if not self._active:
            return
        epoch = self._epoch
        shortest = self._min_remaining
        # Floor the wake delay so float dust can never produce a
        # zero-advance busy loop.
        dt = shortest * len(self._active) / self._capacity
        if dt < 1e-9:
            dt = 1e-9
        timeout = self.env.timeout(dt)
        timeout.callbacks.append(lambda _ev: self._on_wake(epoch))

    def _on_wake(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # state changed since this wake-up was scheduled
        self._advance()
        self._reschedule()


def transfer_via(env: "Environment", links: Iterable[FairShareLink],
                 nbytes: float) -> Event:
    """Move ``nbytes`` across a path of links; completes when the slowest
    segment finishes.

    Each link on the path is occupied for its own fair-share duration, so
    contention at *every* hop (e.g. a Lambda's NIC *and* the HDFS node's
    EBS channel) is accounted for. The completion time is the maximum of
    the per-hop times — the fluid approximation of a pipelined stream
    whose throughput is set by the instantaneous bottleneck.
    """
    events = [link.transfer(nbytes) for link in links]
    if not events:
        done = Event(env)
        done.succeed(nbytes)
        return done
    if len(events) == 1:
        return events[0]
    from repro.simulation.events import AllOf

    condition = AllOf(env, events)
    done = Event(env)
    condition.callbacks.append(lambda _ev: done.succeed(nbytes))
    return done
