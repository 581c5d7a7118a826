"""Simulated FaaS cloud functions (AWS Lambda-style).

Models every Lambda property §3 of the paper identifies as a design
constraint:

- memory-indexed capacity: one full vCPU per 1536 MB, fractional below;
- warm starts (~100 ms) vs cold starts (several seconds);
- a hard 15 minute lifetime after which the provider reaps the container;
- network bandwidth proportional to allocated memory;
- no inbound connectivity (peers cannot push data to a Lambda — all state
  exchange must go through external storage, which is why SplitServe needs
  its HDFS shuffle layer).

The 512 MB /tmp limit is not modelled: a Lambda executor's local writes
are memory-fast and unbounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cloud.constants import (
    LAMBDA_COLD_START_CV,
    LAMBDA_COLD_START_MEAN_S,
    LAMBDA_LIFETIME_S,
    LAMBDA_MAX_MEMORY_MB,
    LAMBDA_MB_PER_VCPU,
    LAMBDA_NET_BYTES_PER_S_PER_MB,
    LAMBDA_WARM_START_CV,
    LAMBDA_WARM_START_MEAN_S,
)
from repro.cloud.network import FairShareLink
from repro.observability.categories import (
    CAT_LAMBDA,
    EV_EXPIRED,
    EV_FINISHED,
    EV_INVOKED,
    EV_RUNNING,
)
from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder


class LambdaInvokeError(RuntimeError):
    """An invocation failed at the provider (transient service error)."""


class LambdaThrottledError(LambdaInvokeError):
    """The account's concurrent-execution limit rejected the invocation
    (AWS's 429 ``TooManyRequestsException``). A subclass of
    :class:`LambdaInvokeError` so one retry path handles both."""


class LambdaState(enum.Enum):
    STARTING = "starting"
    RUNNING = "running"
    FINISHED = "finished"
    EXPIRED = "expired"  # reaped by the provider at the lifetime cap


@dataclass(frozen=True)
class LambdaConfig:
    """Invocation-time configuration of a function."""

    memory_mb: int = LAMBDA_MB_PER_VCPU
    lifetime_s: float = LAMBDA_LIFETIME_S

    def __post_init__(self) -> None:
        if not 128 <= self.memory_mb <= LAMBDA_MAX_MEMORY_MB:
            raise ValueError(
                f"memory_mb must be in [128, {LAMBDA_MAX_MEMORY_MB}], "
                f"got {self.memory_mb}")
        if self.lifetime_s <= 0:
            raise ValueError(f"lifetime_s must be positive, got {self.lifetime_s}")

    @property
    def cpu_share(self) -> float:
        """Fraction of one vCPU this memory size buys (capped at 2 vCPUs
        at the top of the range, matching AWS's allocation curve)."""
        return min(2.0, self.memory_mb / LAMBDA_MB_PER_VCPU)

    @property
    def network_bytes_per_s(self) -> float:
        return LAMBDA_NET_BYTES_PER_S_PER_MB * self.memory_mb

    @property
    def memory_bytes(self) -> int:
        return self.memory_mb * 1024 * 1024


class LambdaInstance:
    """One invoked function container.

    ``ready`` fires when the container finishes its (warm or cold) start.
    ``expired`` fires if the provider reaps the container at the lifetime
    cap while it is still running — work on it at that moment is lost,
    exactly the failure SplitServe's segueing is designed to pre-empt.
    Either stop — :meth:`finish` or the reap — calls the provider's
    ``on_stop`` hook once, which bills the container.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        config: LambdaConfig,
        rng: "RandomStreams",
        warm: bool,
        on_stop: Callable[["LambdaInstance"], None],
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.config = config
        self.warm_start = warm
        self._trace = trace
        #: The provider's hook, called once when the container stops
        #: (the function returned or the reaper took it).
        self._on_stop = on_stop
        self.state = LambdaState.STARTING
        self.invoke_time = env.now
        self.running_time: Optional[float] = None
        self.finish_time: Optional[float] = None

        self.ready: Event = Event(env)
        self.expired: Event = Event(env)

        self.net_link = FairShareLink(
            env, config.network_bytes_per_s, name=f"{name}/net")

        if warm:
            start_delay_s = rng.lognormal_around(
                "lambda.warm_start", LAMBDA_WARM_START_MEAN_S,
                LAMBDA_WARM_START_CV)
        else:
            start_delay_s = rng.lognormal_around(
                "lambda.cold_start", LAMBDA_COLD_START_MEAN_S,
                LAMBDA_COLD_START_CV)
        env.process(self._lifecycle(start_delay_s))
        self._record(EV_INVOKED, warm=warm, start_delay=start_delay_s)

    # ------------------------------------------------------------------

    def _lifecycle(self, start_delay: float):
        yield self.env.timeout(start_delay)
        if self.state is not LambdaState.STARTING:
            return  # finished (cancelled) during startup
        self.state = LambdaState.RUNNING
        self.running_time = self.env.now
        self.ready.succeed(self)
        self._record(EV_RUNNING)

        # Lifetime reaper: counts from invocation, as AWS does.
        remaining = self.config.lifetime_s - (self.env.now - self.invoke_time)
        yield self.env.timeout(max(0.0, remaining))
        if self.state is LambdaState.RUNNING:
            self.state = LambdaState.EXPIRED
            self.finish_time = self.env.now
            self.expired.succeed(self)
            self._record(EV_EXPIRED)
            self._on_stop(self)

    def finish(self) -> None:
        """The function returned (the executor on it shut down cleanly).
        A container that has already stopped is left as it is."""
        if self.state in (LambdaState.FINISHED, LambdaState.EXPIRED):
            return
        self.state = LambdaState.FINISHED
        self.finish_time = self.env.now
        self._record(EV_FINISHED)
        self._on_stop(self)

    # ------------------------------------------------------------------

    @property
    def state(self) -> LambdaState:
        return self._state

    @state.setter
    def state(self, value: LambdaState) -> None:
        # Same plain-attribute ``is_running`` scheme as VirtualMachine:
        # hot readers pay an attribute load, rare transitions pay the
        # property setter.
        self._state = value
        self.is_running = value is LambdaState.RUNNING

    def _record(self, event: str, **fields) -> None:
        if self._trace is not None:
            self._trace.record(self.env.now, CAT_LAMBDA, event,
                               fn=self.name, memory_mb=self.config.memory_mb,
                               **fields)

    def __repr__(self) -> str:
        return f"<Lambda {self.name} {self.config.memory_mb}MB {self.state.value}>"
