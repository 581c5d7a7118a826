"""The cloud-provider facade: VM fleet, Lambda warm pool, billing hooks.

:class:`CloudProvider` owns:

- the VM fleet (request / terminate, with realistic provisioning delays);
- the Lambda warm pool — containers of a given memory size that finished
  recently are reusable for ~90 minutes, so subsequent invocations start
  warm (the paper's experiments run against a warmed pool; cold-start
  behaviour is reproducible by draining the pool);
- the :class:`~repro.cloud.pricing.BillingMeter` for marginal-cost
  accounting, and the run's metrics registry, both handed in by the
  world that owns them (:class:`~repro.cluster.runtime.ClusterRuntime`).

It is the one owner of a Lambda container's bill. Every container it
invokes stops once — its function returns (``LambdaInstance.finish()``)
or the lifetime reaper takes it — and that stop bills invocation → stop
and decides whether the container rejoins the warm pool. Callers only
say that a function returned.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cloud.constants import LAMBDA_WARM_KEEPALIVE_S
from repro.cloud.instance_types import InstanceType, instance_type
from repro.cloud.lambda_fn import (
    LambdaConfig,
    LambdaInstance,
    LambdaState,
    LambdaThrottledError,
)
from repro.cloud.vm import VirtualMachine
from repro.observability.categories import (
    CAT_PROVIDER,
    EV_LAMBDA_INVOKE_FAILED,
    EV_LAMBDA_THROTTLED,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.pricing import BillingMeter
    from repro.observability.metrics import MetricsRegistry
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder


class CloudProvider:
    """Simulated public-cloud control plane."""

    def __init__(
        self,
        env: "Environment",
        rng: "RandomStreams",
        meter: "BillingMeter",
        metrics: "MetricsRegistry",
        trace: Optional["TraceRecorder"] = None,
        warm_pool_size: int = 10_000,
    ) -> None:
        self.env = env
        self.rng = rng
        self.trace = trace
        self.meter = meter
        #: ``cloud.*`` counters land here, so the counts reach
        #: RunRecord.metrics.
        self.metrics = metrics
        self.vms: List[VirtualMachine] = []
        self.lambdas: List[LambdaInstance] = []
        #: memory_mb -> list of sim-times at which a container went idle;
        #: each entry is one reusable warm container.
        self._warm_pool: Dict[int, List[float]] = {}
        self._initial_warm = warm_pool_size
        self._vm_ids = itertools.count()
        self._lambda_ids = itertools.count()
        #: Account-level concurrent-execution cap; invocations beyond it
        #: raise :class:`LambdaThrottledError` (None = unlimited). Set
        #: statically or by a ``lambda_throttle`` fault window.
        self.concurrency_limit: Optional[int] = None
        #: Optional per-invocation failure hook (wired by the fault
        #: injector): a callable returning an exception to raise, or None
        #: to admit the invocation.
        self.invoke_fault = None
        self.throttled_invocations = 0
        self.failed_invocations = 0

    # ------------------------------------------------------------------
    # VMs
    # ------------------------------------------------------------------

    def request_vm(
        self,
        itype: "InstanceType | str",
        name: Optional[str] = None,
        already_running: bool = False,
        boot_delay_s: Optional[float] = None,
    ) -> VirtualMachine:
        """Ask for a new instance. ``already_running=True`` models capacity
        that was provisioned before the scenario began (the 'r cores
        available' starting condition)."""
        if isinstance(itype, str):
            itype = instance_type(itype)
        if name is None:
            name = f"vm-{next(self._vm_ids)}"
        self.metrics.counter("cloud.vm.requested").inc()
        vm = VirtualMachine(
            self.env, name, itype, self.rng, trace=self.trace,
            boot_delay_s=boot_delay_s, already_running=already_running)
        self.vms.append(vm)
        return vm

    @property
    def running_vms(self) -> List[VirtualMachine]:
        return [vm for vm in self.vms if vm.is_running]

    # ------------------------------------------------------------------
    # Lambdas
    # ------------------------------------------------------------------

    def invoke_lambda(
        self,
        config: Optional[LambdaConfig] = None,
        name: Optional[str] = None,
        force_cold: bool = False,
    ) -> LambdaInstance:
        """Invoke one function; warm-start if the pool has a live container
        of the same memory size. The container is billed when it stops;
        a caller whose function is done calls its ``finish()``.

        Raises :class:`LambdaThrottledError` past the account concurrency
        limit, or whatever the injected ``invoke_fault`` hook returns —
        callers own the retry policy.
        """
        if config is None:
            config = LambdaConfig()
        if (self.concurrency_limit is not None
                and self.active_lambda_count >= self.concurrency_limit):
            self.throttled_invocations += 1
            self.metrics.counter("cloud.lambda.throttles").inc()
            self._record(EV_LAMBDA_THROTTLED, limit=self.concurrency_limit,
                         active=self.active_lambda_count)
            raise LambdaThrottledError(
                f"concurrency limit {self.concurrency_limit} reached "
                f"({self.active_lambda_count} active)")
        if self.invoke_fault is not None:
            error = self.invoke_fault()
            if error is not None:
                self.failed_invocations += 1
                self.metrics.counter("cloud.lambda.invoke_failures").inc()
                self._record(EV_LAMBDA_INVOKE_FAILED, error=str(error))
                raise error
        if name is None:
            name = f"lambda-{next(self._lambda_ids)}"
        warm = (not force_cold) and self._take_warm(config.memory_mb)
        self.metrics.counter("cloud.lambda.invocations").inc()
        self.metrics.counter("cloud.lambda.warm_starts" if warm
                             else "cloud.lambda.cold_starts").inc()
        instance = LambdaInstance(
            self.env, name, config, self.rng, warm, self._stopped,
            trace=self.trace)
        self.lambdas.append(instance)
        return instance

    def _stopped(self, instance: LambdaInstance) -> None:
        """A container's one stop: its function returned
        (:meth:`LambdaInstance.finish`) or the reaper took it at the
        lifetime cap. Bill invocation → stop (§5.1's marginal cost, in
        GB-seconds); only a container whose function returned rejoins
        the warm pool."""
        self.meter.bill_lambda(instance.name, instance.config.memory_mb,
                               instance.invoke_time, instance.finish_time)
        if instance.state is LambdaState.FINISHED:
            pool = self._warm_pool.setdefault(instance.config.memory_mb, [])
            pool.append(self.env.now)

    def _take_warm(self, memory_mb: int) -> bool:
        """Pop one live warm container of this size, or consume one slot
        of the pre-warmed initial pool."""
        pool = self._warm_pool.setdefault(memory_mb, [])
        cutoff = self.env.now - LAMBDA_WARM_KEEPALIVE_S
        # Expire stale containers (kept sorted by construction).
        while pool and pool[0] < cutoff:
            pool.pop(0)
        if pool:
            pool.pop()
            return True
        if self._initial_warm > 0:
            self._initial_warm -= 1
            return True
        return False

    @property
    def active_lambda_count(self) -> int:
        """Functions invoked and not yet finished/reaped — the quantity
        the account concurrency limit is enforced against."""
        return sum(1 for fn in self.lambdas if fn.finish_time is None)

    @property
    def warm_pool_available(self) -> int:
        """Containers currently reusable as warm starts (any size) plus
        the untouched pre-warmed allotment."""
        cutoff = self.env.now - LAMBDA_WARM_KEEPALIVE_S
        live = sum(sum(1 for t in pool if t >= cutoff)
                   for pool in self._warm_pool.values())
        return live + self._initial_warm

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_PROVIDER, event, **fields)
