"""The cloud-provider facade: VM fleet, Lambda invoker, billing hooks.

:class:`CloudProvider` owns:

- the VM fleet (request / terminate, with realistic provisioning delays);
- the Lambda invoker — every invocation starts warm (§4.2), and the
  provider counts the containers still live against the account's
  concurrency limit;
- the :class:`~repro.cloud.pricing.BillingMeter` for marginal-cost
  accounting, and the run's metrics registry, both handed in by the
  world that owns them (:class:`~repro.cluster.runtime.ClusterRuntime`).

It is the one owner of a Lambda container's bill. Every container it
invokes stops once — its function returns (``LambdaInstance.finish()``)
or the lifetime reaper takes it — and that stop bills invocation → stop
and leaves the live count. Callers only say that a function returned.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from repro.cloud.instance_types import InstanceType, instance_type
from repro.cloud.lambda_fn import (
    LambdaConfig,
    LambdaInstance,
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
    ) -> None:
        self.env = env
        self.rng = rng
        self.trace = trace
        self.meter = meter
        #: ``cloud.*`` counters land here, so the counts reach
        #: RunRecord.metrics.
        self.metrics = metrics
        self.vms: List[VirtualMachine] = []
        #: Functions invoked and not yet stopped (returned or reaped) —
        #: the quantity the account concurrency limit is enforced
        #: against.
        self.active_lambda_count = 0
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
    ) -> LambdaInstance:
        """Invoke one function; it starts warm. The container is billed
        when it stops; a caller whose function is done calls its
        ``finish()``.

        Raises :class:`LambdaThrottledError` past the account concurrency
        limit, or whatever the injected ``invoke_fault`` hook returns —
        callers own the retry policy.
        """
        if config is None:
            config = LambdaConfig()
        if (self.concurrency_limit is not None
                and self.active_lambda_count >= self.concurrency_limit):
            self.metrics.counter("cloud.lambda.throttles").inc()
            self._record(EV_LAMBDA_THROTTLED, limit=self.concurrency_limit,
                         active=self.active_lambda_count)
            raise LambdaThrottledError(
                f"concurrency limit {self.concurrency_limit} reached "
                f"({self.active_lambda_count} active)")
        if self.invoke_fault is not None:
            error = self.invoke_fault()
            if error is not None:
                self.metrics.counter("cloud.lambda.invoke_failures").inc()
                self._record(EV_LAMBDA_INVOKE_FAILED, error=str(error))
                raise error
        if name is None:
            name = f"lambda-{next(self._lambda_ids)}"
        self.metrics.counter("cloud.lambda.invocations").inc()
        self.metrics.counter("cloud.lambda.warm_starts").inc()
        self.active_lambda_count += 1
        return LambdaInstance(self.env, name, config, self.rng,
                              self._stopped, trace=self.trace)

    def _stopped(self, instance: LambdaInstance) -> None:
        """A container's one stop: its function returned
        (:meth:`LambdaInstance.finish`) or the reaper took it at the
        lifetime cap. Bill invocation → stop (§5.1's marginal cost, in
        GB-seconds) and release its place under the concurrency limit."""
        self.meter.bill_lambda(instance.name, instance.config.memory_mb,
                               instance.invoke_time, instance.finish_time)
        self.active_lambda_count -= 1

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_PROVIDER, event, **fields)
