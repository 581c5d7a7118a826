"""The launching facility (§4.2).

"The launching facility arranges for the requested number of cores for a
new job from the currently free cores and, if needed, by launching new
Lambdas." — free VM cores are claimed first; the shortfall Δ = R − r is
bridged with warm-started Lambdas, each hosting one executor.

Lambda invocation is allowed to fail: the provider may throttle at the
account concurrency limit or return transient invoke errors (both
first-class fault-injection targets). Each executor slot retries with
exponential backoff + seeded jitter; a slot that exhausts its retries
degrades gracefully onto a free VM core instead of stalling the job —
only when no VM core is free either does the slot go unfilled (and
``all_registered`` still fires, with the outcome recording the deficit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.cloud.lambda_fn import LambdaConfig, LambdaInvokeError
from repro.observability.categories import (
    CAT_LAUNCHING,
    EV_DEGRADED_TO_VM_CORE,
    EV_LAMBDA_INVOKE_FAILED,
    EV_SLOT_UNFILLED,
)
from repro.simulation.events import Event
from repro.spark.executor import Executor

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.provisioner import CloudProvider
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.application import SparkDriver

#: Invocation attempts per executor slot before degrading to a VM core.
LAMBDA_INVOKE_MAX_ATTEMPTS = 4
#: First backoff delay; doubled per retry (with seeded jitter).
LAMBDA_RETRY_BASE_S = 0.5
#: Backoff ceiling.
LAMBDA_RETRY_CAP_S = 8.0


def vms_with_free_cores(provider: "CloudProvider") -> List["VirtualMachine"]:
    """§4.2's system-wide VM state, as the launching facility reads it:
    running VMs with at least one unallocated core, most-free first
    (pack new executors onto the emptiest instances to minimize
    inter-VM shuffle, mirroring the paper's placement). Where executors
    run is the task scheduler's registry."""
    vms = [vm for vm in provider.running_vms if vm.free_cores > 0]
    return sorted(vms, key=lambda vm: -vm.free_cores)


@dataclass
class LaunchOutcome:
    """What the facility managed to assemble for one request."""

    requested_cores: int
    vm_executors: List[Executor] = field(default_factory=list)
    lambda_executors: List[Executor] = field(default_factory=list)
    #: VM executors claimed as graceful degradation after a slot's Lambda
    #: invocations were exhausted (throttling/invoke failures).
    fallback_vm_executors: List[Executor] = field(default_factory=list)
    #: Individual failed invocation attempts across all slots.
    failed_invocations: int = 0
    #: Slots that could be served neither by Lambda nor by a VM core.
    unfilled_cores: int = 0
    #: Fires once every requested executor has registered (or its slot
    #: has been conclusively given up on).
    all_registered: Event = None

    @property
    def vm_cores(self) -> int:
        return len(self.vm_executors)

    @property
    def lambda_cores(self) -> int:
        return len(self.lambda_executors)

    @property
    def fallback_cores(self) -> int:
        return len(self.fallback_vm_executors)


class LaunchingFacility:
    """Serves per-job core requests from VM cores + Lambdas."""

    def __init__(
        self,
        env: "Environment",
        provider: "CloudProvider",
        driver: "SparkDriver",
        lambda_memory_mb: int = 1536,
        trace: "TraceRecorder" = None,
    ) -> None:
        self.env = env
        self.provider = provider
        self.driver = driver
        self.lambda_memory_mb = lambda_memory_mb
        self.trace = trace

    def acquire(self, cores: int, max_vm_cores: int = None) -> LaunchOutcome:
        """Assemble ``cores`` executors: free VM cores first, Lambdas for
        the rest. ``max_vm_cores`` caps the VM share (scenario control:
        the all-Lambda scenarios pass 0).

        VM executors register immediately; Lambda executors register as
        their (typically warm) containers come up, with invocation
        failures retried and, past the retry budget, degraded back onto
        free VM cores. ``outcome.all_registered`` fires when every slot
        has been resolved one way or the other.
        """
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        outcome = LaunchOutcome(requested_cores=cores)
        outcome.all_registered = Event(self.env)

        budget = cores if max_vm_cores is None else min(cores, max_vm_cores)
        for vm in vms_with_free_cores(self.provider):
            while budget > 0 and vm.free_cores > 0:
                outcome.vm_executors.append(
                    self.driver.add_vm_executor(vm))
                budget -= 1
            if budget == 0:
                break

        shortfall = cores - len(outcome.vm_executors)
        if shortfall == 0:
            outcome.all_registered.succeed(outcome)
            return outcome

        pending = [shortfall]  # mutable counter shared by the slots
        for _ in range(shortfall):
            self.env.process(self._lambda_slot(outcome, pending))
        return outcome

    # ------------------------------------------------------------------
    # One executor slot: invoke-with-retry, then degrade
    # ------------------------------------------------------------------

    def _lambda_slot(self, outcome: LaunchOutcome, pending: List[int]):
        delay = LAMBDA_RETRY_BASE_S
        instance = None
        for attempt in range(LAMBDA_INVOKE_MAX_ATTEMPTS):
            try:
                instance = self.provider.invoke_lambda(
                    LambdaConfig(memory_mb=self.lambda_memory_mb))
                break
            except LambdaInvokeError as error:
                outcome.failed_invocations += 1
                self._record(EV_LAMBDA_INVOKE_FAILED, attempt=attempt,
                             error=str(error))
                if attempt + 1 == LAMBDA_INVOKE_MAX_ATTEMPTS:
                    break
                # Exponential backoff with seeded jitter, so retry storms
                # de-synchronize yet stay replayable.
                yield self.env.timeout(self.driver.rng.uniform_jitter(
                    "launch.lambda.backoff", delay, 0.5))
                delay = min(delay * 2.0, LAMBDA_RETRY_CAP_S)
        if instance is None:
            self._degrade_to_vm(outcome)
            self._slot_resolved(outcome, pending)
            return
        yield instance.ready
        outcome.lambda_executors.append(
            self.driver.add_lambda_executor(instance))
        self._slot_resolved(outcome, pending)

    def _degrade_to_vm(self, outcome: LaunchOutcome) -> None:
        """The Lambda pool is throttled/capped: fall back to a free VM
        core rather than stalling the job (graceful degradation)."""
        for vm in vms_with_free_cores(self.provider):
            executor = self.driver.add_vm_executor(vm)
            outcome.fallback_vm_executors.append(executor)
            self._record(EV_DEGRADED_TO_VM_CORE, vm=vm.name,
                         executor=executor.executor_id)
            return
        outcome.unfilled_cores += 1
        self._record(EV_SLOT_UNFILLED,
                     unfilled=outcome.unfilled_cores)

    def _slot_resolved(self, outcome: LaunchOutcome,
                       pending: List[int]) -> None:
        pending[0] -= 1
        if pending[0] == 0:
            outcome.all_registered.succeed(outcome)

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_LAUNCHING, event, **fields)
