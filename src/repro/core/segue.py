"""The segueing facility (§4.2–4.3): the graceful hand-off.

When replacement cores become available (a new VM booted, or cores
freed on an existing VM), stop directing tasks to the Lambda-based
executors and let them drain; killing them would mark tasks Failed and
trigger Spark's execution rollback.

The replacement VMs themselves are procured by the caller (the §5.1
scenarios go through :func:`repro.cluster.pool.scale_out_after`), and
the §4.2 rule that VMs are worth procuring only when the SLO exceeds
the VM startup delay lives in
:meth:`repro.core.cost_manager.CostManager.plan`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cluster.pool import registered_lambda_executors
from repro.observability.categories import CAT_SEGUE, EV_SEGUE_TRIGGERED
from repro.spark.executor import Executor, HostKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.application import SparkDriver


class SegueingFacility:
    """Moves ongoing work from Lambdas to VMs without rollback."""

    def __init__(
        self,
        env: "Environment",
        driver: "SparkDriver",
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.env = env
        self.driver = driver
        self.trace = trace

    def segue_to_vm(self, vm: "VirtualMachine", cores: int) -> List[Executor]:
        """Replace up to ``cores`` Lambda-based executors with executors
        on ``vm``, draining the Lambdas gracefully.

        Returns the replacement executors. Also used when cores free up
        on an *existing* VM (the Figure 7 timeline's blue-bar case).
        """
        lambdas = registered_lambda_executors(self.driver.task_scheduler)
        count = min(cores, vm.free_cores)
        replacements = []
        for _ in range(count):
            replacements.append(self.driver.add_vm_executor(vm))
        # Drain one Lambda per replacement core (oldest first: they are
        # closest to their cost/GC cliff).
        drained = lambdas[:len(replacements)]
        self._record(EV_SEGUE_TRIGGERED, vm=vm.name, cores=cores,
                     replacements=len(replacements), drained=len(drained))
        for lambda_exec in drained:
            self.drain_lambda(lambda_exec)
        return replacements

    def drain_lambda(self, executor: Executor) -> None:
        """Gracefully decommission one Lambda executor: the scheduler
        stops offering it tasks, and once idle it deregisters and
        returns its container (the provider bills it)."""
        if executor.kind is not HostKind.LAMBDA:
            raise ValueError(f"{executor.executor_id} is not Lambda-based")
        self.driver.task_scheduler.decommission_executor(executor,
                                                         graceful=True)

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_SEGUE, event, **fields)
