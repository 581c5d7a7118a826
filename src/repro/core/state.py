"""The system-wide VM/Lambda state (§4.2).

"This state keeps track of where the executors for a job are currently
running and which VM cores are currently free (if any)." The launching
facility reads it to serve core requests; the segueing facility updates
it as Lambdas drain onto VMs; the cost manager may share access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.spark.executor import Executor, HostKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.lambda_fn import LambdaInstance
    from repro.cloud.provisioner import CloudProvider
    from repro.cloud.vm import VirtualMachine


@dataclass
class ExecutorRecord:
    """Where one executor runs and since when."""

    executor: Executor
    kind: HostKind
    host_name: str
    registered_at: float
    released_at: Optional[float] = None


class ClusterState:
    """Tracks VM core occupancy and live Lambda-backed executors."""

    def __init__(self, provider: "CloudProvider") -> None:
        self.provider = provider
        self._records: Dict[str, ExecutorRecord] = {}

    # ------------------------------------------------------------------
    # VM capacity queries
    # ------------------------------------------------------------------

    def free_vm_cores(self) -> int:
        """Cores available right now across running VMs."""
        return sum(vm.free_cores for vm in self.provider.running_vms)

    def vms_with_free_cores(self) -> List["VirtualMachine"]:
        """Running VMs with at least one unallocated core, most-free
        first (pack new executors onto the emptiest instances to minimize
        inter-VM shuffle, mirroring the paper's placement)."""
        vms = [vm for vm in self.provider.running_vms if vm.free_cores > 0]
        return sorted(vms, key=lambda vm: -vm.free_cores)

    # ------------------------------------------------------------------
    # Executor tracking
    # ------------------------------------------------------------------

    def record_executor(self, executor: Executor) -> None:
        self._records[executor.executor_id] = ExecutorRecord(
            executor=executor,
            kind=executor.kind,
            host_name=executor.host_name,
            registered_at=executor.env.now,
        )

    def record_release(self, executor: Executor) -> None:
        record = self._records.get(executor.executor_id)
        if record is not None and record.released_at is None:
            record.released_at = executor.env.now

    def live_executors(self, kind: Optional[HostKind] = None) -> List[Executor]:
        out = []
        for record in self._records.values():
            if record.released_at is not None:
                continue
            if kind is not None and record.kind is not kind:
                continue
            out.append(record.executor)
        return out

    @property
    def live_lambda_count(self) -> int:
        return len(self.live_executors(HostKind.LAMBDA))

    @property
    def live_vm_count(self) -> int:
        return len(self.live_executors(HostKind.VM))

    def describe(self) -> str:
        return (f"vm-executors={self.live_vm_count} "
                f"lambda-executors={self.live_lambda_count} "
                f"free-vm-cores={self.free_vm_cores()}")
