"""The system-wide VM state (§4.2).

"This state keeps track of where the executors for a job are currently
running and which VM cores are currently free (if any)." Where executors
run is the task scheduler's registry; what the launching facility reads
here is which VM cores are free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.provisioner import CloudProvider
    from repro.cloud.vm import VirtualMachine


class ClusterState:
    """Answers the launching facility's one question: which VMs have
    free cores."""

    def __init__(self, provider: "CloudProvider") -> None:
        self.provider = provider

    def vms_with_free_cores(self) -> List["VirtualMachine"]:
        """Running VMs with at least one unallocated core, most-free
        first (pack new executors onto the emptiest instances to minimize
        inter-VM shuffle, mirroring the paper's placement)."""
        vms = [vm for vm in self.provider.running_vms if vm.free_cores > 0]
        return sorted(vms, key=lambda vm: -vm.free_cores)
