"""The intra-job cost manager.

§4.1: "the tenant employs a *cost manager* that determines a suitable
combination of VMs and Lambdas per-job based on these considerations" —
profiling curves (Figure 4), the Lambda/VM cost curves (Figure 1), the
SLO, and the free capacity reported by the cluster state. SplitServe then
runs the job on the prescribed cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.constants import VM_STARTUP_MEAN_S
from repro.cloud.instance_types import InstanceType, fewest_instances_for_cores
from repro.cloud.pricing import lambda_cost, vm_vcpu_cost


@dataclass(frozen=True)
class ExecutionPlan:
    """The cost manager's prescription for one job."""

    required_cores: int
    vm_cores: int
    lambda_cores: int
    segue: bool
    est_duration_s: float
    est_cost: float


class CostManager:
    """Chooses degree of parallelism and the VM/Lambda split.

    ``profile`` maps degree-of-parallelism -> estimated job duration in
    seconds (an offline U-curve like Figure 4; see
    :mod:`repro.analysis.profiling` for how to measure one).
    """

    def __init__(self, profile: Dict[int, float],
                 lambda_memory_mb: int = 1536,
                 nominal_vm_startup_s: float = VM_STARTUP_MEAN_S) -> None:
        if not profile:
            raise ValueError("profile must not be empty")
        for cores, duration in profile.items():
            if cores <= 0 or duration <= 0:
                raise ValueError(
                    f"invalid profile entry {cores} -> {duration}")
        self.profile = dict(profile)
        self.lambda_memory_mb = lambda_memory_mb
        self.nominal_vm_startup_s = nominal_vm_startup_s

    # ------------------------------------------------------------------
    # Parallelism selection (the Figure 4 decision)
    # ------------------------------------------------------------------

    def parallelism_for_slo(self, slo_s: float) -> Optional[int]:
        """Smallest degree of parallelism whose profiled duration meets
        the SLO (the paper's example: '<70s -> 2 executors; <60s -> only
        4 executors'). None if no profiled point meets it."""
        feasible = [(cores, d) for cores, d in self.profile.items()
                    if d <= slo_s]
        if not feasible:
            return None
        return min(cores for cores, _d in feasible)

    # ------------------------------------------------------------------
    # Split + segue decision
    # ------------------------------------------------------------------

    def plan(self, slo_s: float, free_vm_cores: int,
             vm_itype: InstanceType) -> Optional[ExecutionPlan]:
        """Full prescription: parallelism, VM/Lambda split, segue flag.

        Returns None when no profiled parallelism meets the SLO.
        """
        cores = self.parallelism_for_slo(slo_s)
        if cores is None:
            return None
        duration = self.profile[cores]
        vm_cores = min(cores, max(0, free_vm_cores))
        lambda_cores = cores - vm_cores
        segue = lambda_cores > 0 and duration > self.nominal_vm_startup_s
        cost = self.estimate_cost(vm_cores, lambda_cores, duration,
                                  vm_itype, segue=segue)
        return ExecutionPlan(required_cores=cores, vm_cores=vm_cores,
                             lambda_cores=lambda_cores, segue=segue,
                             est_duration_s=duration, est_cost=cost)

    def estimate_cost(self, vm_cores: int, lambda_cores: int,
                      duration_s: float, vm_itype: InstanceType,
                      segue: bool = False) -> float:
        """Marginal dollar estimate of one run (Figure 1 economics).

        With segue, Lambdas are billed only until the nominal VM startup
        delay, after which replacement VM cores take over.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        cost = vm_cores * vm_vcpu_cost(vm_itype, duration_s)
        if lambda_cores == 0:
            return cost
        if segue and duration_s > self.nominal_vm_startup_s:
            lambda_time = self.nominal_vm_startup_s
            vm_time = duration_s - self.nominal_vm_startup_s
            cost += lambda_cores * lambda_cost(self.lambda_memory_mb, lambda_time)
            # Replacement capacity: fewest instances covering the cores.
            for itype in fewest_instances_for_cores(lambda_cores):
                cost += (itype.price_per_hour / 3600.0) * vm_time
        else:
            cost += lambda_cores * lambda_cost(self.lambda_memory_mb, duration_s)
        return cost
