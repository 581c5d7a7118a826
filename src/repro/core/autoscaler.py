"""Inter-job autoscaling (§4.1, Figure 2).

The tenant predicts its executor demand over the day as a mean m(t) with
variance σ²(t) and provisions VM capacity at m(t) + k·σ(t) for some
conservatism k. Whatever the policy, moments arise where the true demand
w(t) exceeds provisioned capacity (t₁ in Figure 2 — SplitServe bridges
the shortfall with Lambdas) or falls below it (t₂ — idle VM cores).

:class:`InterJobAutoscaler` replays a demand trace under a policy and
reports the provisioned/shortfall/idle series plus the cost comparison
that motivates less conservative policies once SplitServe exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.cloud.constants import SECONDS_PER_HOUR
from repro.cloud.instance_types import InstanceType
from repro.cloud.pricing import lambda_cost


@dataclass(frozen=True)
class DemandPoint:
    """One sample of the demand trace."""

    time_s: float
    mean: float  # m(t), executors
    sigma: float  # sigma(t)
    actual: float  # w(t)


@dataclass(frozen=True)
class ProvisioningPolicy:
    """Provision m(t) + k·σ(t) cores, re-evaluated each sample."""

    k: float
    name: str = ""

    def cores_at(self, point: DemandPoint) -> int:
        import math

        return max(0, math.ceil(point.mean + self.k * point.sigma))

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.k == 0:
            return "m(t)"
        return f"m(t)+{self.k:g}sigma(t)"


@dataclass
class AutoscaleReport:
    """Outcome of replaying one policy over one trace."""

    policy: ProvisioningPolicy
    times: List[float] = field(default_factory=list)
    provisioned: List[int] = field(default_factory=list)
    actual: List[float] = field(default_factory=list)
    shortfall: List[float] = field(default_factory=list)  # w - provisioned, >0
    idle: List[float] = field(default_factory=list)  # provisioned - w, >0
    vm_core_hours: float = 0.0
    shortfall_core_hours: float = 0.0
    idle_core_hours: float = 0.0

    @property
    def shortfall_events(self) -> int:
        """Samples where Lambdas would be needed (t1-style moments)."""
        return sum(1 for s in self.shortfall if s > 0)

    def vm_cost(self, itype: InstanceType) -> float:
        """Dollar cost of the provisioned VM core-hours."""
        return self.vm_core_hours * itype.price_per_vcpu_hour

    def lambda_bridge_cost(self, memory_mb: int = 1536) -> float:
        """Dollar cost of bridging every shortfall core-hour with Lambdas
        (upper bound: Lambdas billed for the full shortfall duration)."""
        return lambda_cost(memory_mb, self.shortfall_core_hours * SECONDS_PER_HOUR,
                           invocations=max(1, self.shortfall_events))

    def total_cost(self, itype: InstanceType, memory_mb: int = 1536) -> float:
        return self.vm_cost(itype) + self.lambda_bridge_cost(memory_mb)


class InterJobAutoscaler:
    """Replays provisioning policies over demand traces."""

    def replay(self, trace: Sequence[DemandPoint],
               policy: ProvisioningPolicy) -> AutoscaleReport:
        if len(trace) < 2:
            raise ValueError("trace needs at least two samples")
        report = AutoscaleReport(policy=policy)
        for i, point in enumerate(trace):
            cores = policy.cores_at(point)
            shortfall = max(0.0, point.actual - cores)
            idle = max(0.0, cores - point.actual)
            report.times.append(point.time_s)
            report.provisioned.append(cores)
            report.actual.append(point.actual)
            report.shortfall.append(shortfall)
            report.idle.append(idle)
            if i + 1 < len(trace):
                dt_h = (trace[i + 1].time_s - point.time_s) / SECONDS_PER_HOUR
                report.vm_core_hours += cores * dt_h
                report.shortfall_core_hours += shortfall * dt_h
                report.idle_core_hours += idle * dt_h
        return report
