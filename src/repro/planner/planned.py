"""Execute an ``ss_planned`` spec: enforce a split, score the prediction.

The split to enforce travels in ``ExperimentSpec.policy`` (written by
:meth:`~repro.planner.planner.SplitPlanner.spec_for`), so the spec hash
covers it and the result cache can never cross-serve records from
different split decisions. The run itself goes through
:func:`repro.core.scenarios.run_split` — the same billing and segueing
machinery as the eight fixed scenarios — and the record carries the
full calibration loop in its metrics: ``planner.predicted_*`` values
are recomputed here, deterministically, from the same probe profiles
the planner used, then compared against the simulated truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.runtime import ClusterRuntime
from repro.core.scenarios import run_split
from repro.observability.categories import CAT_PLANNER, EV_PLAN_ENFORCED
from repro.planner.cost import CostModel
from repro.planner.model import PerformanceModel, SplitCandidate, build_profile
from repro.planner.planner import PlanOutcome

if TYPE_CHECKING:
    from repro.experiments.records import RunRecord
    from repro.experiments.spec import ExperimentSpec


def run_planned(spec: "ExperimentSpec") -> "RunRecord":
    """Run one planner-enforced split and return its scored record."""
    policy = dict(spec.policy)
    if "vm_cores" not in policy or "lambda_cores" not in policy:
        raise ValueError(
            "an ss_planned spec needs a policy with vm_cores and "
            "lambda_cores (use SplitPlanner.spec_for to build one)")
    candidate = SplitCandidate.from_policy(policy)

    # Probes first (their own ClusterRuntimes), then the enforced run.
    profile = build_profile(spec.workload, seed=spec.seed,
                            workload_params=dict(spec.workload_params))
    predicted_runtime = PerformanceModel(profile).predict_runtime(candidate)
    predicted_cost = CostModel(profile).predict_cost(candidate,
                                                     predicted_runtime)
    slo = float(policy.get("slo_s", profile.slo_seconds))

    runtime = ClusterRuntime(spec.seed, faults=spec.faults)
    runtime.trace.record(
        runtime.env.now, CAT_PLANNER, EV_PLAN_ENFORCED,
        workload=spec.workload, candidate=candidate.name,
        vm_cores=candidate.vm_cores, lambda_cores=candidate.lambda_cores,
        segue_cores=candidate.segue_cores, segue_at_s=candidate.segue_at_s,
        predicted_runtime_s=predicted_runtime,
        predicted_cost=predicted_cost, slo_s=slo)
    record = run_split(runtime, spec,
                       vm_cores=candidate.vm_cores,
                       lambda_cores=candidate.lambda_cores,
                       segue_cores=candidate.segue_cores,
                       segue_at_s=candidate.segue_at_s)

    outcome = PlanOutcome(
        workload=spec.workload, candidate=candidate.name, slo_s=slo,
        predicted_runtime_s=predicted_runtime,
        predicted_cost=predicted_cost,
        actual_runtime_s=record.duration_s,
        actual_cost=record.cost)
    record.metrics.update(outcome.to_metrics())
    return record
