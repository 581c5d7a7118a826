"""Integration: §5.1's profiling-to-decision loop, end to end.

The paper: "With these profiles, decisions of the following type can be
made: in case of a 'large' PageRank job, if the execution time needs to
be less than 70s, then two executors would be the lowest-cost choice;
however, if the execution time needs to be less than 60s, then the only
choice is 4 executors." We measure a real profile with the harness, feed
it to the cost manager, and check the same *kind* of decision falls out.
"""

import pytest

from repro.analysis.profiling import profile_workload
from repro.cloud import instance_type
from repro.core.cost_manager import CostManager
from repro.experiments.spec import ExperimentSpec

SWEEP = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def lambda_profile():
    points = profile_workload(
        ExperimentSpec("pagerank-large", "profile_lambda"),
        parallelism_sweep=SWEEP)
    return {p.spec.parallelism: p.duration_s for p in points}


def test_profile_feeds_cost_manager(lambda_profile):
    manager = CostManager(lambda_profile)
    best = min(lambda_profile.values())
    # A tight SLO forces high parallelism; a loose one allows fewer,
    # cheaper executors — the monotone staircase the paper describes.
    tight = manager.parallelism_for_slo(best * 1.05)
    loose = manager.parallelism_for_slo(best * 3.0)
    assert tight is not None and loose is not None
    assert loose <= tight
    # An SLO below the best profiled point is infeasible.
    assert manager.parallelism_for_slo(best * 0.5) is None


def test_plan_from_measured_profile_is_actionable(lambda_profile):
    manager = CostManager(lambda_profile)
    best = min(lambda_profile.values())
    plan = manager.plan(slo_s=best * 1.5, free_vm_cores=2,
                        vm_itype=instance_type("m4.4xlarge"))
    assert plan is not None
    assert plan.vm_cores == 2
    assert plan.lambda_cores == plan.required_cores - 2
    assert plan.est_cost > 0


def test_each_slo_band_has_a_unique_cheapest_choice(lambda_profile):
    """Reproduce the paper's '<70s -> 2, <60s -> 4' structure: as the
    SLO tightens past each profiled duration, the prescribed parallelism
    ratchets up and never down."""
    manager = CostManager(lambda_profile)
    durations = sorted(lambda_profile.values(), reverse=True)
    prescriptions = [manager.parallelism_for_slo(d * 1.001)
                     for d in durations]
    filtered = [p for p in prescriptions if p is not None]
    assert filtered == sorted(filtered)
