"""Tests for the cost manager (Figure 1/4-driven decisions)."""

import pytest

from repro.cloud import instance_type
from repro.core.cost_manager import CostManager, ExecutionPlan


@pytest.fixture
def pagerank_profile():
    """A Figure-4-shaped U-curve: duration vs parallelism."""
    return {1: 200.0, 2: 110.0, 4: 65.0, 8: 45.0, 16: 40.0, 32: 48.0,
            64: 70.0}


def test_profile_validation():
    with pytest.raises(ValueError):
        CostManager({})
    with pytest.raises(ValueError):
        CostManager({0: 10.0})
    with pytest.raises(ValueError):
        CostManager({4: -1.0})


def test_parallelism_for_slo_picks_smallest_feasible(pagerank_profile):
    cm = CostManager(pagerank_profile)
    # The paper's example: "<70s -> 2 executors" style decisions.
    assert cm.parallelism_for_slo(120.0) == 2
    assert cm.parallelism_for_slo(65.0) == 4
    assert cm.parallelism_for_slo(41.0) == 16


def test_parallelism_for_slo_infeasible_returns_none(pagerank_profile):
    cm = CostManager(pagerank_profile)
    assert cm.parallelism_for_slo(10.0) is None


def test_plan_splits_between_vm_and_lambda(pagerank_profile):
    cm = CostManager(pagerank_profile)
    plan = cm.plan(slo_s=50.0, free_vm_cores=3,
                   vm_itype=instance_type("m4.4xlarge"))
    assert plan.required_cores == 8
    assert plan.vm_cores == 3
    assert plan.lambda_cores == 5


def test_plan_no_lambdas_when_vms_suffice(pagerank_profile):
    cm = CostManager(pagerank_profile)
    plan = cm.plan(slo_s=50.0, free_vm_cores=32,
                   vm_itype=instance_type("m4.4xlarge"))
    assert plan.lambda_cores == 0
    assert not plan.segue


def test_plan_segue_flag_follows_duration_vs_startup(pagerank_profile):
    cm = CostManager(pagerank_profile, nominal_vm_startup_s=120.0)
    # 1-core run takes 200s > 120s startup: segueing pays off.
    long_plan = cm.plan(slo_s=250.0, free_vm_cores=0,
                        vm_itype=instance_type("m4.4xlarge"))
    assert long_plan.required_cores == 1
    assert long_plan.segue
    # 16-core run takes 40s < 120s: launching VMs would be futile.
    short_plan = cm.plan(slo_s=41.0, free_vm_cores=0,
                         vm_itype=instance_type("m4.4xlarge"))
    assert not short_plan.segue


def test_plan_infeasible_slo_returns_none(pagerank_profile):
    cm = CostManager(pagerank_profile)
    assert cm.plan(slo_s=5.0, free_vm_cores=32,
                   vm_itype=instance_type("m4.4xlarge")) is None


def test_estimate_cost_segue_cheaper_for_long_jobs(pagerank_profile):
    cm = CostManager(pagerank_profile, nominal_vm_startup_s=120.0)
    itype = instance_type("m4.4xlarge")
    duration = 3600.0  # an hour-long job
    with_segue = cm.estimate_cost(0, 16, duration, itype, segue=True)
    without = cm.estimate_cost(0, 16, duration, itype, segue=False)
    # Lambdas for a full hour are far pricier than 2 minutes of Lambdas
    # plus an hour of VM — the Figure 1 economics.
    assert with_segue < without


def test_estimate_cost_validation(pagerank_profile):
    cm = CostManager(pagerank_profile)
    with pytest.raises(ValueError):
        cm.estimate_cost(1, 0, 0.0, instance_type("m4.large"))
