"""Tests for heterogeneity-aware task sizing (§7 future work)."""

import pytest

from repro.spark import SparkConf
from repro.spark.rdd import RDDBuilder
from repro.workloads import HeterogeneousWorkload

from tests.spark.helpers import MiniCluster


def build_hybrid(uniform, vm_slots=2, lambda_slots=4, memory_mb=768,
                 total=120.0):
    cluster = MiniCluster()
    cluster.vm_executors(vm_slots)
    cluster.lambda_executors(lambda_slots, memory_mb=memory_mb)
    workload = HeterogeneousWorkload(
        total_core_seconds=total, vm_tasks=vm_slots,
        lambda_tasks=lambda_slots, lambda_speed=memory_mb / 1536.0,
        uniform=uniform)
    return cluster, workload


def test_validation():
    with pytest.raises(ValueError):
        HeterogeneousWorkload(vm_tasks=0, lambda_tasks=0)
    with pytest.raises(ValueError):
        HeterogeneousWorkload(lambda_speed=0.0)
    with pytest.raises(ValueError):
        HeterogeneousWorkload(total_core_seconds=-1)


def test_sized_tasks_carry_kind_preference():
    w = HeterogeneousWorkload(vm_tasks=2, lambda_tasks=3)
    final = w.build(RDDBuilder(), 5)
    source = final.deps[0].parent
    assert source.kind_preference(0) == "vm"
    assert source.kind_preference(2) == "lambda"
    # VM tasks are bigger than Lambda tasks.
    assert source.compute_seconds(0) > source.compute_seconds(4)


def test_uniform_variant_has_no_preference():
    w = HeterogeneousWorkload(uniform=True, vm_tasks=2, lambda_tasks=3)
    source = w.build(RDDBuilder(), 5).deps[0].parent
    assert source.kind_preference is None
    assert source.compute_seconds(0) == source.compute_seconds(4)


def test_sized_tasks_land_on_matching_kind():
    cluster, workload = build_hybrid(uniform=False)
    job = cluster.driver.submit(workload.build(cluster.builder, 6))
    cluster.env.run(until=job.done)
    for attempt in job.task_attempts:
        sized_for = attempt.spec.sized_for
        if sized_for is None:
            continue
        kind = "lambda" if attempt.executor_id.startswith("la-") else "vm"
        assert kind == sized_for


def test_sized_beats_uniform_makespan():
    cluster_u, workload_u = build_hybrid(uniform=True)
    job_u = cluster_u.driver.submit(workload_u.build(cluster_u.builder, 6))
    cluster_u.env.run(until=job_u.done)

    cluster_s, workload_s = build_hybrid(uniform=False)
    job_s = cluster_s.driver.submit(workload_s.build(cluster_s.builder, 6))
    cluster_s.env.run(until=job_s.done)
    assert job_s.duration < job_u.duration


def test_kind_preference_relaxes_rather_than_deadlocks():
    """All-VM cluster running Lambda-sized tasks must still finish: the
    preference relaxes after the locality wait."""
    cluster = MiniCluster()
    cluster.vm_executors(2)
    workload = HeterogeneousWorkload(total_core_seconds=30.0,
                                     vm_tasks=1, lambda_tasks=3)
    job = cluster.driver.submit(workload.build(cluster.builder, 4))
    cluster.env.run(until=job.done)
    assert not job.failed
