"""Tests for SplitServe's facilities: state, launching, segueing."""

import pytest

from repro.cluster.pool import registered_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.core import SplitServe
from repro.core.launching import vms_with_free_cores
from repro.spark.rdd import RDDBuilder


def make_splitserve(seed=0, conf=None, worker_cores=0,
                    worker_itype="m4.4xlarge"):
    runtime = ClusterRuntime(seed, trace_enabled=True)
    env, provider = runtime.env, runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    master.allocate_cores(master.itype.vcpus)
    ss = SplitServe(env, provider, runtime.rng, conf=conf,
                    trace=runtime.trace, master_vm=master)
    workers = []
    remaining = worker_cores
    while remaining > 0:
        vm = provider.request_vm(worker_itype, already_running=True)
        workers.append(vm)
        free_here = min(remaining, vm.itype.vcpus)
        surplus = vm.itype.vcpus - free_here
        if surplus > 0:
            # Claim the surplus so exactly worker_cores are free
            # cluster-wide (other tenants' jobs occupy the rest).
            vm.allocate_cores(surplus)
        remaining -= free_here
    return env, provider, ss, workers


def simple_job(tasks=8, seconds=5.0):
    b = RDDBuilder()
    return b.source("work", partitions=tasks, compute_seconds=seconds)


# ---------------------------------------------------------------------------
# System-wide VM state
# ---------------------------------------------------------------------------

def test_state_counts_free_cores():
    env, provider, ss, workers = make_splitserve(worker_cores=16)
    free = sum(vm.free_cores for vm in vms_with_free_cores(provider))
    assert free == 16  # master cores are claimed


def test_state_orders_vms_most_free_first():
    env, provider, ss, workers = make_splitserve(worker_cores=0)
    a = provider.request_vm("m4.xlarge", already_running=True)
    b = provider.request_vm("m4.4xlarge", already_running=True)
    a.allocate_cores(3)  # 1 free vs 16 free
    order = vms_with_free_cores(provider)
    assert order[0] is b


# ---------------------------------------------------------------------------
# LaunchingFacility
# ---------------------------------------------------------------------------

def test_acquire_prefers_vm_cores():
    env, provider, ss, workers = make_splitserve(worker_cores=16)
    outcome = ss.launching.acquire(10)
    assert outcome.vm_cores == 10
    assert outcome.lambda_cores == 0
    assert outcome.all_registered.triggered


def test_acquire_bridges_shortfall_with_lambdas():
    env, provider, ss, workers = make_splitserve(worker_cores=4)
    outcome = ss.launching.acquire(10)
    env.run(until=outcome.all_registered)
    assert outcome.vm_cores == 4
    assert outcome.lambda_cores == 6
    # Warm Lambdas register in well under a second.
    assert env.now < 1.0


def test_acquire_all_lambda_with_zero_vm_budget():
    env, provider, ss, workers = make_splitserve(worker_cores=16)
    outcome = ss.launching.acquire(8, max_vm_cores=0)
    env.run(until=outcome.all_registered)
    assert outcome.vm_cores == 0
    assert outcome.lambda_cores == 8


def test_acquire_rejects_nonpositive():
    env, provider, ss, workers = make_splitserve()
    with pytest.raises(ValueError):
        ss.launching.acquire(0)


def test_release_lambda_bills_usage():
    env, provider, ss, workers = make_splitserve(worker_cores=0)
    outcome = ss.launching.acquire(2)
    env.run(until=outcome.all_registered)
    env.run(until=env.now + 30)
    for executor in outcome.lambda_executors:
        executor.lambda_instance.finish()
    assert provider.meter.breakdown().get("lambda", 0) > 0


# ---------------------------------------------------------------------------
# SegueingFacility
# ---------------------------------------------------------------------------

def test_segue_replaces_lambdas_with_vm_executors():
    env, provider, ss, workers = make_splitserve(worker_cores=0)
    run = ss.submit_job(simple_job(tasks=16, seconds=20.0),
                        required_cores=4)
    new_vm = provider.request_vm("m4.xlarge", already_running=False,
                                 boot_delay_s=15.0)

    def do_segue(env):
        yield new_vm.ready
        ss.segueing.segue_to_vm(new_vm, 4)

    env.process(do_segue(env))
    env.run(until=run.job.done)
    ss.finish_run(run)
    assert not run.job.failed
    # Some tasks ran on Lambdas (before segue), some on the VM (after).
    kinds = {("lambda" if a.executor_id.startswith("la-") else "vm")
             for a in run.job.task_attempts}
    assert kinds == {"lambda", "vm"}
    # No task was killed: graceful drain means zero failures.
    assert all(a.failure is None for a in run.job.task_attempts)


def test_drain_lambda_rejects_vm_executor():
    env, provider, ss, workers = make_splitserve(worker_cores=4)
    outcome = ss.launching.acquire(2)
    with pytest.raises(ValueError):
        ss.segueing.drain_lambda(outcome.vm_executors[0])


def test_segue_drains_oldest_lambdas_first():
    env, provider, ss, workers = make_splitserve(worker_cores=0)
    first = ss.launching.acquire(1)
    env.run(until=first.all_registered)
    env.run(until=env.now + 10)
    second = ss.launching.acquire(1)
    env.run(until=second.all_registered)
    ordered = registered_lambda_executors(ss.driver.task_scheduler)
    assert ordered[0] is first.lambda_executors[0]


# ---------------------------------------------------------------------------
# SplitServe facade end-to-end
# ---------------------------------------------------------------------------

def test_run_job_hybrid_executes_on_both_kinds():
    env, provider, ss, workers = make_splitserve(worker_cores=4)
    result = ss.run_job(simple_job(tasks=16, seconds=5.0),
                        required_cores=8)
    assert result.num_tasks == 16
    assert result.tasks_by_kind.get("vm", 0) > 0
    assert result.tasks_by_kind.get("lambda", 0) > 0


def test_finish_run_releases_lambda_containers():
    env, provider, ss, workers = make_splitserve(worker_cores=0)
    result = ss.run_job(simple_job(tasks=4, seconds=2.0), required_cores=4)
    assert all(fn.finish_time is not None for fn in provider.lambdas)
