"""Scheduler-pool semantics: the one FIFO or FAIR pool of a pooled
cluster, what it rejects, and how it shares slots on a live pool."""

import pytest

from repro.api.schemas import SchemaError
from repro.api.service import ServeConfig, ServeRuntime
from repro.cluster.apps import AppManager, ClusterApp
from repro.cluster.pool import ExecutorPool
from repro.cluster.pools import SchedulerPools
from repro.cluster.runtime import ClusterRuntime
from repro.spark.config import SparkConf
from repro.spark.dag_scheduler import DAGScheduler
from repro.workloads import SyntheticWorkload

#: A small interactive job: 4 tasks.
SMALL = dict(stages=1, core_seconds_per_stage=8.0,
             shuffle_bytes_per_boundary=0,
             required_cores=4, available_cores=4,
             worker_itype="m4.xlarge")


def test_pool_config_validation():
    with pytest.raises(ValueError, match="mode"):
        SchedulerPools("lifo")


def test_duplicate_and_unknown_pools_rejected():
    """An app registers once, and a served pooled job names the one
    pool there is."""
    pools = SchedulerPools("fair")
    app = ClusterApp("x", 0, SyntheticWorkload(**SMALL))
    pools.register(app)
    with pytest.raises(ValueError, match="already registered"):
        pools.register(app)
    service = ServeRuntime(ServeConfig())
    with pytest.raises(SchemaError, match=r"unknown scheduler pool 'nope'; "
                                          r"known: \['default'\]"):
        service.submit({"workload": "sparkpi", "mode": "pooled",
                        "pool": "nope"})


def _vm_pool(mode, cores=4):
    runtime = ClusterRuntime(seed=0)
    pool = ExecutorPool(runtime, SparkConf({}), SchedulerPools(mode))
    pool.provision_vm_cores(cores, "m4.xlarge")
    return runtime, pool


def test_pooled_taskset_without_an_app_is_rejected():
    """Every pooled task set belongs to an admitted app; one submitted
    straight to the shared scheduler never joins its live list."""
    runtime, pool = _vm_pool("fifo")
    dag = DAGScheduler(runtime.env, pool.scheduler, trace=runtime.trace)
    with pytest.raises(ValueError, match="belongs to no application"):
        dag.submit_job(SyntheticWorkload(**SMALL).build(runtime.lineage, 4))
    assert pool.scheduler.tasksets == []


def _run_two_equal_apps(mode):
    runtime, pool = _vm_pool(mode)
    manager = AppManager(runtime, pool)
    spec = dict(SMALL, required_cores=8, core_seconds_per_stage=80.0)
    apps = [ClusterApp(f"app{i}", i, SyntheticWorkload(**spec))
            for i in range(2)]
    for app in apps:
        manager.submit(app)
    runtime.env.run(until=manager.completion_event(2))
    pool.settle(runtime.env.now)
    return apps


def test_fair_pool_interleaves_two_equal_apps():
    """Two identical apps on 4 shared slots: FIFO runs them as a
    staircase (first app at full parallelism, then the second), FAIR
    splits the slots so both run slower but finish near each other."""
    fifo_first, _fifo_second = _run_two_equal_apps("fifo")
    fair_apps = _run_two_equal_apps("fair")
    alone_s = 8 * 10.0 / 4  # 8 ten-second tasks over all 4 slots

    # FIFO: the first app monopolizes the pool and runs near alone-time.
    assert fifo_first.run_duration_s < 1.3 * alone_s
    # FAIR: sharing stretches *both* apps well past alone-time...
    assert all(app.run_duration_s > 1.4 * alone_s for app in fair_apps)
    # ... and their finishes cluster instead of forming a staircase.
    finish_gap = abs(fair_apps[0].finish_time - fair_apps[1].finish_time)
    assert finish_gap < 0.3 * max(app.finish_time for app in fair_apps)
