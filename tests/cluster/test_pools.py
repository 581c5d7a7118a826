"""Scheduler-pool semantics: the fair comparator, pool registration,
and the starvation guarantee on a live shared pool."""

import pytest

from repro.cluster.apps import AppManager, ClusterApp
from repro.cluster.pool import ExecutorPool
from repro.cluster.pools import (
    PoolConfig,
    SchedulerPools,
    fair_sort_key,
)
from repro.cluster.runtime import ClusterRuntime
from repro.spark.config import SparkConf
from repro.workloads import SyntheticWorkload

#: A job that saturates a 4-slot pool for a long time: 32 tasks.
BULK = dict(stages=1, core_seconds_per_stage=400.0,
            shuffle_bytes_per_boundary=0,
            required_cores=32, available_cores=4,
            worker_itype="m4.xlarge")
#: A small interactive job: 4 tasks.
SMALL = dict(stages=1, core_seconds_per_stage=8.0,
             shuffle_bytes_per_boundary=0,
             required_cores=4, available_cores=4,
             worker_itype="m4.xlarge")


def test_pool_config_validation():
    with pytest.raises(ValueError, match="mode"):
        PoolConfig("p", mode="lifo")
    with pytest.raises(ValueError, match="weight"):
        PoolConfig("p", weight=0)
    with pytest.raises(ValueError, match="min_share"):
        PoolConfig("p", min_share=-1)


def test_duplicate_and_unknown_pools_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SchedulerPools([PoolConfig("a"), PoolConfig("a")])
    with pytest.raises(ValueError, match="at least one"):
        SchedulerPools([])
    pools = SchedulerPools([PoolConfig("a")])
    app = ClusterApp("x", 0, SyntheticWorkload(**SMALL), pool="nope")
    with pytest.raises(ValueError, match="unknown pool"):
        pools.register(app)


def test_fair_sort_key_needy_precedes_satisfied():
    needy = fair_sort_key(running=1, min_share=2, weight=1, tiebreak=("a",))
    satisfied = fair_sort_key(running=0, min_share=0, weight=10,
                              tiebreak=("b",))
    assert needy < satisfied


def test_fair_sort_key_orders_by_weighted_share():
    light = fair_sort_key(running=2, min_share=0, weight=4, tiebreak=("a",))
    heavy = fair_sort_key(running=2, min_share=0, weight=1, tiebreak=("b",))
    assert light < heavy  # further below its weighted share


def _run_two_apps(pools, bulk_pool, small_pool):
    """One saturating app and one small app on a shared 4-slot pool;
    returns (bulk, small) ClusterApps after both complete."""
    runtime = ClusterRuntime(seed=0)
    pool = ExecutorPool(runtime, SparkConf({}), pools)
    pool.provision_vm_cores(4, "m4.xlarge")
    manager = AppManager(runtime, pool)
    bulk = ClusterApp("bulk", 0, SyntheticWorkload(**BULK), pool=bulk_pool)
    small = ClusterApp("small", 1, SyntheticWorkload(**SMALL),
                       pool=small_pool)
    manager.submit(bulk)
    manager.submit(small)
    runtime.env.run(until=manager.completion_event(2))
    pool.settle(runtime.env.now)
    assert not bulk.failed and not small.failed
    return bulk, small


def test_min_share_pool_schedules_under_saturating_competitor():
    """The starvation guarantee: in one FIFO pool the small app waits
    behind the saturating app's whole pending queue; given its own
    min-share pool it schedules promptly and finishes long before."""
    starved_pools = SchedulerPools([PoolConfig("default", mode="fifo")])
    _bulk, starved = _run_two_apps(starved_pools, "default", "default")

    fair_pools = SchedulerPools([
        PoolConfig("batch", mode="fifo", weight=1),
        PoolConfig("interactive", mode="fifo", weight=1, min_share=2),
    ])
    bulk, served = _run_two_apps(fair_pools, "batch", "interactive")

    # In its own needy pool, the small app finishes while the bulk app
    # is still running, and far sooner than when starved behind it.
    assert served.finish_time < bulk.finish_time
    assert served.latency_s < 0.25 * starved.latency_s


def _run_two_equal_apps(mode):
    pools = SchedulerPools([PoolConfig("default", mode=mode)])
    runtime = ClusterRuntime(seed=0)
    pool = ExecutorPool(runtime, SparkConf({}), pools)
    pool.provision_vm_cores(4, "m4.xlarge")
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
