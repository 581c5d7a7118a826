"""One pooled cluster: the ``multijob`` replay and ``repro serve`` build
their shared pool through :func:`repro.cluster.apps.build_shared_pool`.

- For the same shape, both build the same pool: VMs, executors, Lambda
  containers, shuffle backend and mounted storage.
- A served ``hybrid_segue`` pool behaves as the replay's does (DESIGN
  §6): it shuffles through HDFS on its master VM and segues its Lambda
  executors onto procured VMs, draining them gracefully long before the
  provider's 15-minute lifetime cap, so no map output is lost.
"""

import pytest

from repro.api import schemas
from repro.api.service import ServeConfig, ServeRuntime
from repro.cluster import multijob
from repro.cluster.apps import POOL_STYLES, build_shared_pool, check_pool_shape
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.observability.categories import (
    CAT_EXECUTOR,
    CAT_LAMBDA,
    CAT_SCHEDULER,
    EV_DEAD,
    EV_EXECUTOR_DRAINED,
    EV_EXPIRED,
    EV_MAP_OUTPUTS_LOST,
)
from repro.simulation import TraceRecorder
from repro.spark.shuffle import ExternalShuffleBackend, LocalShuffleBackend


def pool_shape(manager):
    """What a freshly built pool is made of."""
    pool = manager.pool
    runtime = manager.runtime
    return {
        "vms": [vm.name for vm in runtime.provider.vms],
        "shared_vms": [vm.name for vm in pool.shared_vms],
        "dedicated_vms": [vm.name for vm in pool.dedicated_vms],
        "executors": [(ex.executor_id, ex.kind.value)
                      for ex in pool.scheduler.executors.values()],
        "lambdas": [fn.name for fn in pool.lambdas],
        "backend": type(pool.scheduler.shuffle_backend).__name__,
        "storages": [(type(s).__name__, s.name, s.datanode.name)
                     for s in pool.storages],
        "pools": pool.pools.stats(),
        "max_concurrent": manager.max_concurrent,
    }


def _replay_pool(monkeypatch, seed, **extra):
    built = []

    def capturing(*args, **kwargs):
        manager = build_shared_pool(*args, **kwargs)
        built.append(pool_shape(manager))
        return manager

    monkeypatch.setattr(multijob, "build_shared_pool", capturing)
    record = run_spec(ExperimentSpec(
        workload="multijob", scenario="multijob", seed=seed,
        extra={"mix": "sparkpi", "n_jobs": 1, **extra}))
    assert record.error is None and not record.failed
    [shape] = built
    return shape


@pytest.mark.parametrize("pool_style,lambda_cores", [
    ("vm", 0), ("hybrid_segue", 4)])
def test_replay_and_server_build_the_same_pool(monkeypatch, pool_style,
                                               lambda_cores):
    replay = _replay_pool(monkeypatch, 3, pool_cores=6,
                          lambda_cores=lambda_cores, pool_style=pool_style,
                          mode="fifo", max_concurrent=0)
    service = ServeRuntime(ServeConfig(
        seed=3, pool_cores=6, lambda_cores=lambda_cores,
        pool_style=pool_style, mode="fifo")).start()
    try:
        with service._sim_lock:
            served = pool_shape(service.manager)
    finally:
        service.close()
    assert served == replay
    if pool_style == "vm":
        assert served["backend"] == LocalShuffleBackend.__name__
        assert served["storages"] == []
    else:
        assert served["backend"] == ExternalShuffleBackend.__name__
        assert served["storages"] == [("HDFS", "hdfs", "pool-master")]
        assert served["dedicated_vms"] == ["pool-master"]
        assert len(served["lambdas"]) == lambda_cores
    assert [kind for _id, kind in served["executors"]] == ["vm"] * 6


def test_bad_pool_style_or_mode_is_rejected():
    assert POOL_STYLES == ("vm", "hybrid_segue")
    with pytest.raises(ValueError, match="pool_style"):
        check_pool_shape("spot", "fair")
    with pytest.raises(ValueError, match="mode"):
        check_pool_shape("vm", "lifo")
    with pytest.raises(ValueError, match="pool_style"):
        ServeConfig(pool_style="spot")
    with pytest.raises(ValueError, match="mode"):
        ServeConfig(mode="lifo")


def test_served_hybrid_pool_segues_its_lambdas_past_the_lifetime_cap():
    """Waves of pooled SparkPi jobs keep a served ``hybrid_segue`` pool
    busy past 900 sim-seconds, the Lambda lifetime cap."""
    service = ServeRuntime(ServeConfig(
        max_concurrent=4, seed=0, pool_cores=4, lambda_cores=4,
        pool_style="hybrid_segue")).start()
    events = service.cluster.bus.subscribe(TraceRecorder())
    statuses = []
    try:
        while service.cluster.env.now <= 1100.0:
            statuses += [service.submit({"workload": "sparkpi",
                                         "mode": "pooled",
                                         "seed": len(statuses) + i})
                         for i in range(4)]
            assert service.drain(timeout=120.0)
        for status in statuses:
            assert service.job(status.job_id).state == schemas.JOB_COMPLETED
        backend = service.pool.scheduler.shuffle_backend
        executors = service.pool.executor_infos()
    finally:
        service.close()

    assert service.cluster.env.now > 900.0
    assert isinstance(backend, ExternalShuffleBackend)
    assert backend.outputs_survive_executor_loss
    drained = sorted(row.get("executor") for row in events.select(
        category=CAT_SCHEDULER, name=EV_EXECUTOR_DRAINED))
    assert drained == [f"pool:la-exec-{i}" for i in range(4)]
    assert events.select(category=CAT_LAMBDA, name=EV_EXPIRED) == []
    assert events.select(category=CAT_EXECUTOR, name=EV_DEAD) == []
    assert events.select(category=CAT_SCHEDULER,
                         name=EV_MAP_OUTPUTS_LOST) == []
    # The segue VMs took the Lambdas' slots.
    assert [info["kind"] for info in executors] == ["vm"] * 8
