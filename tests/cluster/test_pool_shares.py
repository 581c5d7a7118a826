"""Differential test of the FAIR offer order kept by ``SchedulerPools``.

The pools keep per-application slot counts and a bisect-sorted FAIR
order, updated on the scheduler's launch/finish/removal paths. After
every offer round this test rebuilds the order the way the per-launch
algorithm it replaced did — regroup the live task sets by application,
full-sort apps and pools with :func:`fair_sort_key` — and requires:

- ``ordered_tasksets()`` (and every order the scheduler offers by)
  equals that reference;
- each application's kept count, and each pool's ``stats()``
  ``running_tasks``, equals the running plus speculative attempts over
  its live task sets.

Generated inputs cover pool trees (1–3 FIFO/FAIR pools, weights,
min shares, colliding app tiebreaks, orphan task sets with no
schedulable) and multijob replays with speculation on and executor
kills, so task sets zombify or fail with attempts still in flight.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.apps import AppManager, ClusterApp
from repro.cluster.pool import ExecutorPool
from repro.cluster.pools import (
    FAIR,
    FIFO,
    PoolConfig,
    PooledTaskScheduler,
    SchedulerPools,
    fair_sort_key,
)
from repro.cluster.runtime import ClusterRuntime
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.simulation.faults import FaultSpec
from repro.spark.config import SparkConf
from repro.spark.dag_scheduler import DAGScheduler
from repro.workloads import SyntheticWorkload


def occupied(taskset):
    return len(taskset.running) + len(taskset.speculative)


def reference_order(configs, registered, tasksets):
    """Regroup ``tasksets`` and full-sort them as the per-launch code
    did: orphans first in submission order, then pools by fair key, apps
    by admission order (FIFO) or a stable sort on fair key (FAIR)."""
    orphans = [ts for ts in tasksets if ts.schedulable is None]
    by_app = {}
    for ts in tasksets:
        if ts.schedulable is not None:
            by_app.setdefault(id(ts.schedulable), []).append(ts)
    rows = []
    for config in configs:
        members = []
        pool_running = 0
        for app in registered[config.name]:
            sets = by_app.get(id(app))
            if not sets:
                continue
            running = sum(occupied(ts) for ts in sets)
            pool_running += running
            members.append((fair_sort_key(running, app.min_share,
                                          app.weight,
                                          (app.app_id, app.index)), sets))
        if members:
            if config.mode == FAIR:
                members.sort(key=itemgetter(0))
            rows.append((fair_sort_key(pool_running, config.min_share,
                                       config.weight, (config.name,)),
                         members))
    rows.sort(key=itemgetter(0))
    ordered = list(orphans)
    for _pool_key, members in rows:
        for _app_key, sets in members:
            ordered.extend(sets)
    return ordered


class ShareChecker:
    """Checks every pooled scheduler's kept order and counts against the
    reference, tracking registrations on its own."""

    def __init__(self, monkeypatch):
        #: id(SchedulerPools) -> pool name -> apps in registration order.
        self.registered = {}
        self.rounds = 0
        self.violations = []
        register = SchedulerPools.register
        unregister = SchedulerPools.unregister
        schedulable = PooledTaskScheduler._schedulable_tasksets
        dispatch = PooledTaskScheduler._dispatch
        checker = self

        def tracked_register(pools, app):
            register(pools, app)
            checker._registry(pools)[app.pool].append(app)

        def tracked_unregister(pools, app):
            unregister(pools, app)
            members = checker._registry(pools)[app.pool]
            if any(member is app for member in members):
                members.remove(app)

        def checked_order(scheduler):
            order = list(schedulable(scheduler))
            checker.check(scheduler, order)
            return order

        def checked_dispatch(scheduler):
            dispatch(scheduler)
            checker.check(scheduler, list(scheduler.scheduler_pools
                                          .ordered_tasksets()))

        monkeypatch.setattr(SchedulerPools, "register", tracked_register)
        monkeypatch.setattr(SchedulerPools, "unregister", tracked_unregister)
        monkeypatch.setattr(PooledTaskScheduler, "_schedulable_tasksets",
                            checked_order)
        monkeypatch.setattr(PooledTaskScheduler, "_dispatch",
                            checked_dispatch)

    def _registry(self, pools):
        return self.registered.setdefault(
            id(pools), {name: [] for name in pools.pools})

    def check(self, scheduler, order):
        self.rounds += 1
        pools = scheduler.scheduler_pools
        live = scheduler.tasksets
        registry = self._registry(pools)
        expected = reference_order(pools.pools.values(), registry, live)
        if order != expected:
            self.violations.append(
                f"order {[ts.name for ts in order]} != reference "
                f"{[ts.name for ts in expected]}")
        owners = {id(ts.schedulable) for ts in live
                  if ts.schedulable is not None}
        if not owners <= set(pools._shares):
            self.violations.append("an app with live task sets has no share")
        for share in pools._shares.values():
            sets = [ts for ts in live if ts.schedulable is share.app]
            want = sum(occupied(ts) for ts in sets)
            if share.tasksets != sets or share.running != want:
                self.violations.append(
                    f"{share.app!r}: kept {share.running} over "
                    f"{len(share.tasksets)} sets, live {want} over "
                    f"{len(sets)}")
        for stat in pools.stats():
            members = {id(app) for app in registry[stat["name"]]}
            want = sum(occupied(ts) for ts in live
                       if id(ts.schedulable) in members)
            if stat["running_tasks"] != want or stat["apps"] != len(members):
                self.violations.append(
                    f"pool {stat['name']}: stats {stat} != {want} running "
                    f"over {len(members)} apps")

    def assert_clean(self):
        assert self.rounds > 0
        assert not self.violations, self.violations[:5]


# ---------------------------------------------------------------------------
# Generated pool trees with orphan task sets
# ---------------------------------------------------------------------------

def _synthetic(stages, tasks, seconds):
    return SyntheticWorkload(stages=stages, core_seconds_per_stage=seconds,
                             shuffle_bytes_per_boundary=0,
                             required_cores=tasks, available_cores=tasks,
                             worker_itype="m4.xlarge")


@st.composite
def pool_trees(draw):
    n_pools = draw(st.integers(min_value=1, max_value=3))
    configs = [PoolConfig(f"pool{i}",
                          mode=draw(st.sampled_from((FIFO, FAIR))),
                          weight=draw(st.integers(min_value=1, max_value=4)),
                          min_share=draw(st.integers(min_value=0,
                                                     max_value=3)))
               for i in range(n_pools)]
    job = st.tuples(st.integers(min_value=1, max_value=2),      # stages
                    st.integers(min_value=1, max_value=5),      # tasks
                    st.floats(min_value=2.0, max_value=40.0),   # core-s
                    st.floats(min_value=0.0, max_value=20.0))   # arrival
    apps = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n_pools - 1),
        # A tiny id/index space makes (app_id, index) tiebreaks collide,
        # which the kept order must break by registration order.
        st.sampled_from(("a", "b")),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=4),                  # weight
        st.integers(min_value=0, max_value=3),                  # min_share
        job), min_size=1, max_size=6))
    orphans = draw(st.lists(job, max_size=2))
    cores = draw(st.integers(min_value=1, max_value=6))
    return configs, apps, orphans, cores


def _run_pool_tree(configs, apps, orphans, cores):
    pools = SchedulerPools(configs)
    runtime = ClusterRuntime(seed=0)
    env = runtime.env
    pool = ExecutorPool(runtime, SparkConf({}), pools)
    pool.provision_vm_cores(cores, "m4.xlarge")
    manager = AppManager(runtime, pool)
    arrivals = []
    for i, (pool_index, app_id, index, weight, min_share,
            (stages, tasks, seconds, at)) in enumerate(apps):
        app = ClusterApp(app_id, index, _synthetic(stages, tasks, seconds),
                         pool=configs[pool_index].name, weight=weight,
                         min_share=min_share, parallelism=tasks)
        arrivals.append((at, i, manager.submit, app))
    orphan_jobs = []

    def submit_orphan(spec):
        stages, tasks, seconds = spec
        # A DAG scheduler on the shared scheduler with no schedulable
        # handle: its task sets are orphans, offered FIFO ahead of the
        # pools.
        dag = DAGScheduler(env, pool.scheduler, trace=runtime.trace)
        orphan_jobs.append(dag.submit_job(
            _synthetic(stages, tasks, seconds).build(runtime.lineage,
                                                     tasks)))

    for i, (stages, tasks, seconds, at) in enumerate(orphans):
        arrivals.append((at, len(apps) + i, submit_orphan,
                         (stages, tasks, seconds)))
    arrivals.sort(key=itemgetter(0, 1))

    def arrive(env):
        for at, _order, submit, item in arrivals:
            if at > env.now:
                yield env.timeout(at - env.now)
            submit(item)

    env.run(until=env.process(arrive(env)))
    for done in [manager.completion_event(len(apps))] + [
            job.done for job in orphan_jobs]:
        if not done.triggered:
            env.run(until=done)
    return manager, orphan_jobs


@given(tree=pool_trees())
@settings(max_examples=40, deadline=None)
def test_kept_order_matches_full_sort_on_generated_pool_trees(tree):
    with pytest.MonkeyPatch.context() as monkeypatch:
        checker = ShareChecker(monkeypatch)
        manager, orphan_jobs = _run_pool_tree(*tree)
    checker.assert_clean()
    assert len(manager.finished) == len(tree[1])
    assert len(orphan_jobs) == len(tree[2])


# ---------------------------------------------------------------------------
# Multijob replays with speculation and executor kills
# ---------------------------------------------------------------------------

def _multijob_spec(seed, mode, max_failures, kill_at, kills, hybrid):
    extra = {"mix": "sparkpi,pagerank-small", "n_jobs": 6,
             "mean_interarrival_s": 10.0, "pool_cores": 12, "mode": mode}
    if hybrid:
        extra.update(pool_style="hybrid_segue", lambda_cores=4)
    # Aggressive speculation plus two slowed executors keep copies in
    # flight; maxFailures=1 makes a killed attempt fail its task set (and
    # job) while sibling attempts still run.
    return ExperimentSpec(
        workload="multijob", scenario="multijob", seed=seed, extra=extra,
        conf_overrides={"spark.speculation": True,
                        "spark.speculation.quantile": 0.1,
                        "spark.speculation.multiplier": 1.0,
                        "spark.speculation.interval": 0.5,
                        "spark.task.maxFailures": max_failures},
        faults=[FaultSpec("straggler", at_s=0.0, count=2, factor=4.0),
                FaultSpec("executor_kill", at_s=kill_at, count=kills)])


@given(seed=st.integers(min_value=0, max_value=2**16),
       mode=st.sampled_from((FIFO, FAIR)),
       max_failures=st.sampled_from((1, 4)),
       kill_at=st.floats(min_value=1.0, max_value=40.0),
       kills=st.integers(min_value=1, max_value=3),
       hybrid=st.booleans())
@settings(max_examples=12, deadline=None)
def test_kept_counts_survive_speculation_and_executor_kills(
        seed, mode, max_failures, kill_at, kills, hybrid):
    with pytest.MonkeyPatch.context() as monkeypatch:
        checker = ShareChecker(monkeypatch)
        record = run_spec(_multijob_spec(seed, mode, max_failures, kill_at,
                                         kills, hybrid))
    assert record.error is None, record.error
    checker.assert_clean()


def test_check_catches_a_skipped_decrement(monkeypatch):
    """The gate must not be vacuous: drop one slot release and the kept
    count (and with it the order) drifts from the live attempts."""
    occupy = SchedulerPools.occupy
    skipped = []

    def leaky_occupy(pools, taskset, delta):
        if delta < 0 and not skipped and taskset.schedulable is not None:
            skipped.append(delta)
            return
        occupy(pools, taskset, delta)

    monkeypatch.setattr(SchedulerPools, "occupy", leaky_occupy)
    checker = ShareChecker(monkeypatch)
    configs = [PoolConfig("pool0", mode=FAIR)]
    job = (1, 4, 20.0, 0.0)
    apps = [(0, "a", 0, 1, 0, job), (0, "b", 1, 1, 0, job)]
    _run_pool_tree(configs, apps, [], cores=2)
    assert skipped
    assert checker.violations
    assert any("kept" in v for v in checker.violations)


def test_retry_replacing_a_listed_original_keeps_counts(monkeypatch):
    """A speculative copy dies while its original still runs, so the
    partition is retried and the retry replaces the original's entry:
    the count is over entries, so that launch takes no extra slot."""
    checker = ShareChecker(monkeypatch)
    replaced = []
    launch = PooledTaskScheduler._launch

    def watched_launch(scheduler, taskset, partition, executor):
        if partition in taskset.running:
            replaced.append(partition)
        launch(scheduler, taskset, partition, executor)

    monkeypatch.setattr(PooledTaskScheduler, "_launch", watched_launch)
    pools = SchedulerPools([PoolConfig("pool0", mode=FAIR)])
    runtime = ClusterRuntime(seed=0)
    env = runtime.env
    pool = ExecutorPool(runtime, SparkConf({"spark.speculation": True}),
                        pools)
    pool.provision_vm_cores(4, "m4.xlarge")
    scheduler = pool.scheduler
    slow = next(iter(scheduler.executors.values()))
    slow.cpu_slowdown = 10.0
    manager = AppManager(runtime, pool)
    manager.submit(ClusterApp("app", 0, _synthetic(1, 4, 40.0),
                              pool="pool0", parallelism=4))

    def kill_first_copy(env):
        while True:
            yield env.timeout(0.5)
            for taskset in scheduler.tasksets:
                for copy in taskset.speculative.values():
                    scheduler.decommission_executor(
                        scheduler.executors[copy.executor_id],
                        graceful=False, reason="test kill")
                    return

    env.process(kill_first_copy(env))
    env.run(until=manager.completion_event(1))
    assert replaced
    checker.assert_clean()
