"""Differential test of the FAIR offer order kept by ``SchedulerPools``.

The pool keeps per-application slot counts and a bisect-sorted FAIR
order, updated on the scheduler's launch/finish/removal paths. After
every offer round this test rebuilds the order the way Spark's fair
scheduler does — regroup the live task sets by application and
stable-sort the apps with Spark's fair comparator at weight 1 and
minShare 0 (FAIR), or keep admission order (FIFO) — and requires:

- ``ordered_tasksets()`` (and every order the scheduler offers by)
  equals that reference;
- each application's kept count, and the pool's ``stats()``
  ``running_tasks``, equals the running plus speculative attempts over
  its live task sets.

Generated inputs cover one FIFO or FAIR pool with colliding app
tiebreaks, and multijob replays with speculation on and executor kills,
so task sets zombify or fail with attempts still in flight.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.apps import AppManager, ClusterApp
from repro.cluster.pool import ExecutorPool
from repro.cluster.pools import (
    FAIR,
    FIFO,
    PooledTaskScheduler,
    SchedulerPools,
)
from repro.cluster.runtime import ClusterRuntime
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.simulation.faults import FaultSpec
from repro.spark.config import SparkConf
from repro.workloads import SyntheticWorkload


def occupied(taskset):
    return len(taskset.running) + len(taskset.speculative)


def spark_fair_key(running, min_share, weight, tiebreak):
    """Spark's fair comparator as a sort key: a schedulable below its
    minimum share is needy and precedes every satisfied one; needy ones
    compare by ``running / minShare``, satisfied ones by ``running /
    weight``, then by ``tiebreak``."""
    needy = running < min_share
    ratio = running / max(min_share if needy else weight, 1)
    return (0 if needy else 1, ratio, tiebreak)


def reference_order(mode, registered, tasksets):
    """Regroup ``tasksets`` by registered app and order the apps by
    admission (FIFO) or a stable sort on Spark's fair key at weight 1
    and minShare 0 (FAIR)."""
    by_app = {}
    for ts in tasksets:
        by_app.setdefault(id(ts.schedulable), []).append(ts)
    members = []
    for app in registered:
        sets = by_app.get(id(app))
        if sets:
            running = sum(occupied(ts) for ts in sets)
            members.append((spark_fair_key(running, 0, 1,
                                           (app.app_id, app.index)), sets))
    if mode == FAIR:
        members.sort(key=itemgetter(0))
    return [ts for _key, sets in members for ts in sets]


class ShareChecker:
    """Checks every pooled scheduler's kept order and counts against the
    reference, tracking registrations on its own."""

    def __init__(self, monkeypatch):
        #: id(SchedulerPools) -> apps in registration order.
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
            checker._registry(pools).append(app)

        def tracked_unregister(pools, app):
            unregister(pools, app)
            members = checker._registry(pools)
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
        return self.registered.setdefault(id(pools), [])

    def check(self, scheduler, order):
        self.rounds += 1
        pools = scheduler.scheduler_pools
        live = scheduler.tasksets
        registry = self._registry(pools)
        expected = reference_order(pools.mode, registry, live)
        if order != expected:
            self.violations.append(
                f"order {[ts.name for ts in order]} != reference "
                f"{[ts.name for ts in expected]}")
        owners = {id(ts.schedulable) for ts in live}
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
        [stat] = pools.stats()
        members = {id(app) for app in registry}
        want = sum(occupied(ts) for ts in live
                   if id(ts.schedulable) in members)
        if stat["running_tasks"] != want or stat["apps"] != len(members):
            self.violations.append(
                f"pool: stats {stat} != {want} running over "
                f"{len(members)} apps")

    def assert_clean(self):
        assert self.rounds > 0
        assert not self.violations, self.violations[:5]


# ---------------------------------------------------------------------------
# Generated pools
# ---------------------------------------------------------------------------

def _synthetic(stages, tasks, seconds):
    return SyntheticWorkload(stages=stages, core_seconds_per_stage=seconds,
                             shuffle_bytes_per_boundary=0,
                             required_cores=tasks, available_cores=tasks,
                             worker_itype="m4.xlarge")


@st.composite
def generated_pools(draw):
    mode = draw(st.sampled_from((FIFO, FAIR)))
    job = st.tuples(st.integers(min_value=1, max_value=2),      # stages
                    st.integers(min_value=1, max_value=5),      # tasks
                    st.floats(min_value=2.0, max_value=40.0),   # core-s
                    st.floats(min_value=0.0, max_value=20.0))   # arrival
    apps = draw(st.lists(st.tuples(
        # A tiny id/index space makes (app_id, index) tiebreaks collide,
        # which the kept order must break by registration order.
        st.sampled_from(("a", "b")),
        st.integers(min_value=0, max_value=1),
        job), min_size=1, max_size=6))
    cores = draw(st.integers(min_value=1, max_value=6))
    return mode, apps, cores


def _run_pool(mode, apps, cores):
    runtime = ClusterRuntime(seed=0)
    env = runtime.env
    pool = ExecutorPool(runtime, SparkConf({}), SchedulerPools(mode))
    pool.provision_vm_cores(cores, "m4.xlarge")
    manager = AppManager(runtime, pool)
    arrivals = []
    for i, (app_id, index, (stages, tasks, seconds, at)) in enumerate(apps):
        app = ClusterApp(app_id, index, _synthetic(stages, tasks, seconds),
                         parallelism=tasks)
        arrivals.append((at, i, app))
    arrivals.sort(key=itemgetter(0, 1))

    def arrive(env):
        for at, _order, app in arrivals:
            if at > env.now:
                yield env.timeout(at - env.now)
            manager.submit(app)

    env.run(until=env.process(arrive(env)))
    done = manager.completion_event(len(apps))
    if not done.triggered:
        env.run(until=done)
    return manager


@given(pool=generated_pools())
@settings(max_examples=40, deadline=None)
def test_kept_order_matches_full_sort_on_generated_pool_trees(pool):
    with pytest.MonkeyPatch.context() as monkeypatch:
        checker = ShareChecker(monkeypatch)
        manager = _run_pool(*pool)
    checker.assert_clean()
    assert len(manager.finished) == len(pool[1])


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
        if delta < 0 and not skipped:
            skipped.append(delta)
            return
        occupy(pools, taskset, delta)

    monkeypatch.setattr(SchedulerPools, "occupy", leaky_occupy)
    checker = ShareChecker(monkeypatch)
    job = (1, 4, 20.0, 0.0)
    _run_pool(FAIR, [("a", 0, job), ("b", 1, job)], cores=2)
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
    runtime = ClusterRuntime(seed=0)
    env = runtime.env
    pool = ExecutorPool(runtime, SparkConf({"spark.speculation": True}),
                        SchedulerPools(FAIR))
    pool.provision_vm_cores(4, "m4.xlarge")
    scheduler = pool.scheduler
    slow = next(iter(scheduler.executors.values()))
    slow.cpu_slowdown = 10.0
    manager = AppManager(runtime, pool)
    manager.submit(ClusterApp("app", 0, _synthetic(1, 4, 40.0),
                              parallelism=4))

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
