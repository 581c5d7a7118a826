"""The task scheduler's offer path: the cached-partition holder index,
the early exit of a dispatch with nothing pending, the Lambda-timeout
drain ahead of the offer and speculation rounds, and the retirement of
a finished application's shuffles.

``_anyone_holds_cached_step`` answers from the scheduler's holder counts
instead of scanning every registered executor's cache. Generated
register / ``add_cached`` / ``touch_cached`` / drain / kill sequences
(cached sizes drawn against each executor's storage limit, so LRU
evictions and over-limit partitions happen) check after every step that
the counts equal a scan of the registry kept here, and that every probe
gets the scan's answer.
"""

from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.observability.categories import (
    CAT_SCHEDULER,
    EV_EXECUTOR_DRAINED,
    EV_SPECULATIVE_LAUNCH,
)
from repro.spark import SparkConf
from repro.spark.executor import Executor, ExecutorState, HostKind
from repro.spark.shuffle import MapStatus
from repro.spark.task_scheduler import TaskScheduler
from tests.spark.helpers import MiniCluster, single_stage_rdd

RDDS = 3
PARTITIONS = 3
#: Cached sizes as fractions of the executor's storage limit: two large
#: ones overflow it (an eviction), and one exceeds it (never cached).
SIZES = (0.0, 0.3, 0.45, 0.6, 1.5)


def reference_holders(scheduler):
    """What the holder counts must be: a scan of the registry."""
    return Counter(key for executor in scheduler.executors.values()
                   for key in executor._cache)


def reference_anyone_holds(scheduler, spec):
    """The registry scan ``_anyone_holds_cached_step`` replaced."""
    return any((step.rdd_id, spec.partition) in executor._cache
               for executor in scheduler.executors.values()
               for _i, step in spec.cache_steps)


def probe(partition, rdd_ids):
    """A task spec stand-in carrying only what the lookup reads."""
    return SimpleNamespace(partition=partition, cache_steps=[
        (i, SimpleNamespace(rdd_id=rdd_id)) for i, rdd_id in enumerate(rdd_ids)])


PROBES = [probe(partition, rdd_ids)
          for partition in range(PARTITIONS)
          for rdd_ids in ((0,), (1,), (2,), (0, 2), ())]


class Sequence:
    """Unregistered executors on one VM, and a scheduler to register
    them with."""

    def __init__(self, executors):
        self.cluster = MiniCluster()
        self.scheduler = self.cluster.driver.task_scheduler
        vm = self.cluster.provider.request_vm("m4.4xlarge",
                                              already_running=True)
        self.executors = [
            Executor(self.cluster.env, f"exec-{i}", HostKind.VM,
                     self.cluster.conf, self.cluster.rng, vm=vm)
            for i in range(executors)]

    def apply(self, op, index, rdd_id, partition, size):
        executor = self.executors[index % len(self.executors)]
        scheduler = self.scheduler
        if op == "register":
            if (executor.state is ExecutorState.REGISTERED
                    and executor.executor_id not in scheduler.executors):
                scheduler.register_executor(executor)
        elif op == "cache":
            executor.add_cached(rdd_id, partition,
                                size * executor.storage_limit_bytes)
        elif op == "touch":
            executor.touch_cached(rdd_id, partition)
        elif op == "drain":
            scheduler.decommission_executor(executor, graceful=True)
        elif op == "kill":
            scheduler.decommission_executor(executor, graceful=False)

    def check(self):
        scheduler = self.scheduler
        assert Counter(scheduler._cache_holders) == reference_holders(
            scheduler)
        assert all(count > 0 for count in scheduler._cache_holders.values())
        for spec in PROBES:
            assert scheduler._anyone_holds_cached_step(spec) == (
                reference_anyone_holds(scheduler, spec))


ops = st.lists(st.tuples(
    st.sampled_from(("register",) * 2 + ("cache",) * 4
                    + ("touch", "drain", "kill")),
    st.integers(min_value=0, max_value=5),                 # executor
    st.integers(min_value=0, max_value=RDDS - 1),          # rdd
    st.integers(min_value=0, max_value=PARTITIONS - 1),    # partition
    st.sampled_from(SIZES)), max_size=50)


@given(executors=st.integers(min_value=1, max_value=4), ops=ops)
@settings(max_examples=150, deadline=None)
def test_holder_index_matches_a_registry_scan(executors, ops):
    sequence = Sequence(executors)
    for op in ops:
        sequence.apply(*op)
        sequence.check()


def test_sequences_evict_and_count_a_cache_held_before_registration():
    """The paths the generated sequences are for, on one sequence:
    an LRU eviction, and registration of an executor that already holds
    cached partitions."""
    sequence = Sequence(1)
    [executor] = sequence.executors
    sequence.apply("cache", 0, 0, 0, 0.6)
    sequence.apply("register", 0, 0, 0, 0.0)
    sequence.check()
    assert sequence.scheduler._cache_holders == {(0, 0): 1}
    sequence.apply("cache", 0, 1, 0, 0.6)  # evicts (0, 0)
    sequence.check()
    assert executor.has_cached(1, 0) and not executor.has_cached(0, 0)
    assert sequence.scheduler._cache_holders == {(1, 0): 1}
    sequence.apply("drain", 0, 0, 0, 0.0)
    sequence.check()
    assert sequence.scheduler._cache_holders == {}


# ---------------------------------------------------------------------------
# A dispatch with nothing pending
# ---------------------------------------------------------------------------

def _overdue_lambda(timeout):
    conf = SparkConf()
    if timeout is not None:
        conf = conf.set("spark.lambda.executor.timeout", timeout)
    cluster = MiniCluster(conf=conf)
    [executor] = cluster.lambda_executors(1)
    cluster.env.run(until=cluster.env.now + 30.0)
    return cluster, executor


def test_timeout_drains_an_overdue_lambda_with_nothing_pending():
    """With ``spark.lambda.executor.timeout`` set, the free-executor scan
    drains overdue Lambda executors, so a dispatch keeps its round even
    when no task is pending."""
    cluster, executor = _overdue_lambda(timeout=20.0)
    scheduler = cluster.driver.task_scheduler
    assert not scheduler.tasksets
    assert executor.executor_id in scheduler.executors
    scheduler._dispatch()
    assert executor.state is ExecutorState.DRAINING
    assert executor.executor_id not in scheduler.executors
    assert [record.get("executor") for record in cluster.trace.select(
        category=CAT_SCHEDULER, name=EV_EXECUTOR_DRAINED)] == [
            executor.executor_id]


def test_without_timeout_a_dispatch_with_nothing_pending_changes_nothing():
    cluster, executor = _overdue_lambda(timeout=None)
    scheduler = cluster.driver.task_scheduler
    events = len(cluster.trace)
    scheduler._dispatch()
    assert executor.state is ExecutorState.REGISTERED
    assert executor.executor_id in scheduler.executors
    assert len(cluster.trace) == events


def test_speculation_round_drains_an_overdue_lambda_before_placing_copies(
        monkeypatch):
    """The Lambda runs the short task and idles; no dispatch runs until
    the speculation round finds the straggler, by which time the Lambda
    is past the timeout. The round drains it before its first free scan,
    so it never hosts the straggler's copy."""
    conf = SparkConf({"spark.speculation": True,
                      "spark.speculation.quantile": 0.5,
                      "spark.speculation.multiplier": 1.5,
                      "spark.speculation.interval": 0.5,
                      "spark.lambda.executor.timeout": 7.0})
    cluster = MiniCluster(conf=conf)
    cluster.vm_executors(1)
    [lam] = cluster.lambda_executors(1)
    rounds = []
    speculate = TaskScheduler._launch_speculative_copies

    def watched(scheduler):
        registered = lam.executor_id in scheduler.executors
        launched = speculate(scheduler)
        rounds.append((scheduler.env.now, registered,
                       lam.executor_id in scheduler.executors))
        return launched

    monkeypatch.setattr(TaskScheduler, "_launch_speculative_copies", watched)
    rdd = cluster.builder.source(
        "straggle", partitions=2,
        compute_seconds=lambda p: 60.0 if p == 0 else 5.0)
    job = cluster.driver.submit(rdd)
    cluster.env.run(until=job.done)
    assert not job.failed
    assert [a.executor_id for a in job.task_attempts
            if a.spec.partition == 1] == [lam.executor_id]
    drained_in = [now for now, before, after in rounds if before and not after]
    [drain] = cluster.trace.select(category=CAT_SCHEDULER,
                                   name=EV_EXECUTOR_DRAINED)
    assert drain.get("executor") == lam.executor_id
    assert drained_in == [drain.time]
    assert lam.time_on_lambda >= 7.0
    assert not cluster.trace.select(category=CAT_SCHEDULER,
                                    name=EV_SPECULATIVE_LAUNCH)


# ---------------------------------------------------------------------------
# Retiring a finished application's shuffles
# ---------------------------------------------------------------------------

def test_shuffles_retire_only_once_nothing_of_the_app_runs():
    """A live task set, or an attempt still in flight, could read or
    write the app's shuffles, so retirement waits for neither to be
    left; a retired output still counts when its executor is lost."""
    cluster = MiniCluster()
    [executor] = cluster.vm_executors(1)
    scheduler = cluster.driver.task_scheduler
    tracker = scheduler.map_output_tracker
    app = object()
    cluster.driver.dag_scheduler.schedulable = app
    tracker.register_shuffle(99, 1)
    tracker.register(MapStatus(99, 0, executor.executor_id, 1.0))
    cluster.driver.submit(single_stage_rdd(cluster.builder, tasks=2,
                                           seconds=10.0))
    [taskset] = scheduler.tasksets
    assert executor.running_tasks == 1
    scheduler.retire_shuffles(app, [99])  # its task set is live
    assert tracker.output_count(99) == 1
    scheduler.remove_taskset(taskset)
    scheduler.retire_shuffles(app, [99])  # its attempt is in flight
    assert tracker.output_count(99) == 1
    cluster.env.run(until=cluster.env.now + 20.0)
    assert executor.running_tasks == 0
    scheduler.retire_shuffles(app, [99])
    assert tracker.output_count(99) == 0
    assert tracker.first_missing_partition(99) is None
    assert tracker.remove_outputs_on_executor(executor.executor_id) == 1
    assert tracker.remove_outputs_on_executor(executor.executor_id) == 0
