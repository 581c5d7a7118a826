"""Integration tests for the Spark-like engine on the mini-cluster."""

import pytest

from repro.cloud.constants import MB
from repro.spark import HostKind, SparkConf, TaskState
from repro.spark.dag_scheduler import JobFailedError

from tests.spark.helpers import MiniCluster, single_stage_rdd, two_stage_rdd


def test_single_stage_job_completes():
    cluster = MiniCluster()
    cluster.vm_executors(4)
    rdd = single_stage_rdd(cluster.builder, tasks=8, seconds=10.0)
    result = cluster.run_job(rdd)
    # 8 tasks, 4 executors, 10s each: two waves = 20s.
    assert result.duration == pytest.approx(20.0, rel=0.05)
    assert result.num_tasks == 8
    assert result.num_stages == 1


def test_tasks_spread_across_executors():
    cluster = MiniCluster()
    executors = cluster.vm_executors(4)
    rdd = single_stage_rdd(cluster.builder, tasks=8, seconds=1.0)
    cluster.run_job(rdd)
    assert all(ex.tasks_finished == 2 for ex in executors)


def test_two_stage_job_sequences_stages():
    cluster = MiniCluster()
    cluster.vm_executors(4)
    rdd = two_stage_rdd(cluster.builder, maps=4, reduces=4,
                        map_seconds=10.0, reduce_seconds=5.0,
                        shuffle_bytes=0)
    result = cluster.run_job(rdd)
    assert result.num_stages == 2
    assert result.num_tasks == 8
    # Map wave 10s + reduce wave 5s (zero shuffle volume).
    assert result.duration == pytest.approx(15.0, rel=0.05)


def test_shuffle_bytes_add_time():
    small = MiniCluster()
    small.vm_executors(4)
    fast = small.run_job(two_stage_rdd(small.builder, shuffle_bytes=0)).duration

    big = MiniCluster()
    big.vm_executors(4)
    slow = big.run_job(
        two_stage_rdd(big.builder, shuffle_bytes=2_000 * MB)).duration
    assert slow > fast


def test_lambda_executor_runs_tasks_slower_when_small():
    vm_cluster = MiniCluster()
    vm_cluster.vm_executors(4)
    vm_time = vm_cluster.run_job(
        single_stage_rdd(vm_cluster.builder, tasks=4, seconds=10.0)).duration

    la_cluster = MiniCluster()
    la_cluster.lambda_executors(4, memory_mb=768)  # half a vCPU each
    la_time = la_cluster.run_job(
        single_stage_rdd(la_cluster.builder, tasks=4, seconds=10.0)).duration
    assert la_time == pytest.approx(2 * vm_time, rel=0.1)


def test_full_size_lambda_matches_vm_compute():
    la_cluster = MiniCluster()
    la_cluster.lambda_executors(4, memory_mb=1536)
    la_time = la_cluster.run_job(
        single_stage_rdd(la_cluster.builder, tasks=4, seconds=10.0)).duration
    assert la_time == pytest.approx(10.0, rel=0.05)


def test_gc_pressure_slows_memory_hungry_tasks_on_lambda():
    b_cluster = MiniCluster()
    b_cluster.lambda_executors(2, memory_mb=1536)
    # Working set of 2GB >> 1536MB*0.6 usable heap.
    rdd = b_cluster.builder.source(
        "hungry", partitions=2, compute_seconds=10.0,
        working_set_bytes=2 * 1024 ** 3)
    slow = b_cluster.run_job(rdd).duration

    v_cluster = MiniCluster()
    v_cluster.vm_executors(2, itype="m4.4xlarge")  # 4GB per core
    rdd2 = v_cluster.builder.source(
        "hungry", partitions=2, compute_seconds=10.0,
        working_set_bytes=2 * 1024 ** 3)
    fast = v_cluster.run_job(rdd2).duration
    assert slow > fast * 1.3


def test_job_result_metrics_populated():
    cluster = MiniCluster()
    cluster.vm_executors(2)
    result = cluster.run_job(two_stage_rdd(cluster.builder, maps=2, reduces=2,
                                           shuffle_bytes=100 * MB))
    assert result.compute_seconds_total > 0
    assert result.write_seconds_total > 0
    assert result.fetch_seconds_total > 0
    assert result.tasks_by_kind == {"vm": 4}


def test_diamond_dag_runs_all_stages():
    cluster = MiniCluster()
    cluster.vm_executors(4)
    b = cluster.builder
    src = b.source("src", 4, 1.0)
    left = b.shuffle(src, "left", 4, 10 * MB, compute_seconds=1.0)
    right = b.shuffle(src, "right", 4, 10 * MB, compute_seconds=1.0)
    joined = b.join(left, right, "join", 4, 10 * MB, 10 * MB,
                    compute_seconds=1.0)
    result = cluster.run_job(joined)
    # Five stages: src->left map, src->right map (each ShuffleDependency
    # cuts its own map stage over src), left->join map, right->join map,
    # and the result stage. 4 tasks each = 20.
    assert result.num_stages == 5
    assert result.num_tasks == 20


def test_cached_rdd_speeds_up_second_pass():
    cluster = MiniCluster()
    cluster.vm_executors(4)
    b = cluster.builder
    points = b.source("points", 4, compute_seconds=20.0, cache=True)
    iter1 = b.shuffle(points, "iter1", 4, 0, compute_seconds=1.0)
    result1 = cluster.run_job(iter1)

    points2 = b.map(points, "reuse", compute_seconds=1.0)
    iter2 = b.shuffle(points2, "iter2", 4, 0, compute_seconds=1.0)
    result2 = cluster.run_job(iter2)
    # Second job skips the 20s source compute thanks to the cache.
    assert result2.duration < result1.duration / 2
    assert result2.cache_hits >= 4


def test_cache_locality_prefers_hot_executor():
    cluster = MiniCluster()
    executors = cluster.vm_executors(2)
    b = cluster.builder
    points = b.source("points", 2, compute_seconds=5.0, cache=True)
    stage1 = b.shuffle(points, "s1", 2, 0, compute_seconds=0.1)
    cluster.run_job(stage1)
    hot = {(ex.executor_id, p) for ex in executors
           for p in range(2) if ex.has_cached(points.rdd_id, p)}
    assert len(hot) == 2  # each partition cached somewhere

    again = b.map(points, "again", compute_seconds=0.1)
    stage2 = b.shuffle(again, "s2", 2, 0, compute_seconds=0.1)
    result = cluster.run_job(stage2)
    assert result.cache_hits == 2  # both tasks hit their cached partition


def test_executor_kill_retries_task_elsewhere():
    cluster = MiniCluster()
    executors = cluster.vm_executors(2)
    rdd = single_stage_rdd(cluster.builder, tasks=2, seconds=30.0)
    job = cluster.driver.submit(rdd)

    def killer(env):
        yield env.timeout(10)
        cluster.driver.task_scheduler.decommission_executor(
            executors[0], graceful=False, reason="test kill")

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=job.done)
    # The killed task restarted: total time > 30s, and the job finished.
    assert not job.failed
    assert job.duration > 30.0
    killed = [a for a in job.task_attempts if a.state is TaskState.FINISHED]
    assert len(killed) == 2


def test_local_shuffle_executor_loss_triggers_rollback():
    """Losing a map executor after the map stage forces recomputation —
    the §4.3 rollback that graceful draining avoids."""
    cluster = MiniCluster()
    executors = cluster.vm_executors(2)
    rdd = two_stage_rdd(cluster.builder, maps=2, reduces=2,
                        map_seconds=10.0, reduce_seconds=30.0,
                        shuffle_bytes=10 * MB)
    job = cluster.driver.submit(rdd)

    def killer(env):
        yield env.timeout(15)  # map stage done (~10s), reduce running
        cluster.driver.task_scheduler.decommission_executor(
            executors[0], graceful=False, reason="kill mid-reduce")

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=job.done)
    assert not job.failed
    # The surviving executor had to redo lost map partitions: the trace
    # shows a fetch failure or resubmission, and duration stretches well
    # past the no-failure 40s.
    rollback = (cluster.trace.select(category="dag", name="fetch_failed")
                or cluster.trace.select(category="dag", name="stage_outputs_lost"))
    assert rollback
    assert job.duration > 45.0


def test_hdfs_shuffle_survives_executor_loss():
    """With SplitServe's external shuffle, executor loss costs only the
    running task — no rollback."""
    cluster = MiniCluster(backend="hdfs")
    executors = cluster.vm_executors(2)
    rdd = two_stage_rdd(cluster.builder, maps=2, reduces=2,
                        map_seconds=10.0, reduce_seconds=30.0,
                        shuffle_bytes=10 * MB)
    job = cluster.driver.submit(rdd)

    def killer(env):
        yield env.timeout(15)
        cluster.driver.task_scheduler.decommission_executor(
            executors[0], graceful=False, reason="kill mid-reduce")

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=job.done)
    assert not job.failed
    assert not cluster.trace.select(category="dag", name="fetch_failed")


def test_vm_termination_kills_its_executors():
    """A terminated instance takes its executors (and in-flight tasks)
    with it; the scheduler recovers on the survivors."""
    cluster = MiniCluster()
    doomed = cluster.provider.request_vm("m4.xlarge", already_running=True)
    for _ in range(2):
        cluster.driver.add_vm_executor(doomed)
    survivor_vm = cluster.provider.request_vm("m4.xlarge",
                                              already_running=True)
    cluster.driver.add_vm_executor(survivor_vm)
    job = cluster.driver.submit(
        single_stage_rdd(cluster.builder, tasks=6, seconds=10.0))

    def reclaim(env):
        yield env.timeout(5.0)
        doomed.terminate()

    cluster.env.process(reclaim(cluster.env))
    cluster.env.run(until=job.done)
    assert not job.failed
    assert len(job.failed_attempts) >= 2  # the two in-flight tasks died
    assert len(cluster.driver.task_scheduler.executors) == 1


def test_graceful_drain_finishes_current_task_without_failures():
    cluster = MiniCluster()
    executors = cluster.vm_executors(2)
    rdd = single_stage_rdd(cluster.builder, tasks=4, seconds=10.0)
    job = cluster.driver.submit(rdd)

    def drainer(env):
        yield env.timeout(5)
        cluster.driver.task_scheduler.decommission_executor(
            executors[0], graceful=True)

    cluster.env.process(drainer(cluster.env))
    cluster.env.run(until=job.done)
    assert not job.failed
    assert all(a.state is TaskState.FINISHED for a in job.task_attempts)
    # Drained executor ran its in-flight task but nothing after: the
    # remaining 3 tasks went to the surviving executor.
    assert executors[0].tasks_finished == 1
    assert executors[1].tasks_finished == 3


def test_task_exhausting_retries_fails_job():
    conf = SparkConf({"spark.task.maxFailures": 2})
    cluster = MiniCluster(conf=conf)
    rdd = single_stage_rdd(cluster.builder, tasks=1, seconds=1000.0)
    job = cluster.driver.submit(rdd)

    def serial_killer(env):
        # Keep one executor around but kill whatever runs the task.
        for _ in range(3):
            ex = cluster.vm_executors(1)[0]
            yield env.timeout(10)
            if not ex.is_idle:
                cluster.driver.task_scheduler.decommission_executor(
                    ex, graceful=False, reason="chaos")

    cluster.env.process(serial_killer(cluster.env))
    with pytest.raises(JobFailedError):
        cluster.env.run(until=job.done)
    assert job.failed


def test_lambda_timeout_knob_drains_lambda_executors():
    conf = SparkConf({"spark.lambda.executor.timeout": 15.0})
    cluster = MiniCluster(conf=conf)
    cluster.lambda_executors(2)
    rdd = single_stage_rdd(cluster.builder, tasks=6, seconds=10.0)
    job = cluster.driver.submit(rdd)
    with pytest.raises(Exception):
        # With every Lambda drained after ~15s and no VMs to take over,
        # the job stalls: the simulation runs out of events.
        cluster.env.run(until=job.done)


def test_lambda_timeout_with_vm_takeover_completes():
    conf = SparkConf({"spark.lambda.executor.timeout": 15.0})
    cluster = MiniCluster(conf=conf)
    cluster.lambda_executors(2)
    cluster.vm_executors(2)
    rdd = single_stage_rdd(cluster.builder, tasks=8, seconds=10.0)
    job = cluster.driver.submit(rdd)
    cluster.env.run(until=job.done)
    assert not job.failed
    by_kind = {}
    for a in job.task_attempts:
        kind = "lambda" if a.executor_id.startswith("la-") else "vm"
        by_kind[kind] = by_kind.get(kind, 0) + 1
    # Lambdas ran early tasks then drained; VMs picked up the rest.
    assert by_kind["lambda"] <= 4
    assert by_kind["vm"] >= 4


def test_executor_counts_by_kind():
    cluster = MiniCluster()
    cluster.vm_executors(2)
    cluster.lambda_executors(3)
    assert len(cluster.driver.executors_of_kind(HostKind.VM)) == 2
    assert len(cluster.driver.executors_of_kind(HostKind.LAMBDA)) == 3
