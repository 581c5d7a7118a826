"""Tests for per-stage timing and attempt counts: a job's stages and the
DAG scheduler's stage events."""

import pytest

from tests.spark.helpers import MiniCluster, two_stage_rdd


def stage_times(cluster):
    """Stage name -> (first submission, last completion), from the
    trace's ``dag`` stage events."""
    times = {}
    for record in cluster.trace.select(category="dag"):
        if record.name == "stage_submitted":
            times.setdefault(record.get("stage"), [record.time, None])
        elif record.name == "stage_complete":
            times[record.get("stage")][1] = record.time
    return times


def test_stage_summaries_ordered_and_complete():
    cluster = MiniCluster()
    cluster.vm_executors(4)
    rdd = two_stage_rdd(cluster.builder, maps=4, reduces=4,
                        map_seconds=10.0, reduce_seconds=5.0,
                        shuffle_bytes=0)
    job = cluster.driver.submit(rdd)
    cluster.env.run(until=job.done)
    times = stage_times(cluster)
    assert len(job.stages) == len(times) == 2
    [map_times] = [t for name, t in times.items() if "map" in name]
    [result_times] = [t for name, t in times.items() if "result" in name]
    assert map_times[1] <= result_times[0]
    assert map_times[1] - map_times[0] == pytest.approx(10.0, rel=0.1)
    assert result_times[1] - result_times[0] == pytest.approx(5.0, rel=0.1)
    assert all(stage.attempts == 1 for stage in job.stages)


def test_stage_summaries_count_resubmissions():
    cluster = MiniCluster()
    executors = cluster.vm_executors(2)
    rdd = two_stage_rdd(cluster.builder, maps=2, reduces=2,
                        map_seconds=10.0, reduce_seconds=30.0,
                        shuffle_bytes=1024)
    job = cluster.driver.submit(rdd)

    def killer(env):
        yield env.timeout(15)
        cluster.driver.task_scheduler.decommission_executor(
            executors[0], graceful=False, reason="rollback trigger")

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=job.done)
    map_stage = next(s for s in job.stages if s.is_shuffle_map)
    assert map_stage.attempts >= 2  # the rollback re-ran it
