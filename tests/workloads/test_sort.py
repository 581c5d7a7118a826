"""Tests for the TeraSort-style workload."""

import pytest

from repro.cloud.constants import GB
from repro.core.scenarios import run_scenario
from repro.experiments.spec import ExperimentSpec
from repro.spark.rdd import RDDBuilder
from repro.workloads import SortWorkload


def _all_rdds(final):
    out, stack, seen = [], [final], set()
    while stack:
        rdd = stack.pop()
        if rdd.rdd_id in seen:
            continue
        seen.add(rdd.rdd_id)
        out.append(rdd)
        stack.extend(d.parent for d in rdd.deps)
    return out


def test_validation():
    with pytest.raises(ValueError):
        SortWorkload(dataset_gb=0)
    with pytest.raises(ValueError):
        SortWorkload().build(RDDBuilder(), 0)


def test_shuffle_moves_the_whole_dataset():
    w = SortWorkload(dataset_gb=16)
    final = w.build(RDDBuilder(), 32)
    total_shuffle = sum(d.total_bytes for r in _all_rdds(final)
                        for d in r.shuffle_deps)
    assert total_shuffle == pytest.approx(16 * GB)


def test_two_stages():
    w = SortWorkload(dataset_gb=8)
    final = w.build(RDDBuilder(), 32)
    shuffles = {d.shuffle_id for r in _all_rdds(final)
                for d in r.shuffle_deps}
    assert len(shuffles) == 1  # map stage + merge stage


def test_partition_override():
    w = SortWorkload(dataset_gb=8, partitions=256)
    assert w.build(RDDBuilder(), 32).num_partitions == 256


def test_record_count_is_terasort_layout():
    w = SortWorkload(dataset_gb=1)
    assert w.records == pytest.approx(GB / 100.0)


def test_sort_runs_under_splitserve():
    result = run_scenario(ExperimentSpec(
        "sort", "ss_hybrid", workload_params={"dataset_gb": 8}))
    assert not result.failed
    assert result.duration_s > 0
    # Shuffle-dominated: fetch+write time is a large share of compute.
    m = result.metrics
    assert m["write_seconds_total"] + m["fetch_seconds_total"] > 0


def test_sort_is_io_bound_not_core_bound():
    """Sort's defining property: the dataset-sized shuffle through the
    shared EBS channel dominates, so quartering the cores barely hurts
    (unlike the compute-bound workloads)."""
    base = run_scenario(ExperimentSpec(
        "sort", "spark_R_vm", workload_params={"dataset_gb": 8}))
    starved = run_scenario(ExperimentSpec(
        "sort", "spark_r_vm", workload_params={"dataset_gb": 8}))
    assert base.duration_s < starved.duration_s < 1.6 * base.duration_s
