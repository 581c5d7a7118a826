"""Stage specs share one pipeline per distinct compute-cost tuple.

``DAGScheduler._build_spec`` keys a stage's specs by the per-RDD compute
costs of the partition, the only input to ``_stage_pipeline`` that
varies with the partition, so equal-cost partitions share one pipeline
tuple and one set of derived views. For every stage of every registered
workload, at the parallelisms its scenarios use, each spec must equal
one built from scratch, with freshly computed views.
"""

import pytest

from repro.spark.dag_scheduler import DAGScheduler
from repro.spark.task import TaskSpec
from repro.workloads.registry import WORKLOADS, make_workload
from tests.spark.helpers import MiniCluster

VIEWS = ("working_set_bytes", "cache_steps", "input_bytes_from",
         "compute_seconds_from")


def built_stages(name, parallelism):
    cluster = MiniCluster()
    dag = cluster.driver.dag_scheduler
    final = make_workload(name).build(cluster.builder, parallelism)
    return dag, DAGScheduler._collect_stages(dag._create_result_stage(final))


def from_scratch(stage, partition):
    """The spec of ``partition`` with nothing shared or precomputed."""
    ancestry = tuple(stage.rdd.narrow_ancestry())
    write, reducers = None, 0
    if stage.is_shuffle_map:
        write = (stage.out_dep.shuffle_id, stage.out_dep.bytes_per_map)
        reducers = stage.out_reducers
    preference = stage.rdd.kind_preference
    return TaskSpec(
        stage_id=stage.stage_id, partition=partition,
        pipeline=DAGScheduler._stage_pipeline(ancestry, partition),
        shuffle_reads=tuple(
            (dep.shuffle_id, dep.total_bytes / stage.num_tasks)
            for _owner, dep in DAGScheduler._incoming_deps(stage.rdd)),
        shuffle_write=write, shuffle_write_reducers=reducers,
        stage_task_count=stage.num_tasks,
        sized_for=preference(partition) if preference else None)


def costs(spec):
    return tuple(step.compute_seconds for step in spec.pipeline)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_specs_equal_fresh_builds_and_share_by_cost(name):
    workload = make_workload(name)
    for parallelism in sorted({workload.spec.available_cores,
                               workload.spec.required_cores}):
        dag, stages = built_stages(name, parallelism)
        for stage in stages:
            specs = [dag._build_spec(stage, p)
                     for p in range(stage.num_tasks)]
            variants = {}
            for spec in specs:
                fresh = from_scratch(stage, spec.partition)
                assert spec == fresh
                for view in VIEWS:
                    assert getattr(spec, view) == getattr(fresh, view), view
                first = variants.setdefault(costs(spec), spec)
                assert spec.pipeline is first.pipeline
                for view in VIEWS:
                    assert getattr(spec, view) is getattr(first, view), view


def test_every_rdd_cost_keys_the_variant():
    """A constant source piped into a per-partition map: the variants
    follow the map's costs, not the first RDD's."""
    cluster = MiniCluster()
    dag = cluster.driver.dag_scheduler
    source = cluster.builder.source("source", partitions=4,
                                    compute_seconds=1.0)
    mapped = cluster.builder.map(source, "mapped",
                                 compute_seconds=lambda p: p % 2 + 1.0)
    stage = dag._create_result_stage(mapped)
    specs = [dag._build_spec(stage, p) for p in range(4)]
    assert specs == [from_scratch(stage, p) for p in range(4)]
    assert specs[2].pipeline is specs[0].pipeline
    assert specs[1].pipeline is not specs[0].pipeline


def test_skewed_pagerank_stages_build_two_pipelines_not_sixteen():
    dag, stages = built_stages("pagerank-small", 16)
    counts = []
    for stage in stages:
        specs = [dag._build_spec(stage, p) for p in range(stage.num_tasks)]
        counts.append(len({id(spec.pipeline) for spec in specs}))
    # Every stage with a skewed RDD has a hot partition 0 and 15 equal
    # ones; only the zero-cost ranks stage before the final one is uniform.
    assert sorted(counts) == [1] + [2] * (len(stages) - 1)
