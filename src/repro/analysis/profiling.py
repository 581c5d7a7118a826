"""Offline workload profiling (§5.1, Figure 4).

Measures execution time and marginal cost as a function of the degree of
parallelism, with all executors either Lambda-based (Figure 4a) or
VM-based on the fewest instances covering the cores (Figure 4b) — the
classic U-curve from which the cost manager picks operating points.

The canonical entry point is :func:`profile_point`, which executes one
``profile_lambda``/``profile_vm`` :class:`ExperimentSpec` and returns
its :class:`~repro.experiments.records.RunRecord`; sweeps are spec lists
fanned out by :class:`repro.experiments.ExperimentRunner`, or
:func:`profile_workload` for an in-process sweep over one spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.cloud.instance_types import fewest_instances_for_cores
from repro.cluster.pool import add_executors_on_vms, invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.simulation.kernel import SimulationError
from repro.spark.application import SparkDriver
from repro.spark.config import SparkConf
from repro.spark.shuffle import ExternalShuffleBackend, LocalShuffleBackend
from repro.storage import HDFS
from repro.workloads.base import Workload

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.experiments.records import RunRecord
    from repro.experiments.spec import ExperimentSpec

#: The sweep the paper uses: 1-128 executors in powers of two.
DEFAULT_PARALLELISM_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)


def _record(spec: "ExperimentSpec", workload: Workload,
            runtime: ClusterRuntime, duration_s: float, failure_reason: Optional[str] = None
            ) -> "RunRecord":
    from repro.experiments.records import RunRecord
    kind = "lambda" if spec.scenario == "profile_lambda" else "vm"
    return RunRecord(
        spec=spec, workload=workload.name, duration_s=duration_s,
        cost=runtime.meter.total(), failed=failure_reason is not None,
        failure_reason=failure_reason,
        metrics={"parallelism": spec.parallelism, "executor_kind": kind})


def _profile_lambda(spec: "ExperimentSpec", workload: Workload,
                    conf: SparkConf) -> "RunRecord":
    parallelism = spec.parallelism
    runtime = ClusterRuntime(spec.seed)
    env, provider = runtime.env, runtime.provider
    # Master + HDFS node, per the workload's paper setup.
    master = provider.request_vm(workload.spec.master_itype, name="master",
                                 already_running=True)
    hdfs = HDFS(env, master, runtime.rng, runtime.meter)
    driver = SparkDriver(env, conf, runtime.rng,
                         ExternalShuffleBackend(hdfs))

    def read_input(executor, nbytes):
        yield hdfs.batch_read(1, nbytes, via_links=executor.net_links())

    driver.task_scheduler.input_reader = read_input
    lambdas = []
    invoke_lambda_executors(runtime, driver, parallelism, lambdas)
    job = driver.submit(workload.build(runtime.lineage, parallelism))
    failure = None
    try:
        env.run(until=job.done)
    except SimulationError:
        # Nothing respawns a profile point's Lambdas: once every one has
        # hit its lifetime cap, an unfinished job can never finish.
        if job.done.triggered or driver.task_scheduler.executors:
            raise
        failure = (f"all {parallelism} Lambda executor(s) expired "
                   f"before the job finished")
    for fn in lambdas:
        fn.finish()
    duration = job.duration if failure is None else float("nan")
    return _record(spec, workload, runtime, duration, failure)


def _profile_vm(spec: "ExperimentSpec", workload: Workload,
                conf: SparkConf) -> "RunRecord":
    parallelism = spec.parallelism
    runtime = ClusterRuntime(spec.seed)
    env, provider = runtime.env, runtime.provider
    driver = SparkDriver(env, conf, runtime.rng, LocalShuffleBackend())
    # §5.1: "the fewest number of instances that provide the required
    # number of cores to minimize the inter-VM communication overhead".
    vms = [provider.request_vm(itype, already_running=True)
           for itype in fewest_instances_for_cores(parallelism)]
    add_executors_on_vms(driver, vms, parallelism)
    job = driver.submit(workload.build(runtime.lineage, parallelism))
    env.run(until=job.done)
    end = env.now
    for vm in vms:
        runtime.meter.bill_vm(vm.name, vm.itype, 0.0, end)
    return _record(spec, workload, runtime, job.duration)


def profile_point(spec: "ExperimentSpec") -> "RunRecord":
    """Execute one ``profile_lambda``/``profile_vm`` spec. The record's
    metrics are its ``parallelism`` and ``executor_kind``; a point whose
    job could not finish is failed, with a NaN duration and the cost
    billed up to that moment."""
    from repro.experiments.spec import PROFILE_SCENARIOS
    if spec.scenario not in PROFILE_SCENARIOS:
        raise ValueError(f"not a profiling spec: scenario must be one of "
                         f"{PROFILE_SCENARIOS}, got {spec.scenario!r}")
    if spec.parallelism is None:
        raise ValueError("a profiling spec needs parallelism set")
    runner = (_profile_lambda if spec.scenario == "profile_lambda"
              else _profile_vm)
    return runner(spec, spec.make_workload(), spec.conf())


def profile_workload(
    spec: "ExperimentSpec",
    parallelism_sweep: Sequence[int] = DEFAULT_PARALLELISM_SWEEP,
) -> List["RunRecord"]:
    """Sweep the degree of parallelism for one ``profile_*`` spec.

    When the spec's ``parallelism`` is None, the sweep covers
    ``parallelism_sweep``::

        profile_workload(ExperimentSpec("pagerank-large", "profile_lambda"))

    Returns records in sweep order; feed
    ``{r.spec.parallelism: r.duration_s}`` to
    :class:`repro.core.cost_manager.CostManager`.

    The old ``profile_workload(workload_obj, "lambda", ...)`` keyword
    form has been removed; build a ``profile_lambda``/``profile_vm``
    spec (workloads by registry name) instead.
    """
    from repro.experiments.spec import ExperimentSpec
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "profile_workload takes an ExperimentSpec, e.g. "
            "profile_workload(ExperimentSpec('pagerank-large', "
            "'profile_lambda')); "
            f"got {type(spec).__name__}")
    sweep = ([spec.parallelism] if spec.parallelism is not None
             else parallelism_sweep)
    return [profile_point(spec.with_(parallelism=p)) for p in sweep]


def optimal_parallelism(points: Sequence["RunRecord"]) -> "RunRecord":
    """The performance-optimal point (minimum duration) of a curve of
    profile records; failed points are skipped."""
    finished = [p for p in points if not p.failed]
    if not finished:
        raise ValueError("no finished profile points")
    return min(finished, key=lambda p: p.duration_s)
