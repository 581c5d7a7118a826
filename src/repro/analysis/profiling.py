"""Offline workload profiling (§5.1, Figure 4).

Measures execution time and marginal cost as a function of the degree of
parallelism, with all executors either Lambda-based (Figure 4a) or
VM-based on the fewest instances covering the cores (Figure 4b) — the
classic U-curve from which the cost manager picks operating points.

The canonical entry point is :func:`profile_point`, which executes one
``profile_lambda``/``profile_vm`` :class:`ExperimentSpec`; sweeps are
spec lists fanned out by :class:`repro.experiments.ExperimentRunner`, or
:func:`profile_workload` for an in-process sweep over one spec.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    from repro.experiments.spec import ExperimentSpec

#: The sweep the paper uses: 1-128 executors in powers of two.
DEFAULT_PARALLELISM_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ProfilePoint:
    """One measured point of a profiling curve.

    A point whose job could not finish has a NaN duration, the cost
    billed up to that moment, and a ``failure_reason``.
    """

    parallelism: int
    duration_s: float
    cost: float
    executor_kind: str  # "lambda" | "vm"
    failure_reason: Optional[str] = None


def _profile_lambda(workload: Workload, parallelism: int, seed: int,
                    conf: Optional[SparkConf] = None) -> ProfilePoint:
    runtime = ClusterRuntime(seed)
    env, provider = runtime.env, runtime.provider
    # Master + HDFS node, per the workload's paper setup.
    master = provider.request_vm(workload.spec.master_itype, name="master",
                                 already_running=True)
    hdfs = HDFS(env, [master], runtime.rng, runtime.meter)
    conf = conf if conf is not None else SparkConf()
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
    return ProfilePoint(parallelism, duration, runtime.meter.total(),
                        "lambda", failure)


def _profile_vm(workload: Workload, parallelism: int, seed: int,
                conf: Optional[SparkConf] = None) -> ProfilePoint:
    runtime = ClusterRuntime(seed)
    env, provider = runtime.env, runtime.provider
    conf = conf if conf is not None else SparkConf()
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
    return ProfilePoint(parallelism, job.duration, runtime.meter.total(),
                        "vm")


def profile_point(spec: "ExperimentSpec") -> ProfilePoint:
    """Execute one ``profile_lambda``/``profile_vm`` spec."""
    from repro.experiments.spec import PROFILE_SCENARIOS
    if spec.scenario not in PROFILE_SCENARIOS:
        raise ValueError(f"not a profiling spec: scenario must be one of "
                         f"{PROFILE_SCENARIOS}, got {spec.scenario!r}")
    if spec.parallelism is None:
        raise ValueError("a profiling spec needs parallelism set")
    kind = "lambda" if spec.scenario == "profile_lambda" else "vm"
    runner = _profile_lambda if kind == "lambda" else _profile_vm
    return runner(spec.make_workload(), spec.parallelism, spec.seed,
                  conf=spec.conf())


def profile_workload(
    spec: "ExperimentSpec",
    parallelism_sweep: Sequence[int] = DEFAULT_PARALLELISM_SWEEP,
) -> List[ProfilePoint]:
    """Sweep the degree of parallelism for one ``profile_*`` spec.

    When the spec's ``parallelism`` is None, the sweep covers
    ``parallelism_sweep``::

        profile_workload(ExperimentSpec("pagerank-large", "profile_lambda"))

    Returns points in sweep order; feed ``{p.parallelism: p.duration_s}``
    to :class:`repro.core.cost_manager.CostManager`.

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


def optimal_parallelism(points: Sequence[ProfilePoint]) -> ProfilePoint:
    """The performance-optimal point (minimum duration) of a curve;
    failed points are skipped."""
    finished = [p for p in points if p.failure_reason is None]
    if not finished:
        raise ValueError("no finished profile points")
    return min(finished, key=lambda p: p.duration_s)
