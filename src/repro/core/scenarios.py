"""The eight evaluation scenarios of §5.1, as thin cluster configurations.

Every scenario runs a workload's job (always *sized* for R cores) under a
different resource condition and records execution time plus the marginal
dollar cost of the resources involved:

========================  =====================================================
``spark_r_vm``            vanilla Spark, r < R cores, no autoscaling
``spark_R_vm``            vanilla Spark, R cores (the baseline)
``spark_autoscale``       vanilla Spark, r cores; R − r VM cores procured after
                          a detection threshold, usable after the VM delay
``qubole_R_la``           Qubole Spark-on-Lambda: R Lambdas, S3 shuffle
``ss_R_vm``               SplitServe, R VM cores, HDFS shuffle
``ss_R_la``               SplitServe, R Lambdas, HDFS shuffle
``ss_hybrid``             SplitServe, r VM cores + Δ Lambdas, no segue
``ss_hybrid_segue``       same, plus segue to VM cores once they are ready
========================  =====================================================

The shared plumbing — environment, seeded streams, provider, meter,
event bus, fault arming — lives in
:class:`~repro.cluster.runtime.ClusterRuntime`, and the executor
attachment shapes (VM attach loops, background scale-out, Lambda
respawn) in :mod:`repro.cluster.pool`. Each ``_scenario`` function below
is only the configuration that distinguishes it: which shuffle backend,
which capacity, and which billing lines.

Marginal-cost accounting follows §5.1 ("we only report the cost incurred
towards the job in question"): pre-provisioned cluster cores are billed
at their per-core share for the job's duration; VMs procured *for* the
job are billed whole from readiness; Lambdas per GB-second used; storage
requests per the service's price sheet. The master (and the HDFS node
colocated with it) is long-running shared infrastructure, identical
across scenarios, and is not billed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cluster.pool import (
    add_executors_on_vms,
    attach_lambda_with_respawn,
    scale_out_after,
)
from repro.cluster.runtime import ClusterRuntime
from repro.core.splitserve import SplitServe
from repro.observability.instrumentation import attribute_costs
from repro.observability.stage_metrics import dotted_stage_metrics
from repro.spark.application import JobResult, SparkDriver
from repro.spark.config import SparkConf
from repro.spark.dag_scheduler import JobFailedError
from repro.spark.shuffle import LocalShuffleBackend, QuboleS3ShuffleBackend
from repro.storage import S3
from repro.workloads.base import Workload

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.experiments.records import RunRecord
    from repro.experiments.spec import ExperimentSpec

SCENARIO_NAMES = [
    "spark_r_vm",
    "spark_R_vm",
    "spark_autoscale",
    "qubole_R_la",
    "ss_R_vm",
    "ss_R_la",
    "ss_hybrid",
    "ss_hybrid_segue",
]

#: Human-readable labels matching the paper's figures (R and r filled in
#: per workload when rendering; d is the Lambda delta the run *used*,
#: which can fall short of R − r under invoke throttling — see
#: :meth:`~repro.experiments.records.RunRecord.label`).
SCENARIO_LABELS = {
    "spark_r_vm": "Spark {r} VM",
    "spark_R_vm": "Spark {R} VM",
    "spark_autoscale": "Spark {r}/{R} autoscale",
    "qubole_R_la": "Qubole {R} La",
    "ss_R_vm": "SS {R} VM",
    "ss_R_la": "SS {R} La",
    "ss_hybrid": "SS {r} VM / {d} La",
    "ss_hybrid_segue": "SS {r} VM / {d} La Segue",
    # Not part of SCENARIO_NAMES (never run by ``--scenario all``): the
    # planner-enforced split, dispatched via ExperimentSpec.policy.
    "ss_planned": "SS planned split",
}

#: Effective single-prefix S3 request rate under Qubole's shuffle flood.
#: The nominal per-bucket ceilings (3.5k PUT/s / 5.5k GET/s) collapse
#: under sustained 503-and-retry storms on one key prefix, which is how
#: Qubole's shuffle drove S3 in 2019; see EXPERIMENTS.md.
QUBOLE_S3_EFFECTIVE_RATE = 160.0
#: Per-connection S3 throughput for Qubole's small pair objects (no
#: multipart parallelism on ~MB-sized shuffle blocks).
QUBOLE_S3_STREAM_BYTES_PER_S = 10.0 * 1024 * 1024
#: Delay before the autoscaler decides to procure VMs.
AUTOSCALE_DETECT_S = 1.0


def _finish(runtime: ClusterRuntime, job, experiment: "ExperimentSpec",
            workload: Workload) -> "RunRecord":
    """The run's record: job fields, the telemetry snapshot, per-stage
    and per-kind aggregates, then (under a fault plan) recovery."""
    from repro.experiments.records import RunRecord
    failed = job.failed
    runtime.listener.finalize(runtime.env.now)
    attribute_costs(runtime.metrics, runtime.meter.total(),
                    runtime.meter.breakdown())
    record = RunRecord(
        spec=experiment, workload=workload.name,
        duration_s=job.duration if job.duration is not None else float("nan"),
        cost=runtime.meter.total(),
        failed=failed,
        failure_reason=job.failure_reason,
        cost_breakdown=runtime.meter.breakdown(),
        trace=runtime.recorder if runtime.recorder.enabled else None)
    metrics = record.metrics
    if not failed:
        jr = JobResult.from_job(job)
        record.tasks = jr.num_tasks
        record.tasks_by_kind = jr.tasks_by_kind
        record.failed_attempts = jr.failed_attempts
        metrics.update({
            "num_stages": jr.num_stages,
            "submit_time": jr.submit_time,
            "finish_time": jr.finish_time,
            "fetch_seconds_total": jr.fetch_seconds_total,
            "input_seconds_total": jr.input_seconds_total,
            "compute_seconds_total": jr.compute_seconds_total,
            "gc_overhead_seconds_total": jr.gc_overhead_seconds_total,
            "write_seconds_total": jr.write_seconds_total,
            "cache_hits": jr.cache_hits,
        })
    metrics.update(runtime.metrics.snapshot())
    if not failed:
        metrics.update(dotted_stage_metrics(job))
    if runtime.recovery is not None:
        metrics.update(runtime.recovery.metrics())
        metrics["faults_injected"] = len(runtime.injector.injected)
    return record


def _run_until_done(runtime: ClusterRuntime, job) -> None:
    try:
        runtime.env.run(until=job.done)
    except JobFailedError:
        pass  # recorded on the job itself


# ---------------------------------------------------------------------------
# Vanilla Spark scenarios
# ---------------------------------------------------------------------------

def _vanilla(runtime: ClusterRuntime, experiment: "ExperimentSpec",
             workload: Workload, conf: SparkConf, cores: int,
             autoscale: bool) -> "RunRecord":
    spec = workload.spec
    driver = SparkDriver(runtime.env, conf, runtime.rng,
                         LocalShuffleBackend(), trace=runtime.trace)
    vms = runtime.provision_worker_cores(cores, spec.worker_itype)
    add_executors_on_vms(driver, vms, cores)
    runtime.arm_faults(driver)

    new_vms: List = []
    if autoscale:
        scale_out_after(
            runtime, AUTOSCALE_DETECT_S, spec.shortfall_cores,
            boot_delay=lambda itype: runtime.rng.lognormal_around(
                "autoscale.boot", spec.vm_ready_delay_s, 0.1),
            on_ready=lambda vm, take: add_executors_on_vms(
                driver, [vm], take),
            vms_out=new_vms)

    job = driver.submit(workload.build(runtime.lineage, spec.required_cores))
    _run_until_done(runtime, job)
    end = runtime.env.now
    for vm in vms:
        runtime.bill_shared_cores(vm, min(cores, vm.itype.vcpus), 0.0, end)
    for vm in new_vms:
        runtime.bill_dedicated_vm(vm, end)
    return _finish(runtime, job, experiment, workload)


# ---------------------------------------------------------------------------
# Qubole Spark-on-Lambda
# ---------------------------------------------------------------------------

def _qubole(runtime: ClusterRuntime, experiment: "ExperimentSpec",
            workload: Workload, conf: SparkConf) -> "RunRecord":
    spec = workload.spec
    if not spec.qubole_supported:
        # §5.2, footnote 11: "their prototype encounters fatal errors
        # while running this query".
        from repro.experiments.records import RunRecord
        return RunRecord(
            spec=experiment, workload=workload.name, failed=True,
            failure_reason="Qubole prototype fatal error (paper, fn. 11)")
    s3 = S3(runtime.env, runtime.rng, runtime.meter,
            put_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
            get_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
            stream_bytes_per_s=QUBOLE_S3_STREAM_BYTES_PER_S)
    backend = QuboleS3ShuffleBackend(s3)
    driver = SparkDriver(runtime.env, conf, runtime.rng, backend,
                         trace=runtime.trace)

    def read_from_s3(executor, nbytes):
        yield s3.batch_read(1, nbytes, via_links=executor.net_links())

    driver.task_scheduler.input_reader = read_from_s3
    runtime.arm_faults(driver, storages=[s3])

    lambdas: List = []
    job_holder: List = []
    for fn in [runtime.provider.invoke_lambda()
               for _ in range(spec.required_cores)]:
        lambdas.append(fn)
        runtime.env.process(attach_lambda_with_respawn(
            runtime, driver, fn, lambdas, job_holder))

    job = driver.submit(workload.build(runtime.lineage, spec.required_cores))
    job_holder.append(job)
    _run_until_done(runtime, job)
    for fn in lambdas:
        fn.finish()
    return _finish(runtime, job, experiment, workload)


# ---------------------------------------------------------------------------
# SplitServe scenarios
# ---------------------------------------------------------------------------

def _splitserve(runtime: ClusterRuntime, experiment: "ExperimentSpec",
                workload: Workload, conf: SparkConf, vm_cores: int,
                segue: bool, segue_at_s: Optional[float],
                total_cores: Optional[int] = None,
                segue_cores: Optional[int] = None) -> "RunRecord":
    spec = workload.spec
    # The §5.1 scenarios always assemble R slots and (on segue) procure
    # the Δ = R − r shortfall; planned runs pass both explicitly.
    total = total_cores if total_cores is not None else spec.required_cores
    procure = (segue_cores if segue_cores is not None
               else spec.shortfall_cores)
    master = runtime.provider.request_vm(spec.master_itype, name="master",
                                         already_running=True)
    # The master VM hosts the driver + HDFS; its cores are not executor
    # capacity. Claim them so the launching facility never places
    # executors there.
    master.allocate_cores(master.itype.vcpus)
    ss = SplitServe(runtime.env, runtime.provider, runtime.rng, conf=conf,
                    trace=runtime.trace, master_vm=master)

    def read_from_hdfs(executor, nbytes):
        yield ss.shuffle_storage.batch_read(1, nbytes,
                                            via_links=executor.net_links())

    ss.driver.task_scheduler.input_reader = read_from_hdfs
    runtime.arm_faults(ss.driver, storages=[ss.shuffle_storage])
    worker_vms = []
    if vm_cores > 0:
        worker_vms = runtime.provision_worker_cores(vm_cores,
                                                    spec.worker_itype)

    run = ss.submit_job(workload.build(runtime.lineage, spec.required_cores),
                        required_cores=total,
                        max_vm_cores=vm_cores)

    segue_vms: List = []
    if segue and procure > 0:
        delay = segue_at_s
        if delay is None:
            delay = spec.segue_available_s
        if delay is None:
            delay = spec.vm_ready_delay_s
        scale_out_after(
            runtime, None, procure,
            boot_delay=lambda itype, delay=delay: delay,
            on_ready=lambda vm, take: ss.segueing.segue_to_vm(vm, take),
            vms_out=segue_vms)

    _run_until_done(runtime, run.job)
    ss.finish_run(run)
    end = runtime.env.now
    cores_left = vm_cores
    for vm in worker_vms:
        used = min(cores_left, vm.itype.vcpus)
        runtime.bill_shared_cores(vm, used, 0.0, end)
        cores_left -= used
    for vm in segue_vms:
        runtime.bill_dedicated_vm(vm, end)
    # Fallback VM executors (Lambda slots degraded onto free cluster
    # cores) ride pre-provisioned instances: bill their per-core share.
    for executor in run.launch.fallback_vm_executors:
        runtime.bill_shared_cores(executor.vm, 1, 0.0, end)
    record = _finish(runtime, run.job, experiment, workload)
    if runtime.recovery is not None:
        # Each launch slot registers a Lambda, falls back to a VM core,
        # or goes unfilled; RunRecord.label reads the last two.
        record.metrics["lambda_fallback_cores"] = run.launch.fallback_cores
        record.metrics["failed_lambda_invocations"] = (
            run.launch.failed_invocations)
        record.metrics["unfilled_cores"] = run.launch.unfilled_cores
    return record


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_scenario(spec: "ExperimentSpec",
                 keep_trace: bool = False) -> "RunRecord":
    """Execute one scenario run and return its record.

    Takes a single :class:`~repro.experiments.spec.ExperimentSpec`::

        run_scenario(ExperimentSpec("kmeans", "ss_R_la", seed=3))

    ``keep_trace`` keeps the run's :class:`TraceRecorder` on
    ``record.trace`` (a runtime concern, so not part of the spec).

    The old ``run_scenario(workload_obj, scenario_name, ...)`` keyword
    form has been removed; build a spec (workloads by registry name,
    parameters via ``workload_params``).
    """
    from repro.experiments.spec import ExperimentSpec
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "run_scenario takes an ExperimentSpec, e.g. "
            "run_scenario(ExperimentSpec('kmeans', 'ss_R_la', seed=3)); "
            f"got {type(spec).__name__}")
    scenario = spec.scenario
    if scenario not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"known: {SCENARIO_NAMES}")
    workload = spec.make_workload()
    conf = spec.conf()
    runtime = ClusterRuntime(spec.seed, trace_enabled=keep_trace,
                             faults=spec.faults)
    required = workload.spec.required_cores
    available = workload.spec.available_cores
    if scenario.startswith("spark_"):
        cores = required if scenario == "spark_R_vm" else available
        return _vanilla(runtime, spec, workload, conf, cores,
                        autoscale=scenario == "spark_autoscale")
    if scenario == "qubole_R_la":
        return _qubole(runtime, spec, workload, conf)
    vm_cores = {"ss_R_vm": required, "ss_R_la": 0}.get(scenario, available)
    return _splitserve(runtime, spec, workload, conf, vm_cores,
                       segue=scenario == "ss_hybrid_segue",
                       segue_at_s=spec.segue_at_s)


def run_split(runtime: ClusterRuntime, spec: "ExperimentSpec", *,
              vm_cores: int, lambda_cores: int,
              segue_cores: int = 0,
              segue_at_s: Optional[float] = None) -> "RunRecord":
    """Execute one SplitServe run of ``spec``'s workload under an
    explicit split decision, on ``runtime``; the record carries ``spec``.

    ``vm_cores`` pre-provisioned VM slots plus ``lambda_cores`` Lambda
    slots are assembled at submission; ``segue_cores`` VM cores are
    procured in the background and, once ready at ``segue_at_s``, take
    over from (up to as many) Lambda executors via segueing — with no
    Lambdas to drain this degrades to plain scale-out. Billing matches
    the §5.1 scenarios (shared per-core VM share, whole procured VMs,
    Lambda GB-seconds). Used by :mod:`repro.planner` to enforce a
    :class:`~repro.planner.model.SplitCandidate`; the eight fixed
    scenarios keep their byte-identical paths through ``run_scenario``.
    """
    if vm_cores + lambda_cores <= 0:
        raise ValueError("a split needs at least one VM or Lambda slot")
    return _splitserve(runtime, spec, spec.make_workload(), spec.conf(),
                       vm_cores, segue_cores > 0, segue_at_s,
                       total_cores=vm_cores + lambda_cores,
                       segue_cores=segue_cores)
