"""Ablation: the segue design choices of §4.3.

Two sweeps:

1. **Drain vs kill.** SplitServe gracefully drains Lambda executors
   ("simply stops directing additional tasks") instead of killing them,
   because a kill marks tasks Failed and, with executor-local shuffle
   state, triggers execution rollback. We run the same hybrid job and
   decommission the Lambda executors mid-flight both ways.

2. **The spark.lambda.executor.timeout knob.** Sweeping the threshold
   shows the trade: small values drain Lambdas early (cheap, but work
   shifts to the few VM cores -> slower); large values keep Lambdas
   longer (faster until the GC/cost cliff).

Both experiments run as ``custom:`` ExperimentSpecs through the
ExperimentRunner: the mid-flight decommission setup is not a §5.1
scenario, so the spec points at the module-level experiment functions
below, keeping each (policy, knob) point declarative and fan-out-able.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cluster.runtime import ClusterRuntime
from repro.core import SplitServe
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.spark import HostKind
from repro.workloads import SyntheticWorkload
from benchmarks.conftest import run_once

WORKLOAD = dict(stages=4, core_seconds_per_stage=320.0,
                shuffle_bytes_per_boundary=200 * 1024 * 1024,
                required_cores=8, available_cores=2)

_HERE = "custom:benchmarks.bench_ablation_segue_policy"
DECOMMISSION = f"{_HERE}:decommission_experiment"
TIMEOUT_KNOB = f"{_HERE}:timeout_experiment"


def build_ss(seed=0, conf=None, worker_cores=2):
    runtime = ClusterRuntime(seed)
    provider = runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    master.allocate_cores(master.itype.vcpus)
    ss = SplitServe(runtime.env, provider, runtime.rng, conf=conf,
                    master_vm=master)
    worker = provider.request_vm("m4.4xlarge", already_running=True)
    worker.allocate_cores(worker.itype.vcpus - worker_cores)
    return runtime, ss


def _submit(runtime, ss, spec):
    workload = SyntheticWorkload(**dict(spec.workload_params))
    wspec = workload.spec
    return ss.submit_job(workload.build(runtime.lineage,
                                        wspec.required_cores),
                         required_cores=wspec.required_cores,
                         max_vm_cores=wspec.available_cores), workload


def decommission_experiment(spec):
    """Custom experiment: drain (or kill) all Lambda executors at
    ``extra["at_s"]`` and measure the recovery penalty."""
    params = dict(spec.extra)
    graceful, at_s = bool(params["graceful"]), float(params["at_s"])
    runtime, ss = build_ss(seed=spec.seed, conf=spec.conf())
    env, meter = runtime.env, runtime.meter
    run, workload = _submit(runtime, ss, spec)

    def decommission(env):
        yield env.timeout(at_s)
        for executor in list(ss.driver.executors_of_kind(HostKind.LAMBDA)):
            ss.driver.task_scheduler.decommission_executor(
                executor, graceful=graceful, reason="ablation")

    env.process(decommission(env))
    env.run(until=run.job.done)
    ss.finish_run(run)
    return {"workload": workload.name,
            "duration_s": run.job.duration,
            "cost": meter.total(),
            "cost_breakdown": meter.breakdown(),
            "metrics": {"failed_tasks": len(run.job.failed_attempts)}}


def timeout_experiment(spec):
    """Custom experiment: one spark.lambda.executor.timeout setting
    (carried in the spec's conf_overrides)."""
    runtime, ss = build_ss(seed=spec.seed, conf=spec.conf())
    run, workload = _submit(runtime, ss, spec)
    runtime.env.run(until=run.job.done)
    ss.finish_run(run)
    breakdown = runtime.meter.breakdown()
    return {"workload": workload.name,
            "duration_s": run.job.duration,
            "cost": runtime.meter.total(),
            "cost_breakdown": breakdown,
            "metrics": {"lambda_cost": breakdown.get("lambda", 0.0)}}


def run_decommission(graceful: bool, at_s: float = 25.0, runner=None):
    runner = runner if runner is not None else ExperimentRunner()
    spec = ExperimentSpec(workload="synthetic", scenario=DECOMMISSION,
                          workload_params=WORKLOAD,
                          extra={"graceful": graceful, "at_s": at_s})
    [record] = runner.run([spec], keep_errors=False)
    return record.duration_s, int(record.metrics["failed_tasks"])


def run_timeout_sweep(runner=None):
    runner = runner if runner is not None else ExperimentRunner()
    timeouts = (20.0, 60.0, 120.0, None)
    specs = [ExperimentSpec(
        workload="synthetic", scenario=TIMEOUT_KNOB,
        workload_params=WORKLOAD,
        conf_overrides={"spark.lambda.executor.timeout": timeout})
        for timeout in timeouts]
    records = runner.run(specs, keep_errors=False)
    return {timeout: (record.duration_s, record.metrics["lambda_cost"])
            for timeout, record in zip(timeouts, records)}


def test_ablation_drain_vs_kill(benchmark, emit):
    (drain_t, drain_killed), (kill_t, kill_killed) = run_once(
        benchmark, lambda: (run_decommission(True),
                            run_decommission(False)))
    emit("Ablation — graceful drain vs hard kill of Lambda executors",
         format_table(["policy", "time (s)", "failed tasks"],
                      [["drain (SplitServe)", f"{drain_t:.1f}", drain_killed],
                       ["kill", f"{kill_t:.1f}", kill_killed]]))
    # Draining never fails a task; killing fails the in-flight ones and
    # costs recovery time.
    assert drain_killed == 0
    assert kill_killed > 0
    assert kill_t >= drain_t


def test_ablation_lambda_timeout_knob(benchmark, emit):
    results = run_once(benchmark, run_timeout_sweep)
    rows = [[("none" if k is None else f"{k:.0f}s"), f"{t:.1f}",
             f"${c:.4f}"] for k, (t, c) in results.items()]
    emit("Ablation — spark.lambda.executor.timeout sweep",
         format_table(["timeout", "time (s)", "lambda cost"], rows))
    # Earlier drains mean less Lambda spend but longer runs; the knob
    # spans that trade monotonically at the extremes.
    assert results[20.0][1] <= results[None][1]
    assert results[20.0][0] >= results[None][0]


@pytest.mark.smoke
def test_smoke_one_timeout_point():
    runner = ExperimentRunner(workers=1, cache=False)
    spec = ExperimentSpec(
        workload="synthetic", scenario=TIMEOUT_KNOB,
        workload_params=dict(stages=2, core_seconds_per_stage=16.0,
                             shuffle_bytes_per_boundary=1024.0 * 1024,
                             required_cores=4, available_cores=2),
        conf_overrides={"spark.lambda.executor.timeout": 60.0})
    [record] = runner.run([spec])
    assert record.error is None
    assert record.duration_s > 0
