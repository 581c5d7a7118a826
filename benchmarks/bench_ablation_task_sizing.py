"""Ablation: heterogeneity-aware task sizing (§7's future work).

"Generally, an executor assigned a certain number of cores on a VM vs. a
Lambda-based executor with the same number of cores will have access to
different capacities... In future work, we will explore the use of
different task sizes for VMs and Lambdas for better task-level load
balancing."

We implement it and measure: a hybrid cluster (4 VM cores + 12
half-speed 768 MB Lambdas) runs the same total work with (a) uniform
tasks, where a slow Lambda holding a full-size task is the straggler,
and (b) tasks sized to each executor kind's throughput, where everyone
finishes together.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cloud import LambdaConfig
from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.spark import SparkConf, SparkDriver
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS
from repro.workloads import HeterogeneousWorkload
from benchmarks.conftest import run_once

VM_SLOTS = 4
LAMBDA_SLOTS = 12
LAMBDA_MEMORY_MB = 768  # half a vCPU
TOTAL_CORE_SECONDS = 640.0


def run_variant(uniform: bool, seed: int = 0) -> float:
    runtime = ClusterRuntime(seed)
    env, provider = runtime.env, runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    hdfs = HDFS(env, master, runtime.rng, runtime.meter)
    conf = SparkConf({"spark.sim.task.jitter": 0.0})
    driver = SparkDriver(env, conf, runtime.rng, ExternalShuffleBackend(hdfs))
    worker = provider.request_vm("m4.4xlarge", already_running=True)
    for _ in range(VM_SLOTS):
        driver.add_vm_executor(worker)
    invoke_lambda_executors(runtime, driver, LAMBDA_SLOTS, [],
                            LambdaConfig(memory_mb=LAMBDA_MEMORY_MB))
    workload = HeterogeneousWorkload(
        total_core_seconds=TOTAL_CORE_SECONDS,
        vm_tasks=VM_SLOTS, lambda_tasks=LAMBDA_SLOTS,
        lambda_speed=LAMBDA_MEMORY_MB / 1536.0, uniform=uniform)
    job = driver.submit(workload.build(runtime.lineage,
                                       VM_SLOTS + LAMBDA_SLOTS))
    env.run(until=job.done)
    return job.duration


def run_both():
    return {"uniform tasks": run_variant(True),
            "kind-sized tasks": run_variant(False)}


@pytest.mark.smoke
def test_ablation_task_sizing(benchmark, emit):
    results = run_once(benchmark, run_both)
    uniform, sized = (results["uniform tasks"],
                      results["kind-sized tasks"])
    ideal = TOTAL_CORE_SECONDS / (VM_SLOTS
                                  + LAMBDA_SLOTS * LAMBDA_MEMORY_MB / 1536.0)
    rows = [[name, f"{t:.1f}", f"{t / ideal:.2f}x"]
            for name, t in results.items()]
    emit("Ablation — §7 heterogeneity-aware task sizing "
         f"(ideal makespan {ideal:.1f}s)",
         format_table(["sizing", "time (s)", "vs ideal"], rows))

    # Uniform tasks leave half-speed Lambdas straggling on full-size
    # work; kind-sized tasks approach the ideal makespan.
    assert sized < uniform * 0.85
    assert sized < ideal * 1.15