"""Ablation: Lambda memory size — the §3 capacity trade-off.

Lambda memory buys three things at once: CPU share (1 vCPU per 1.5 GB),
network bandwidth (roughly linear in memory), and GC headroom. But cost
is billed per GB-second. Sweeping the allocation for an all-Lambda
shuffle job shows the paper's implicit choice of 1536 MB (one full vCPU)
as the efficient operating point.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cloud import LambdaConfig
from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.spark import SparkConf, SparkDriver
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS
from repro.workloads import SyntheticWorkload
from benchmarks.conftest import run_once

MEMORY_SWEEP_MB = (512, 1024, 1536, 2048, 3008)
WORKLOAD = dict(stages=3, core_seconds_per_stage=160.0,
                shuffle_bytes_per_boundary=600 * 1024 * 1024,
                working_set_bytes=700 * 1024 * 1024,
                required_cores=16, available_cores=16)


def run_memory(memory_mb: int, seed: int = 0):
    runtime = ClusterRuntime(seed)
    env, provider = runtime.env, runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    hdfs = HDFS(env, master, runtime.rng, runtime.meter)
    driver = SparkDriver(env, SparkConf(), runtime.rng,
                         ExternalShuffleBackend(hdfs))
    lambdas = []
    invoke_lambda_executors(runtime, driver, 16, lambdas,
                            LambdaConfig(memory_mb=memory_mb))
    workload = SyntheticWorkload(**WORKLOAD)
    job = driver.submit(workload.build(runtime.lineage, 16))
    env.run(until=job.done)
    for fn in lambdas:
        fn.finish()
    return job.duration, runtime.meter.total()


def run_sweep():
    return {mb: run_memory(mb) for mb in MEMORY_SWEEP_MB}


@pytest.mark.smoke
def test_ablation_lambda_memory(benchmark, emit):
    results = run_once(benchmark, run_sweep)
    rows = [[f"{mb} MB", f"{t:.1f}", f"${c:.4f}"]
            for mb, (t, c) in results.items()]
    emit("Ablation — Lambda memory size for an all-Lambda shuffle job",
         format_table(["memory", "time (s)", "cost"], rows))

    # More memory is monotonically faster (CPU + bandwidth + GC headroom).
    times = [results[mb][0] for mb in MEMORY_SWEEP_MB]
    assert all(a >= b for a, b in zip(times, times[1:]))
    # Small allocations are dramatically slower (fractional vCPU + GC).
    assert results[512][0] > 2.5 * results[1536][0]
    # Past one full vCPU the speedup flattens while cost keeps climbing:
    # 1536 MB sits on the knee.
    gain_beyond = results[1536][0] / results[3008][0]
    assert gain_beyond < 1.6
