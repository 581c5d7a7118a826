"""Ablation: the shuffle-substrate design space of §2/§4.3.

Runs one fixed hybrid job (VM + Lambda executors) over every shuffle
substrate the paper discusses — HDFS (SplitServe), S3 both as the
idealized modern service ("s3") and as 2019-era Qubole drove it
("s3-2019": per-pair object flood, eventual-consistency polling,
throttle collapse), SQS (Flint), Redis (Locus) — and reports time and
dollar cost.

The nuance this ablation surfaces: batched, strongly consistent S3 is
actually competitive at this job's scale — which is consistent with the
paper's own remark that "SplitServe can use any other similar storage
facility". What SplitServe's HDFS choice beat was the S3 *of its time
as its competitors used it*: the s3-2019 row. Redis matches HDFS on
speed but its always-on cache node dominates cost; SQS triples request
fees on the read path.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.spark import SparkConf, SparkDriver
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS, S3, RedisStore, SQSQueue
from repro.workloads import SyntheticWorkload
from benchmarks.conftest import run_once

#: A shuffle-heavy 4-stage job: 16 cores wanted, 4 on VMs, 12 on Lambdas.
WORKLOAD = dict(stages=4, core_seconds_per_stage=160.0,
                shuffle_bytes_per_boundary=400 * 1024 * 1024,
                required_cores=16, available_cores=4)


def run_with_backend(backend_name: str, seed: int = 0):
    runtime = ClusterRuntime(seed)
    env, rng, meter = runtime.env, runtime.rng, runtime.meter
    provider = runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    redis = None
    if backend_name == "hdfs":
        storage = HDFS(env, master, rng, meter)
        backend = ExternalShuffleBackend(storage)
    elif backend_name == "s3":
        storage = S3(env, rng, meter)
        backend = ExternalShuffleBackend(storage, per_pair_objects=True)
    elif backend_name == "s3-2019":
        from repro.core.scenarios import (
            QUBOLE_S3_EFFECTIVE_RATE,
            QUBOLE_S3_STREAM_BYTES_PER_S,
        )
        from repro.spark.shuffle import QuboleS3ShuffleBackend

        storage = S3(env, rng, meter,
                     put_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
                     get_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
                     stream_bytes_per_s=QUBOLE_S3_STREAM_BYTES_PER_S)
        backend = QuboleS3ShuffleBackend(storage)
    elif backend_name == "sqs":
        storage = SQSQueue(env, rng, meter)
        backend = ExternalShuffleBackend(storage, per_pair_objects=True)
    elif backend_name == "redis":
        redis = RedisStore(env, rng, meter)
        backend = ExternalShuffleBackend(redis)
    else:
        raise ValueError(backend_name)

    driver = SparkDriver(env, SparkConf(), rng, backend)
    workload = SyntheticWorkload(**WORKLOAD)
    worker = provider.request_vm("m4.4xlarge", already_running=True)
    for _ in range(4):
        driver.add_vm_executor(worker)
    lambdas = []
    invoke_lambda_executors(runtime, driver, 12, lambdas)
    job = driver.submit(workload.build(runtime.lineage, 16))
    env.run(until=job.done)
    end = env.now
    meter.bill_vm("worker", worker.itype, 0.0, end, 4 / worker.itype.vcpus)
    for fn in lambdas:
        fn.finish()
    if redis is not None:
        redis.bill_node_hours(end)
    return job.duration, meter.total(), meter.breakdown()


def run_ablation():
    return {name: run_with_backend(name)
            for name in ("hdfs", "s3", "s3-2019", "sqs", "redis")}


@pytest.mark.smoke
def test_ablation_shuffle_backend(benchmark, emit):
    results = run_once(benchmark, run_ablation)
    rows = []
    for name, (dur, cost, breakdown) in results.items():
        storage_cost = sum(v for k, v in breakdown.items()
                           if k.startswith("storage:"))
        rows.append([name, f"{dur:.1f}", f"${cost:.4f}",
                     f"${storage_cost:.4f}"])
    emit("Ablation — shuffle substrate for a fixed hybrid job",
         format_table(["substrate", "time (s)", "total cost",
                       "storage cost"], rows))

    hdfs_t, hdfs_c, _ = results["hdfs"]
    s3_t, s3_c, s3_b = results["s3"]
    q_t, q_c, _ = results["s3-2019"]
    sqs_t, sqs_c, sqs_b = results["sqs"]
    redis_t, redis_c, _ = results["redis"]
    # Redis is the fastest data plane but by far the priciest run.
    assert redis_t <= hdfs_t * 1.1
    assert redis_c > 3 * hdfs_c
    # HDFS beats the S3 its FaaS competitors actually had, which in
    # turn is far worse than the idealized modern service.
    assert q_t > 1.2 * hdfs_t
    assert q_t > 1.5 * s3_t
    # S3's request fees exceed HDFS's (HDFS requests are free).
    assert s3_b.get("storage:s3", 0) > 0
    # SQS triples request fees on the read path vs its own write path.
    assert sqs_b.get("storage:sqs", 0) > s3_b.get("storage:s3", 0)
    # Idealized modern S3 is competitive — the honest nuance.
    assert s3_t < 1.2 * hdfs_t
