"""Byte-identity pins for the shuffle substrates no golden covers.

The golden scenarios and the pooled pins shuffle through HDFS, a VM's
local disk or Qubole's 2019 S3; nothing pins plain S3, SQS or Redis, and
the shuffle-backend ablation only asserts orderings over rounded tables.
This module runs that ablation's fixed hybrid job, built here, on all
five substrates at two seeds:

- a 4-stage :class:`~repro.workloads.SyntheticWorkload` of 16 partitions
  moving 400 MiB across each stage boundary,
- on 4 VM executors of an m4.4xlarge plus 12 Lambda executors,
- shuffling through HDFS on an m4.xlarge master (consolidated map
  files), modern S3 and SQS (one object per map-reduce pair), Qubole's
  2019 S3 (its throttle and stream rates, eventual-consistency polling)
  or a Redis node.

Every request batch of that job holds 1 or 16 requests, and 16 requests
take four waves at 4 or 5 requests in flight alike; a 10-partition run
of the same job at seed 0 (two waves at 5, three at 4) pins the wave
size too.

Each pin is the sha256 of the world's lines: ``float.hex`` of the job
duration and of the meter total, one ``<category> <hex>`` line per
``meter.breakdown()`` entry in billing order, and the service's
:class:`~repro.storage.base.StorageStats` fields (floats as hex). The
digests were taken before the storage layer lost its single-object API,
key registry and multi-node HDFS and Redis, and must not move.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.core.scenarios import (
    QUBOLE_S3_EFFECTIVE_RATE,
    QUBOLE_S3_STREAM_BYTES_PER_S,
)
from repro.spark import SparkConf, SparkDriver
from repro.spark.shuffle import ExternalShuffleBackend, QuboleS3ShuffleBackend
from repro.storage import HDFS, S3, RedisStore, SQSQueue
from repro.workloads import SyntheticWorkload

WORKLOAD = dict(stages=4, core_seconds_per_stage=160.0,
                shuffle_bytes_per_boundary=400 * 1024 * 1024,
                required_cores=16, available_cores=4)

SUBSTRATES = ("hdfs", "s3", "s3-2019", "sqs", "redis")
#: (partitions, seed) per world.
WORLDS = ((16, 0), (16, 3), (10, 0))


def _backend(name, runtime, master):
    env, rng, meter = runtime.env, runtime.rng, runtime.meter
    if name == "hdfs":
        storage = HDFS(env, master, rng, meter)
        return storage, ExternalShuffleBackend(storage)
    if name == "s3":
        storage = S3(env, rng, meter)
        return storage, ExternalShuffleBackend(storage, per_pair_objects=True)
    if name == "s3-2019":
        storage = S3(env, rng, meter,
                     put_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
                     get_rate_limit=QUBOLE_S3_EFFECTIVE_RATE,
                     stream_bytes_per_s=QUBOLE_S3_STREAM_BYTES_PER_S)
        return storage, QuboleS3ShuffleBackend(storage)
    if name == "sqs":
        storage = SQSQueue(env, rng, meter)
        return storage, ExternalShuffleBackend(storage, per_pair_objects=True)
    storage = RedisStore(env, rng, meter)
    return storage, ExternalShuffleBackend(storage)


def run_world(name, partitions, seed):
    """Run the fixed hybrid job on substrate ``name``; returns the pinned
    lines and the service."""
    runtime = ClusterRuntime(seed)
    env, meter, provider = runtime.env, runtime.meter, runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    storage, backend = _backend(name, runtime, master)
    driver = SparkDriver(env, SparkConf(), runtime.rng, backend)
    worker = provider.request_vm("m4.4xlarge", already_running=True)
    for _ in range(4):
        driver.add_vm_executor(worker)
    lambdas = []
    invoke_lambda_executors(runtime, driver, 12, lambdas)
    job = driver.submit(SyntheticWorkload(**WORKLOAD).build(
        runtime.lineage, partitions))
    env.run(until=job.done)
    end = env.now
    meter.bill_vm("worker", worker.itype, 0.0, end, 4 / worker.itype.vcpus)
    for fn in lambdas:
        fn.finish()
    if name == "redis":
        storage.bill_node_hours(end)
    lines = [float(job.duration).hex(), float(meter.total()).hex()]
    lines += [f"{key} {cost.hex()}" for key, cost in meter.breakdown().items()]
    lines += [f"{field.name} "
              f"{value.hex() if isinstance(value, float) else value}"
              for field, value in zip(dataclasses.fields(storage.stats),
                                      dataclasses.astuple(storage.stats))]
    return lines, storage


#: sha256 of the pinned lines per (substrate, partitions, seed).
PINNED = {
    "hdfs-p16-s0":
        "19ffb60c6152897427af01a71276a04fe9eaed0f4913ac6ca1bbc21164fc9a2a",
    "hdfs-p16-s3":
        "8668bfa5031eb28657e1cabd8df6afcb33f521754ffc54469b76a81dd25be55b",
    "hdfs-p10-s0":
        "b0aa30344aa26173853e43d621653dcc2e3cb2b15b723d92cb486c07202412ff",
    "s3-p16-s0":
        "2c2155f461f0ff9002166e1eb7e16d68a15b679653226634e2ebcd7f034b37c4",
    "s3-p16-s3":
        "c68aa3e090a2f618e6005431e146ca27528f551fab4b34e40b7246fb93f15e1c",
    "s3-p10-s0":
        "0f2e5901e484eb4e0b48d7df2d2ce3bb0d4b27dc9bd588129f125cd3834af8f0",
    "s3-2019-p16-s0":
        "67335bd3e3776c41aadd65e5cf03494ec60f66012f4dcaee80bff3aacc1f7ce6",
    "s3-2019-p16-s3":
        "aad4b737334a3e4989c86bf571dbed7238146fb68452ead68f71144a5123df36",
    "s3-2019-p10-s0":
        "0e487be5651656ba02901e981a0b6e2ae9c6c06efeb4f3cad81f9b21855f5e40",
    "sqs-p16-s0":
        "7b7701ae66316b617204607b5f9897246adf0684718ed26c5185e24f5788396e",
    "sqs-p16-s3":
        "3c77a760104768a5206a069075d4f50e86937b3e36e18fcc3bca0cb9763d272b",
    "sqs-p10-s0":
        "88ab81b04bc6906bce6393f080e4e7e43e18d21197a5eab35cfaa60d8e02a61a",
    "redis-p16-s0":
        "86d915aeefdfe7dcdc957babef8fd1332022ab91124f965d5bf7ea044be1a4fb",
    "redis-p16-s3":
        "a3a51f6e56eaa1b3601daf6573767234cf8b80b7083954cae0b96f109196ef6b",
    "redis-p10-s0":
        "bc812ad26688cd20f0997dd909371f5adae44fff54734654c089751f6ee2232a",
}


@pytest.mark.parametrize("partitions, seed", WORLDS)
@pytest.mark.parametrize("name", SUBSTRATES)
def test_substrate_world_is_byte_identical(name, partitions, seed):
    lines, _ = run_world(name, partitions, seed)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED[f"{name}-p{partitions}-s{seed}"], "\n".join(lines)


def test_substrate_worlds_exercise_their_service():
    """Every world moves its shuffles through its own service: all
    three stage boundaries' bytes out and back in."""
    for name in SUBSTRATES:
        _, storage = run_world(name, 16, 0)
        stats = storage.stats
        assert stats.bytes_written == stats.bytes_read == 3 * 400 * 2**20
        assert stats.write_requests > 0 and stats.read_requests > 0, name
