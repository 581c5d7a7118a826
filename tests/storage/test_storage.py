"""Tests for the storage substrates."""

import pytest

from repro.cloud.constants import MB, MBPS, REDIS_NODE_PRICE_PER_HOUR
from repro.cluster.runtime import ClusterRuntime
from repro.spark import SparkConf, SparkDriver
from repro.spark.shuffle import LocalShuffleBackend
from repro.storage import HDFS, S3, RedisStore, SQSQueue


@pytest.fixture
def ctx():
    runtime = ClusterRuntime(7)
    return runtime.env, runtime.rng, runtime.meter, runtime.provider


def run_io(env, event):
    env.run(until=event)
    return env.now


# ---------------------------------------------------------------------------
# Common protocol behaviour (exercised through HDFS)
# ---------------------------------------------------------------------------

def test_write_then_read_roundtrip(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, vm, rng, meter)
    written = hdfs.batch_write(1, 10 * MB)
    env.run(until=written)
    read = hdfs.batch_read(1, 10 * MB)
    env.run(until=read)
    assert written.value == read.value == 10 * MB
    assert hdfs.stats.bytes_written == hdfs.stats.bytes_read == 10 * MB
    assert hdfs.stats.write_requests == hdfs.stats.read_requests == 1


def test_negative_write_rejected(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, vm, rng, meter)
    with pytest.raises(ValueError):
        hdfs.batch_write(1, -5)


# ---------------------------------------------------------------------------
# Local disk (vanilla Spark's shuffle: LocalShuffleBackend.write)
# ---------------------------------------------------------------------------

def local_write(env, executor, nbytes):
    """Run one map output's local shuffle write; returns its process."""
    return env.process(LocalShuffleBackend().write(executor, 0, 0, nbytes, 4))


def test_local_disk_bounded_by_ebs_bandwidth(ctx):
    env, rng, meter, provider = ctx
    driver = SparkDriver(env, SparkConf(), rng, LocalShuffleBackend())
    vm = provider.request_vm("m4.xlarge", already_running=True)  # 750 Mbps
    executor = driver.add_vm_executor(vm)
    nbytes = 750 * MBPS * 10  # exactly 10 seconds of EBS bandwidth
    t = run_io(env, local_write(env, executor, nbytes))
    assert t == pytest.approx(10.0, rel=0.01)


def test_local_disk_writers_share_the_host_ebs_channel(ctx):
    env, rng, meter, provider = ctx
    driver = SparkDriver(env, SparkConf(), rng, LocalShuffleBackend())
    vm = provider.request_vm("m4.xlarge", already_running=True)
    nbytes = 750 * MBPS * 10
    first, second = (local_write(env, driver.add_vm_executor(vm), nbytes)
                     for _ in range(2))
    env.run(until=first & second)
    assert env.now == pytest.approx(20.0, rel=0.01)


def test_lambda_local_write_crosses_no_link(ctx):
    env, rng, meter, provider = ctx
    driver = SparkDriver(env, SparkConf(), rng, LocalShuffleBackend())
    fn = provider.invoke_lambda()
    env.run(until=fn.ready)
    start = env.now
    executor = driver.add_lambda_executor(fn)
    assert executor.disk_links() == ()
    assert run_io(env, local_write(env, executor, 100 * MB)) == start


def test_local_disk_is_free(ctx):
    env, rng, meter, provider = ctx
    driver = SparkDriver(env, SparkConf(), rng, LocalShuffleBackend())
    vm = provider.request_vm("m4.xlarge", already_running=True)
    env.run(until=local_write(env, driver.add_vm_executor(vm), 100 * MB))
    assert meter.total() == 0.0


# ---------------------------------------------------------------------------
# HDFS
# ---------------------------------------------------------------------------

def test_hdfs_throughput_bounded_by_datanode_ebs(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)  # 750 Mbps
    hdfs = HDFS(env, vm, rng, meter)
    nbytes = 750 * MBPS * 10
    t = run_io(env, hdfs.batch_write(1, nbytes))
    assert t == pytest.approx(10.0, rel=0.02)  # rpc adds a few ms


def test_hdfs_concurrent_writers_share_the_node(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, vm, rng, meter)
    nbytes = 750 * MBPS * 5  # 5s alone
    e1 = hdfs.batch_write(1, nbytes)
    e2 = hdfs.batch_write(1, nbytes)
    env.run(until=e1 & e2)
    assert env.now == pytest.approx(10.0, rel=0.02)  # shared: both take ~10s


def test_hdfs_is_free_per_request(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, vm, rng, meter)
    env.run(until=hdfs.batch_write(1, 10 * MB))
    env.run(until=hdfs.batch_read(1, 10 * MB))
    assert meter.total() == 0.0


# ---------------------------------------------------------------------------
# S3
# ---------------------------------------------------------------------------

def test_s3_request_latency_dominates_small_objects(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    t = run_io(env, s3.batch_write(1, 1024))  # 1KB: latency-dominated
    assert 0.005 < t < 0.4


def test_s3_bills_puts_and_gets(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.batch_write(1, MB))
    env.run(until=s3.batch_read(1, MB))
    from repro.cloud.constants import S3_PRICE_PER_GET, S3_PRICE_PER_PUT

    assert meter.storage_costs["s3"] == pytest.approx(
        S3_PRICE_PER_PUT + S3_PRICE_PER_GET)


def test_s3_throttles_request_floods(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter, put_rate_limit=100.0)  # low limit for the test
    events = [s3.batch_write(1, 0) for _ in range(500)]
    env.run(until=env.all_of(events))
    # 500 requests at 100/s (after a 100-req burst) needs ~4 seconds.
    assert env.now > 3.0
    assert s3.stats.throttle_wait_s > 0


def test_s3_unthrottled_when_under_rate(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.batch_write(1, 1024))
    env.run(until=s3.batch_write(1, 1024))
    assert s3.stats.throttle_wait_s == 0.0


def test_s3_stream_rate_bounds_large_objects(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter, stream_bytes_per_s=10 * MB)
    t = run_io(env, s3.batch_write(1, 100 * MB))
    assert t == pytest.approx(10.0, rel=0.05)


# ---------------------------------------------------------------------------
# Redis
# ---------------------------------------------------------------------------

def test_redis_is_fast(ctx):
    env, rng, meter, provider = ctx
    redis = RedisStore(env, rng, meter)
    t = run_io(env, redis.batch_write(1, MB))
    assert t < 0.05


def test_redis_node_hours_billed_with_minimum(ctx):
    env, rng, meter, provider = ctx
    redis = RedisStore(env, rng, meter)
    cost = redis.bill_node_hours(60.0)  # one minute -> 1h minimum
    assert cost == pytest.approx(REDIS_NODE_PRICE_PER_HOUR)
    assert meter.storage_costs["redis"] == pytest.approx(cost)


# ---------------------------------------------------------------------------
# SQS
# ---------------------------------------------------------------------------

def test_sqs_chunk_math():
    assert SQSQueue.chunks_for(0) == 1
    assert SQSQueue.chunks_for(256 * 1024) == 1
    assert SQSQueue.chunks_for(256 * 1024 + 1) == 2
    assert SQSQueue.chunks_for(10 * MB) == 40


def test_sqs_bills_per_chunk(ctx):
    env, rng, meter, provider = ctx
    sqs = SQSQueue(env, rng, meter)
    env.run(until=sqs.batch_write(1, 10 * MB))  # 40 chunks
    env.run(until=sqs.batch_read(1, 10 * MB))  # 40 receives + 40 deletes
    from repro.cloud.constants import SQS_PRICE_PER_REQUEST

    assert meter.storage_costs["sqs"] == pytest.approx(
        (40 + 80) * SQS_PRICE_PER_REQUEST)


def test_sqs_large_blob_pays_chunking_latency(ctx):
    env, rng, meter, provider = ctx
    sqs = SQSQueue(env, rng, meter)
    t_small = run_io(env, sqs.batch_write(1, 1024))
    other = ClusterRuntime(7)
    sqs2 = SQSQueue(other.env, other.rng, other.meter)
    other.env.run(until=sqs2.batch_write(1, 50 * MB))
    assert other.env.now > t_small
