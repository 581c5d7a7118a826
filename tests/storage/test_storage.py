"""Tests for the storage substrates."""

import pytest

from repro.cloud.constants import MB, MBPS, REDIS_NODE_PRICE_PER_HOUR
from repro.cluster.runtime import ClusterRuntime
from repro.storage import HDFS, S3, LocalDisk, RedisStore, SQSQueue
from repro.storage.base import StorageKeyError


@pytest.fixture
def ctx():
    runtime = ClusterRuntime(7)
    return runtime.env, runtime.rng, runtime.meter, runtime.provider


def run_io(env, event):
    env.run(until=event)
    return env.now


# ---------------------------------------------------------------------------
# Common protocol behaviour (exercised through LocalDisk)
# ---------------------------------------------------------------------------

def test_write_then_read_roundtrip(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    disk = LocalDisk(env, vm, rng, meter)
    env.run(until=disk.write("block-1", 10 * MB))
    assert disk.exists("block-1")
    assert disk.size_of("block-1") == 10 * MB
    env.run(until=disk.read("block-1"))
    assert disk.stats.bytes_read == 10 * MB
    assert disk.stats.write_requests == 1


def test_read_missing_key_raises(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    disk = LocalDisk(env, vm, rng, meter)
    with pytest.raises(StorageKeyError):
        disk.read("ghost")


def test_delete_and_keys(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    disk = LocalDisk(env, vm, rng, meter)
    env.run(until=disk.write("a", 1 * MB))
    env.run(until=disk.write("b", 2 * MB))
    assert sorted(disk.keys()) == ["a", "b"]
    assert disk.total_stored_bytes == 3 * MB
    disk.delete("a")
    assert not disk.exists("a")
    with pytest.raises(StorageKeyError):
        disk.delete("a")


def test_negative_write_rejected(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    disk = LocalDisk(env, vm, rng, meter)
    with pytest.raises(ValueError):
        disk.write("x", -5)


def test_local_disk_bounded_by_ebs_bandwidth(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)  # 750 Mbps
    disk = LocalDisk(env, vm, rng, meter)
    nbytes = 750 * MBPS * 10  # exactly 10 seconds of EBS bandwidth
    t = run_io(env, disk.write("big", nbytes))
    assert t == pytest.approx(10.0, rel=0.01)


def test_local_disk_is_free(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    disk = LocalDisk(env, vm, rng, meter)
    env.run(until=disk.write("x", 100 * MB))
    assert meter.total() == 0.0


# ---------------------------------------------------------------------------
# HDFS
# ---------------------------------------------------------------------------

def test_hdfs_requires_datanode(ctx):
    env, rng, meter, _ = ctx
    with pytest.raises(ValueError):
        HDFS(env, [], rng, meter)


def test_hdfs_replication_validation(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    with pytest.raises(ValueError):
        HDFS(env, [vm], rng, meter, replication=2)


def test_hdfs_throughput_bounded_by_datanode_ebs(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)  # 750 Mbps
    hdfs = HDFS(env, [vm], rng, meter)
    nbytes = 750 * MBPS * 10
    t = run_io(env, hdfs.write("blk", nbytes))
    assert t == pytest.approx(10.0, rel=0.02)  # rpc adds a few ms


def test_hdfs_concurrent_writers_share_the_node(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, [vm], rng, meter)
    nbytes = 750 * MBPS * 5  # 5s alone
    e1 = hdfs.write("a", nbytes)
    e2 = hdfs.write("b", nbytes)
    env.run(until=e1 & e2)
    assert env.now == pytest.approx(10.0, rel=0.02)  # shared: both take ~10s


def test_hdfs_replication_occupies_multiple_datanodes(ctx):
    env, rng, meter, provider = ctx
    nodes = [provider.request_vm("m4.xlarge", already_running=True)
             for _ in range(3)]
    hdfs = HDFS(env, nodes, rng, meter, replication=3)
    env.run(until=hdfs.write("blk", 10 * MB))
    assert len(hdfs.placement_of("blk")) == 3


def test_hdfs_round_robin_placement_spreads_blocks(ctx):
    env, rng, meter, provider = ctx
    nodes = [provider.request_vm("m4.xlarge", already_running=True)
             for _ in range(2)]
    hdfs = HDFS(env, nodes, rng, meter, replication=1)
    env.run(until=hdfs.write("a", MB))
    env.run(until=hdfs.write("b", MB))
    assert hdfs.placement_of("a") != hdfs.placement_of("b")


def test_hdfs_is_free_per_request(ctx):
    env, rng, meter, provider = ctx
    vm = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, [vm], rng, meter)
    env.run(until=hdfs.write("x", 10 * MB))
    env.run(until=hdfs.read("x"))
    assert meter.total() == 0.0


# ---------------------------------------------------------------------------
# S3
# ---------------------------------------------------------------------------

def test_s3_request_latency_dominates_small_objects(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    t = run_io(env, s3.write("k", 1024))  # 1KB: latency-dominated
    assert 0.005 < t < 0.4


def test_s3_bills_puts_and_gets(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.write("k", MB))
    env.run(until=s3.read("k"))
    from repro.cloud.constants import S3_PRICE_PER_GET, S3_PRICE_PER_PUT

    assert meter.storage_costs["s3"] == pytest.approx(
        S3_PRICE_PER_PUT + S3_PRICE_PER_GET)


def test_s3_throttles_request_floods(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter, put_rate_limit=100.0)  # low limit for the test
    events = [s3.write(f"k{i}", 0) for i in range(500)]
    env.run(until=env.all_of(events))
    # 500 requests at 100/s (after a 100-req burst) needs ~4 seconds.
    assert env.now > 3.0
    assert s3.stats.throttle_wait_s > 0


def test_s3_unthrottled_when_under_rate(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.write("a", 1024))
    env.run(until=s3.write("b", 1024))
    assert s3.stats.throttle_wait_s == 0.0


def test_s3_stream_rate_bounds_large_objects(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter, stream_bytes_per_s=10 * MB)
    t = run_io(env, s3.write("big", 100 * MB))
    assert t == pytest.approx(10.0, rel=0.05)


# ---------------------------------------------------------------------------
# Redis
# ---------------------------------------------------------------------------

def test_redis_is_fast(ctx):
    env, rng, meter, provider = ctx
    redis = RedisStore(env, rng, meter)
    t = run_io(env, redis.write("k", MB))
    assert t < 0.05


def test_redis_node_hours_billed_with_minimum(ctx):
    env, rng, meter, provider = ctx
    redis = RedisStore(env, rng, meter, nodes=2)
    cost = redis.bill_node_hours(60.0)  # one minute -> 1h minimum each
    assert cost == pytest.approx(2 * REDIS_NODE_PRICE_PER_HOUR)
    assert meter.storage_costs["redis"] == pytest.approx(cost)


def test_redis_node_count_scales_throughput(ctx):
    env, rng, meter, provider = ctx
    one = RedisStore(env, rng, meter, nodes=1)
    four = RedisStore(env, rng, meter, name="redis4", nodes=4)
    assert (four._link.capacity_bytes_per_s
            == pytest.approx(4 * one._link.capacity_bytes_per_s))


def test_redis_rejects_zero_nodes(ctx):
    env, rng, meter, provider = ctx
    with pytest.raises(ValueError):
        RedisStore(env, rng, meter, nodes=0)


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
    env.run(until=sqs.write("k", 10 * MB))  # 40 chunks
    env.run(until=sqs.read("k"))  # 40 receives + 40 deletes
    from repro.cloud.constants import SQS_PRICE_PER_REQUEST

    assert meter.storage_costs["sqs"] == pytest.approx(
        (40 + 80) * SQS_PRICE_PER_REQUEST)


def test_sqs_large_blob_pays_chunking_latency(ctx):
    env, rng, meter, provider = ctx
    sqs = SQSQueue(env, rng, meter)
    t_small = run_io(env, sqs.write("s", 1024))
    other = ClusterRuntime(7)
    sqs2 = SQSQueue(other.env, other.rng, other.meter)
    other.env.run(until=sqs2.write("b", 50 * MB))
    assert other.env.now > t_small
