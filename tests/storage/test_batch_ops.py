"""Unit tests for the batch read/write API of the storage layer."""

import pytest

from repro.cloud.constants import MB
from repro.cluster.runtime import ClusterRuntime
from repro.storage import HDFS, S3, SQSQueue
from repro.storage.base import REQUEST_PARALLELISM


@pytest.fixture
def ctx():
    runtime = ClusterRuntime(11)
    return runtime.env, runtime.rng, runtime.meter, runtime.provider


def test_batch_write_counts_requests_once_each(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.batch_write(100, 10 * MB))
    assert s3.stats.write_requests == 100
    assert s3.stats.bytes_written == 10 * MB
    from repro.cloud.constants import S3_PRICE_PER_PUT

    assert meter.storage_costs["s3"] == pytest.approx(100 * S3_PRICE_PER_PUT)


def test_batch_read_bills_per_request(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    env.run(until=s3.batch_write(1, MB))
    env.run(until=s3.batch_read(50, MB))
    from repro.cloud.constants import S3_PRICE_PER_GET

    assert meter.storage_costs["s3"] >= 50 * S3_PRICE_PER_GET


def test_batch_latency_paid_in_waves(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    start = env.now
    env.run(until=s3.batch_write(50, 0.0))
    ten_waves = env.now - start
    other = ClusterRuntime(11)
    s3b = S3(other.env, other.rng, other.meter)
    other.env.run(until=s3b.batch_write(REQUEST_PARALLELISM, 0.0))
    one_wave = other.env.now
    assert ten_waves > 3 * one_wave


def test_batch_validation(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter)
    with pytest.raises(ValueError):
        s3.batch_write(0, MB)
    with pytest.raises(ValueError):
        s3.batch_read(0, MB)
    with pytest.raises(ValueError):
        s3.batch_write(1, -1)


def test_batch_throttle_admits_at_rate(ctx):
    env, rng, meter, provider = ctx
    s3 = S3(env, rng, meter, put_rate_limit=100.0)
    env.run(until=s3.batch_write(1000, 0.0))
    # 1000 requests at 100/s (1s burst credit) needs ~9s.
    assert env.now > 8.0
    assert s3.stats.throttle_wait_s > 0


def test_hdfs_namenode_rpc_limit_bends_huge_batches(ctx):
    env, rng, meter, provider = ctx
    node = provider.request_vm("m4.xlarge", already_running=True)
    hdfs = HDFS(env, node, rng, meter)
    env.run(until=hdfs.batch_read(20_000, 0.0))
    # 20k RPCs at the 4k/s namenode ceiling (one second of burst) queue
    # for ~4 seconds before the first request starts.
    assert hdfs.stats.throttle_wait_s > 3.0


def test_hdfs_batch_read_uses_datanode_bandwidth(ctx):
    env, rng, meter, provider = ctx
    node = provider.request_vm("m4.xlarge", already_running=True)  # 750 Mbps
    hdfs = HDFS(env, node, rng, meter)
    from repro.cloud.constants import MBPS

    nbytes = 750 * MBPS * 4
    env.run(until=hdfs.batch_read(10, nbytes))
    assert env.now == pytest.approx(4.0, rel=0.05)


def test_sqs_batch_billing_uses_chunk_floor(ctx):
    env, rng, meter, provider = ctx
    sqs = SQSQueue(env, rng, meter)
    # 100 requests carrying less than 100 chunks of payload still bill
    # at least one SEND each.
    env.run(until=sqs.batch_write(100, 1024))
    from repro.cloud.constants import SQS_PRICE_PER_REQUEST

    assert meter.storage_costs["sqs"] >= 100 * SQS_PRICE_PER_REQUEST
