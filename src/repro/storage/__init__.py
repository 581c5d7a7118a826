"""Storage substrates: the shuffle-layer alternatives the paper contrasts.

All services implement the :class:`~repro.storage.base.StorageService`
protocol (request batches whose completion events model latency,
bandwidth contention, throttling, and dollar cost), each on the one node
or bucket the paper's setups use:

- :class:`~repro.storage.hdfs.HDFS` — SplitServe's choice (§4.3): a
  namenode plus one datanode reachable by both VM and Lambda executors,
  throughput-bounded by the datanode VM's EBS bandwidth.
- :class:`~repro.storage.s3.S3` — Qubole/PyWren's choice: high latency,
  per-bucket request-rate throttling, per-request cost.
- :class:`~repro.storage.redis.RedisStore` — Locus's choice: fast but
  backed by an expensive always-on cache node.
- :class:`~repro.storage.sqs.SQSQueue` — Flint's choice: queue semantics,
  256 KB message chunking, per-request cost.

Vanilla Spark's shuffle target, the worker VM's own disk, is no service:
:class:`~repro.spark.shuffle.LocalShuffleBackend` writes through the
executor's disk links.
"""

from repro.storage.base import StorageService, StorageStats
from repro.storage.hdfs import HDFS
from repro.storage.redis import RedisStore
from repro.storage.s3 import S3
from repro.storage.sqs import SQSQueue

__all__ = [
    "HDFS",
    "RedisStore",
    "S3",
    "SQSQueue",
    "StorageService",
    "StorageStats",
]
