"""Shared mini-cluster builders for the Spark-engine tests."""

from repro.cloud import LambdaConfig
from repro.cluster.runtime import ClusterRuntime
from repro.spark import LocalShuffleBackend, SparkConf, SparkDriver
from repro.storage import HDFS
from repro.spark.shuffle import ExternalShuffleBackend


class MiniCluster:
    """A ``ClusterRuntime(seed)`` world + driver + convenience executor
    creation. ``trace`` is the world's recorder (every event the
    provider and driver publish)."""

    def __init__(self, seed=0, conf=None, backend="local", no_jitter=True):
        self.runtime = ClusterRuntime(seed, trace_enabled=True)
        self.env, self.rng = self.runtime.env, self.runtime.rng
        self.trace = self.runtime.recorder
        self.meter, self.provider = self.runtime.meter, self.runtime.provider
        conf = conf if conf is not None else SparkConf()
        if no_jitter:
            conf = conf.set("spark.sim.task.jitter", 0.0)
        self.conf = conf
        self.hdfs = None
        if backend == "local":
            shuffle = LocalShuffleBackend()
        elif backend == "hdfs":
            hdfs_vm = self.provider.request_vm("m4.xlarge", already_running=True,
                                               name="hdfs-node")
            self.hdfs = HDFS(self.env, hdfs_vm, self.rng, self.meter)
            shuffle = ExternalShuffleBackend(self.hdfs, per_pair_objects=False)
        else:
            raise ValueError(f"unknown backend {backend}")
        self.driver = SparkDriver(self.env, self.conf, self.rng, shuffle,
                                  trace=self.runtime.trace)
        self.builder = self.runtime.lineage

    def vm_executors(self, count, itype="m4.4xlarge"):
        vm = self.provider.request_vm(itype, already_running=True)
        return [self.driver.add_vm_executor(vm) for _ in range(count)]

    def lambda_executors(self, count, memory_mb=1536):
        executors = []
        for _ in range(count):
            fn = self.provider.invoke_lambda(LambdaConfig(memory_mb=memory_mb))
            # Tests create executors synchronously: treat start as done.
            self.env.run(until=fn.ready)
            executors.append(self.driver.add_lambda_executor(fn))
        return executors

    def run_job(self, final_rdd):
        return self.driver.run_job(final_rdd)


def single_stage_rdd(builder, tasks=8, seconds=10.0):
    return builder.source("compute", partitions=tasks, compute_seconds=seconds)


def two_stage_rdd(builder, maps=8, reduces=8, map_seconds=5.0,
                  reduce_seconds=2.0, shuffle_bytes=80 * 1024 * 1024):
    mapped = builder.source("map", partitions=maps, compute_seconds=map_seconds)
    return builder.shuffle(mapped, "reduce", partitions=reduces,
                           shuffle_bytes=shuffle_bytes,
                           compute_seconds=reduce_seconds)
