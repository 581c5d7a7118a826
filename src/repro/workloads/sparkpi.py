"""SparkPi — pure compute, negligible shuffle (§5.2's fourth workload).

10¹⁰ darts over 64 executors on an m4.16xlarge. A single map stage plus
a count (a reduce moving a few bytes per task). Because there is no
shuffle to speak of, every execution substrate — vanilla Spark, Qubole,
SplitServe all-VM / all-Lambda / hybrid — lands close to the baseline
(Figure 9); the only scenario that suffers is the under-provisioned
r = 4 run, which serializes the task waves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spark.rdd import RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec

#: Reference-core seconds per dart (Scala Random in a hot loop runs at
#: a handful of million darts per second per core).
SECONDS_PER_DART = 1.6e-7
#: The count() result per task.
RESULT_BYTES_PER_TASK = 64.0


@dataclass
class SparkPiWorkload(Workload):
    """Monte-Carlo Pi with ``darts`` samples."""

    darts: float = 1e10

    def __post_init__(self) -> None:
        if self.darts <= 0:
            raise ValueError("darts must be positive")
        self.spec = WorkloadSpec(
            name="sparkpi",
            required_cores=64,
            available_cores=4,
            worker_itype="m4.16xlarge",
            master_itype="m4.xlarge",
            slo_seconds=60.0,  # "the job finished under 1 minute"
        )

    def build(self, lineage: RDDBuilder, parallelism: int):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        b = lineage
        p = parallelism
        darts_map = b.source(
            "throw-darts", partitions=p,
            compute_seconds=self.darts * SECONDS_PER_DART / p,
            working_set_bytes=8 * 1024 * 1024)
        count = b.shuffle(
            darts_map, "count", partitions=1,
            shuffle_bytes=RESULT_BYTES_PER_TASK * p,
            compute_seconds=0.01)
        return count
