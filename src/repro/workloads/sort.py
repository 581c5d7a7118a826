"""A TeraSort-style distributed sort — §2's storage-cost stress case.

The paper's related-work discussion singles out sort as the workload
where per-request shuffle billing explodes: "workloads like CloudSort,
which can trigger on the order of 10^10 shuffle writes in single job
execution, can incur enormous total S3 related costs."

Structure (classic Spark TeraSort): a sampling pass (tiny), a
range-partitioning shuffle moving the *entire dataset*, and a sorted
write-out. Shuffle volume = dataset size, the worst case for any
per-request-billed substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.constants import GB
from repro.spark.rdd import RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec

#: Reference-core seconds to scan + sample one GB.
SAMPLE_SECONDS_PER_GB = 1.2
#: Reference-core seconds to partition + serialize one GB.
MAP_SECONDS_PER_GB = 4.0
#: Reference-core seconds to merge-sort + write one GB on the reduce side.
REDUCE_SECONDS_PER_GB = 5.5


@dataclass
class SortWorkload(Workload):
    """Sort ``dataset_gb`` of 100-byte records (TeraSort's record size).

    ``partitions`` overrides the task granularity (default: one per
    core). CloudSort-scale runs use thousands of partitions — the knob
    behind §2's 10^10-shuffle-writes cost explosion on per-request
    substrates.
    """

    dataset_gb: float = 32.0
    partitions: int = None

    def __post_init__(self) -> None:
        if self.dataset_gb <= 0:
            raise ValueError("dataset_gb must be positive")
        self.spec = WorkloadSpec(
            name=f"sort-{self.dataset_gb:g}gb",
            required_cores=32,
            available_cores=8,
            worker_itype="m4.10xlarge",
            master_itype="m4.10xlarge",
            slo_seconds=180.0,
        )

    @property
    def dataset_bytes(self) -> float:
        return self.dataset_gb * GB

    @property
    def records(self) -> float:
        """100-byte records, TeraSort's canonical layout."""
        return self.dataset_bytes / 100.0

    def build(self, lineage: RDDBuilder, parallelism: int):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        b = lineage
        p = self.partitions if self.partitions is not None else parallelism
        gb = self.dataset_gb
        sampled = b.source(
            "sort-sample", partitions=p,
            compute_seconds=gb * SAMPLE_SECONDS_PER_GB / p,
            input_bytes=self.dataset_bytes * 0.01)  # sample pass reads 1%
        partitioned = b.map(
            sampled, "sort-partition",
            compute_seconds=gb * MAP_SECONDS_PER_GB / p,
            working_set_bytes=min(1.5 * GB, self.dataset_bytes / p))
        result = b.shuffle(
            partitioned, "sort-merge", partitions=p,
            shuffle_bytes=self.dataset_bytes,  # the whole dataset moves
            compute_seconds=gb * REDUCE_SECONDS_PER_GB / p,
            working_set_bytes=min(1.5 * GB, self.dataset_bytes / p))
        return result
