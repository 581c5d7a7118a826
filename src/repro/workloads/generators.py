"""Parametric synthetic workloads for tests and ablations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.spark.rdd import RDD, RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec


@dataclass
class SyntheticWorkload(Workload):
    """A linear chain of ``stages`` stages with uniform parameters.

    Useful for ablations that sweep one variable (shuffle volume, stage
    count, compute intensity) while holding everything else fixed.
    """

    stages: int = 3
    core_seconds_per_stage: float = 160.0
    shuffle_bytes_per_boundary: float = 512 * 1024 * 1024
    working_set_bytes: float = 128 * 1024 * 1024
    required_cores: int = 16
    available_cores: int = 4
    worker_itype: str = "m4.4xlarge"
    label: str = "synthetic"

    def __post_init__(self) -> None:
        if self.stages <= 0:
            raise ValueError("stages must be positive")
        if self.core_seconds_per_stage < 0 or self.shuffle_bytes_per_boundary < 0:
            raise ValueError("per-stage parameters must be non-negative")
        self.spec = WorkloadSpec(
            name=self.label,
            required_cores=self.required_cores,
            available_cores=self.available_cores,
            worker_itype=self.worker_itype,
        )

    def build(self, lineage: RDDBuilder, parallelism: int) -> RDD:
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        b = lineage
        per_task = self.core_seconds_per_stage / parallelism
        current = b.source("syn-0", partitions=parallelism,
                           compute_seconds=per_task,
                           working_set_bytes=self.working_set_bytes)
        for i in range(1, self.stages):
            current = b.shuffle(current, f"syn-{i}", partitions=parallelism,
                                shuffle_bytes=self.shuffle_bytes_per_boundary,
                                compute_seconds=per_task,
                                working_set_bytes=self.working_set_bytes)
        return current


@dataclass
class HeterogeneousWorkload(Workload):
    """§7's future-work proposal: size tasks for the executor kind.

    A single compute stage whose work is cut into ``vm_tasks`` full-size
    partitions plus ``lambda_tasks`` partitions scaled by
    ``lambda_speed`` (the fractional-vCPU Lambdas' throughput), each
    carrying a scheduling preference for its kind. With matched sizing,
    every executor finishes its share at the same moment instead of a
    slow Lambda straggling on a full-size task.
    """

    total_core_seconds: float = 640.0
    vm_tasks: int = 4
    lambda_tasks: int = 12
    lambda_speed: float = 0.5
    uniform: bool = False  # ablation baseline: same sizes, no preference
    label: str = "heterogeneous"

    def __post_init__(self) -> None:
        if self.vm_tasks < 0 or self.lambda_tasks < 0:
            raise ValueError("task counts must be non-negative")
        if self.vm_tasks + self.lambda_tasks == 0:
            raise ValueError("need at least one task")
        if not 0 < self.lambda_speed <= 1:
            raise ValueError("lambda_speed must be in (0, 1]")
        if self.total_core_seconds <= 0:
            raise ValueError("total_core_seconds must be positive")
        self.spec = WorkloadSpec(
            name=self.label,
            required_cores=self.vm_tasks + self.lambda_tasks,
            available_cores=max(1, self.vm_tasks),
            worker_itype="m4.4xlarge")

    def build(self, lineage: RDDBuilder, parallelism: int) -> RDD:
        n = self.vm_tasks + self.lambda_tasks
        if self.uniform:
            source = lineage.source(
                f"{self.label}-work", partitions=n,
                compute_seconds=self.total_core_seconds / n)
        else:
            # Equalize *wall* time per executor: a Lambda at speed s gets
            # an s-sized share of the per-slot work.
            unit = self.total_core_seconds / (
                self.vm_tasks + self.lambda_tasks * self.lambda_speed)

            def compute(p: int) -> float:
                return unit if p < self.vm_tasks else unit * self.lambda_speed

            def preference(p: int) -> str:
                return "vm" if p < self.vm_tasks else "lambda"

            source = lineage.source(f"{self.label}-work", partitions=n,
                                    compute_seconds=compute,
                                    kind_preference=preference)
        return lineage.shuffle(source, f"{self.label}-collect", partitions=1,
                               shuffle_bytes=64.0 * n, compute_seconds=0.01)
