"""HiBench ML K-means — compute-intensive, light shuffle, cached input.

§5.2 setup: 3·10⁶ points, 20-dimensional, k = 10, up to 5 iterations,
convergence distance 0.5, R = 16, r = 4. Degree of parallelism 16 was
chosen (via §5.1 profiling) to meet a < 2 minute SLO.

Structure (Spark MLlib K-means):

  stage 0   read + parse + **cache** the points RDD (expensive ingest)
  per iteration: a map stage (assign points, partial sums per cluster —
  narrow over the cached points) and a tiny reduce stage (combine the
  k x dims partial sums).

Two modelled effects carry the paper's findings:

- the cached points dominate executor storage memory. 16 executors hold
  one partition each comfortably; 4 executors must hold 4 and **evict**
  (LRU), so every iteration re-ingests — the honest mechanism behind the
  paper's 10x degradation on r = 4 (not just the 4x core deficit);
- autoscaled VMs arrive cache-cold and re-ingest on first touch, which
  is why VM scaling only recovers to ≈ 3.3x ("a large fraction of the
  tasks have already been scheduled on the existing executors").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spark.rdd import RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec

#: Reference-core seconds to read + parse + densify one point (HiBench's
#: text input format is expensive to ingest).
INGEST_SECONDS_PER_POINT = 1.3e-4
#: Reference-core seconds per point per assign iteration (distance to
#: k=10 centroids in 20 dims; ~2 orders above the measured pure-NumPy
#: cost in kmeans_algo, matching JVM/MLlib overhead).
ASSIGN_SECONDS_PER_POINT = 2.6e-5
#: Reduce-side compute per partition (combine k x dims partial sums).
REDUCE_SECONDS = 0.15
#: JVM-resident bytes per cached point (boxed vectors: ~15x the raw 160 B
#: of 20 doubles is what old MLlib's Vector objects actually cost). At 16
#: partitions this makes one partition ~450 MB: a 1536 MB Lambda's storage
#: region holds exactly one, a 4 GB VM executor's holds two — so an
#: under-provisioned r=4 cluster (4 partitions per executor) thrashes.
CACHED_BYTES_PER_POINT = 2_400.0
#: Shuffle volume per iteration: partial sums are tiny.
ITER_SHUFFLE_BYTES = 2 * 1024 * 1024
#: On-disk input size (HiBench text: ~200 bytes per point).
INPUT_BYTES_PER_POINT = 200.0


@dataclass
class KMeansWorkload(Workload):
    """K-means over ``points`` points, ``iterations`` Lloyd's passes."""

    points: int = 3_000_000
    dims: int = 20
    k: int = 10
    iterations: int = 5

    def __post_init__(self) -> None:
        if min(self.points, self.dims, self.k, self.iterations) <= 0:
            raise ValueError("all K-means parameters must be positive")
        self.spec = WorkloadSpec(
            name=f"kmeans-{self.points}",
            required_cores=16,
            available_cores=4,
            worker_itype="m4.4xlarge",
            master_itype="m4.xlarge",
            slo_seconds=120.0,  # "< 2 minutes for Spark 16 VM"
            vm_ready_delay_s=60.0,  # "VMs are available to use within ~1 minute"
        )

    @property
    def cached_dataset_bytes(self) -> float:
        return self.points * CACHED_BYTES_PER_POINT

    def build(self, lineage: RDDBuilder, parallelism: int):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        b = lineage
        p = parallelism
        per_part_cache = self.cached_dataset_bytes / p
        points = b.source(
            "points", partitions=p,
            compute_seconds=self.points * INGEST_SECONDS_PER_POINT / p,
            working_set_bytes=per_part_cache,
            cache=True,
            input_bytes=self.points * INPUT_BYTES_PER_POINT)
        centroids = None
        for i in range(1, self.iterations + 1):
            # The assign step depends on the cached points and (from the
            # second iteration) on the previous centroids — MLlib ships
            # centroids by broadcast, which sequences the iterations just
            # as this narrow dependency does.
            parents = [points] if centroids is None else [points, centroids]
            assign = b.map(
                parents, f"assign{i}",
                compute_seconds=self.points * ASSIGN_SECONDS_PER_POINT / p,
                working_set_bytes=per_part_cache * 0.3)
            centroids = b.shuffle(
                assign, f"centroids{i}", partitions=p,
                shuffle_bytes=ITER_SHUFFLE_BYTES,
                compute_seconds=REDUCE_SECONDS)
        return centroids

    @property
    def num_stages(self) -> int:
        """One map stage per iteration (ingest pipelines into the first;
        each centroid reduce pipelines into the next iteration's map)
        plus the result stage."""
        return self.iterations + 1
