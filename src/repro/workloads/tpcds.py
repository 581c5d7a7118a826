"""Spark-SQL-Perf TPC-DS queries (§5.2's headline ETL workload).

The paper picks 10 I/O-intensive queries from the 100-query suite and
presents four (Q5, Q16, Q94, Q95) at scale factor 8 on R = 32 cores
(m4.10xlarge), r = 8, with master + HDFS on a second m4.10xlarge.

The evaluation exercises the queries' *footprint* — stage structure,
per-stage compute, and shuffle volumes — not their SQL semantics, so
each query is reproduced as a calibrated stage chain:

- scan stages run at the input-split parallelism (64 splits at SF 8);
- every shuffle runs at Spark SQL's default 200 shuffle partitions
  (``spark.sql.shuffle.partitions``), which matters twice: task waves on
  32 cores, and the M·R object explosion on Qubole's S3 shuffle;
- per-stage core-seconds and shuffle bytes scale linearly with the scale
  factor, calibrated so "Spark 32 VM" lands in the paper's "under, or in
  some cases at about, 60 seconds" band.

Q5 is flagged ``qubole_supported=False``: the paper could not run it on
Qubole's prototype ("their prototype encounters fatal errors").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cloud.constants import GB
from repro.spark.rdd import RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec

#: Spark SQL's default shuffle parallelism.
SQL_SHUFFLE_PARTITIONS = 200
#: Input splits at the reference scale factor 8.
SCAN_PARTITIONS = 64
#: Bytes a query scans from the SF-8 dataset (columnar pruning keeps it
#: well under the full ~8 GB).
SCAN_INPUT_BYTES = 3.0 * 1024 ** 3
REFERENCE_SCALE_FACTOR = 8.0


@dataclass(frozen=True)
class QuerySegment:
    """One stage boundary: compute feeding a shuffle (or the result).

    ``core_seconds``: aggregate reference-core compute of the stage.
    ``shuffle_gb``: outgoing shuffle volume (0 for the final segment).
    """

    core_seconds: float
    shuffle_gb: float


@dataclass(frozen=True)
class QueryProfile:
    """Calibrated footprint of one TPC-DS query at SF 8."""

    name: str
    segments: Tuple[QuerySegment, ...]
    qubole_supported: bool = True

    @property
    def total_core_seconds(self) -> float:
        return sum(s.core_seconds for s in self.segments)

    @property
    def total_shuffle_gb(self) -> float:
        return sum(s.shuffle_gb for s in self.segments)

    @property
    def num_stages(self) -> int:
        return len(self.segments)


def _q(name: str, *segments: Tuple[float, float],
       qubole_supported: bool = True) -> QueryProfile:
    return QueryProfile(
        name=name,
        segments=tuple(QuerySegment(cs, gb) for cs, gb in segments),
        qubole_supported=qubole_supported)


#: The 10-query pool (§5.2: "we picked 10 with a range of compute and
#: memory requirements and are I/O intensive"). The four presented
#: queries are calibrated most carefully; the remaining six give the
#: pool its compute/shuffle diversity.
TPCDS_QUERIES: Dict[str, QueryProfile] = {
    q.name: q
    for q in [
        # Q5: store+web+catalog sales rollup — the heaviest shuffler;
        # Qubole's prototype cannot run it.
        _q("q5", (500, 2.5), (330, 2.0), (240, 1.5), (180, 0.8), (120, 0.0),
           qubole_supported=False),
        # Q16: catalog sales distinct-count + join.
        _q("q16", (420, 1.5), (260, 1.2), (170, 0.5), (110, 0.0)),
        # Q94: web sales self-join (ship/return filtering).
        _q("q94", (380, 1.2), (230, 0.9), (150, 0.4), (90, 0.0)),
        # Q95: like Q94 with an extra self-join level — shuffle-heavier.
        _q("q95", (460, 2.0), (300, 1.8), (210, 1.0), (140, 0.5), (90, 0.0)),
        # The rest of the pool.
        _q("q3", (300, 0.8), (180, 0.4), (90, 0.0)),
        _q("q7", (360, 1.0), (220, 0.7), (140, 0.3), (80, 0.0)),
        _q("q19", (340, 0.9), (200, 0.6), (110, 0.0)),
        _q("q27", (390, 1.1), (240, 0.8), (150, 0.35), (90, 0.0)),
        _q("q42", (280, 0.6), (160, 0.3), (80, 0.0)),
        _q("q68", (410, 1.3), (260, 1.0), (170, 0.45), (100, 0.0)),
    ]
}

#: The four queries Figure 5 presents.
PRESENTED_QUERIES = ("q5", "q16", "q94", "q95")


@dataclass
class TPCDSWorkload(Workload):
    """One TPC-DS query at a given scale factor."""

    query: str = "q16"
    scale_factor: float = 8.0
    shuffle_partitions: int = SQL_SHUFFLE_PARTITIONS

    def __post_init__(self) -> None:
        if self.query not in TPCDS_QUERIES:
            known = ", ".join(sorted(TPCDS_QUERIES))
            raise KeyError(f"unknown query {self.query!r}; known: {known}")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        profile = TPCDS_QUERIES[self.query]
        self.profile = profile
        self.spec = WorkloadSpec(
            name=f"tpcds-{self.query}-sf{self.scale_factor:g}",
            required_cores=32,
            available_cores=8,
            worker_itype="m4.10xlarge",
            master_itype="m4.10xlarge",  # "we run the SplitServe Master and
            # HDFS on a m4.10xlarge as well to get similar dedicated EBS
            # bandwidth" (§5.2)
            slo_seconds=60.0,
            qubole_supported=profile.qubole_supported,
        )

    def build(self, lineage: RDDBuilder, parallelism: int):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        scale = self.scale_factor / REFERENCE_SCALE_FACTOR
        b = lineage
        segments = self.profile.segments
        scan_parts = max(parallelism, int(SCAN_PARTITIONS * scale))
        first = segments[0]
        current = b.source(
            f"{self.query}-scan", partitions=scan_parts,
            compute_seconds=first.core_seconds * scale / scan_parts,
            working_set_bytes=256 * 1024 * 1024,
            input_bytes=SCAN_INPUT_BYTES * scale)
        outgoing = first.shuffle_gb
        for i, segment in enumerate(segments[1:], start=1):
            current = b.shuffle(
                current, f"{self.query}-s{i}",
                partitions=self.shuffle_partitions,
                shuffle_bytes=outgoing * scale * GB,
                compute_seconds=(segment.core_seconds * scale
                                 / self.shuffle_partitions),
                working_set_bytes=192 * 1024 * 1024)
            outgoing = segment.shuffle_gb
        return current

    @classmethod
    def presented(cls, scale_factor: float = 8.0) -> List["TPCDSWorkload"]:
        """The four Figure 5 queries."""
        return [cls(query=q, scale_factor=scale_factor)
                for q in PRESENTED_QUERIES]
