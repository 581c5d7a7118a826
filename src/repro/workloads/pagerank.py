"""HiBench WebSearch (PageRank) — shuffle-intensive, iterative.

§5.2 setup: 850,000 pages, R = 16 executors (m4.4xlarge), r = 3, master +
single HDFS node colocated on an m4.xlarge. Figure 7 shows **6 execution
stages**, which matches the classic partition-aware Spark PageRank with
4 ranks iterations:

  stage 1  parse + hash-partition the link graph (cached)
  stages 2-5  one stage per iteration: contributions (narrow over cached
              links + the previous ranks) reduced into new ranks (shuffle)
  stage 6  final ranking/output (shuffle + save)

Per-page constants are calibrated so "Spark 16 VM" lands near the
paper's ~2-minute ballpark and, with the substrate models, the relative
factors of Figure 6 emerge (r-only ≈ 2.1×, autoscale ≈ 2×, Qubole
≈ +60 %, SS-Lambda ≈ +27 %, hybrid ≈ −32 % vs autoscale).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spark.rdd import RDD, RDDBuilder
from repro.workloads.base import Workload, WorkloadSpec

#: Calibrated per-page constants (reference-core seconds / bytes).
PARSE_SECONDS_PER_PAGE = 1.76e-4
ITER_SECONDS_PER_PAGE = 1.06e-4
FINAL_SECONDS_PER_PAGE = 1.06e-4
ITER_SHUFFLE_BYTES_PER_PAGE = 480.0
FINAL_SHUFFLE_BYTES_PER_PAGE = 120.0
#: In-memory size of the cached, partitioned link graph.
LINKS_BYTES_PER_PAGE = 900.0
#: On-disk input size (HiBench's text edge list).
INPUT_BYTES_PER_PAGE = 260.0
#: Power-law link graphs leave one hash partition markedly heavier than
#: the rest; the heaviest task runs at SKEW_FACTOR x the mean. This is
#: why the paper's 16-core baseline is far from perfectly parallel (and
#: why dropping to r=3 costs only ~2.1x, not 16/3).
SKEW_FACTOR = 2.3


def skewed_compute(total_seconds: float, partitions: int):
    """Per-partition compute with one hot partition at SKEW_FACTOR x the
    mean (capped so low partition counts stay non-negative)."""
    mean = total_seconds / partitions
    if partitions == 1:
        return lambda p: total_seconds
    hot = min(SKEW_FACTOR, float(partitions))
    cold = mean * (partitions - hot) / (partitions - 1)

    def compute(p: int) -> float:
        return mean * hot if p == 0 else cold

    return compute

#: HiBench runs 4 ranks iterations by default -> 6 stages total.
DEFAULT_ITERATIONS = 4


@dataclass
class PageRankWorkload(Workload):
    """PageRank over ``pages`` pages with ``iterations`` rank updates."""

    pages: int = 850_000
    iterations: int = DEFAULT_ITERATIONS

    def __post_init__(self) -> None:
        if self.pages <= 0:
            raise ValueError("pages must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        self.spec = WorkloadSpec(
            name=f"pagerank-{self.pages}",
            required_cores=16,
            available_cores=3,
            worker_itype="m4.4xlarge",
            master_itype="m4.xlarge",
            slo_seconds=240.0,
            segue_available_s=45.0,  # Figure 7: an existing core frees at 45 s
        )

    # ------------------------------------------------------------------

    def build(self, lineage: RDDBuilder, parallelism: int) -> RDD:
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        b = lineage
        p = parallelism
        links = b.source(
            "links", partitions=p,
            compute_seconds=skewed_compute(
                self.pages * PARSE_SECONDS_PER_PAGE, p),
            working_set_bytes=self.pages * LINKS_BYTES_PER_PAGE / p,
            cache=True,
            input_bytes=self.pages * INPUT_BYTES_PER_PAGE)
        ranks = b.map(links, "ranks0", compute_seconds=0.0)
        iter_shuffle = self.pages * ITER_SHUFFLE_BYTES_PER_PAGE
        for i in range(1, self.iterations + 1):
            contribs = b.map(
                [links, ranks], f"contribs{i}",
                compute_seconds=skewed_compute(
                    self.pages * ITER_SECONDS_PER_PAGE, p),
                working_set_bytes=self.pages * LINKS_BYTES_PER_PAGE / (2 * p))
            ranks = b.shuffle(contribs, f"ranks{i}", partitions=p,
                              shuffle_bytes=iter_shuffle)
        final = b.shuffle(
            ranks, "top-ranks", partitions=p,
            shuffle_bytes=self.pages * FINAL_SHUFFLE_BYTES_PER_PAGE,
            compute_seconds=skewed_compute(
                self.pages * FINAL_SECONDS_PER_PAGE, p))
        return final

    @property
    def num_stages(self) -> int:
        """1 parse + one per iteration + 1 final (Figure 7's six)."""
        return self.iterations + 2

    @classmethod
    def small(cls) -> "PageRankWorkload":
        """The 25k-page profiling input of Figure 4."""
        return cls(pages=25_000)

    @classmethod
    def medium(cls) -> "PageRankWorkload":
        """The 50k-page profiling input of Figure 4."""
        return cls(pages=50_000)

    @classmethod
    def large(cls) -> "PageRankWorkload":
        """The 100k-page profiling input of Figure 4."""
        return cls(pages=100_000)
