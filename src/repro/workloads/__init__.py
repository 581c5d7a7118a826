"""The paper's four evaluation workloads plus synthetic generators.

- :mod:`~repro.workloads.tpcds` — the Spark-SQL-Perf TPC-DS queries the
  paper presents (Q5, Q16, Q94, Q95 at scale factor 8, §5.2);
- :mod:`~repro.workloads.pagerank` — Intel HiBench WebSearch/PageRank
  (850 k pages, 6 execution stages);
- :mod:`~repro.workloads.kmeans` — Intel HiBench ML K-means (3·10⁶
  20-dimensional points, k = 10, 5 iterations), with a real NumPy
  reference implementation in :mod:`~repro.workloads.kmeans_algo`;
- :mod:`~repro.workloads.sparkpi` — the Monte-Carlo Pi job (10¹⁰ darts,
  64 executors, negligible shuffle);
- :mod:`~repro.workloads.generators` — parametric synthetic DAGs for
  tests and ablations;
- :mod:`~repro.workloads.traces` — diurnal demand traces for Figure 2.
"""

from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.generators import (
    HeterogeneousWorkload,
    SyntheticWorkload,
)
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.sort import SortWorkload
from repro.workloads.sparkpi import SparkPiWorkload
from repro.workloads.tpcds import TPCDSWorkload, TPCDS_QUERIES
from repro.workloads.traces import DiurnalTrace
from repro.workloads.registry import WORKLOADS, make_workload

__all__ = [
    "DiurnalTrace",
    "HeterogeneousWorkload",
    "KMeansWorkload",
    "PageRankWorkload",
    "SortWorkload",
    "SparkPiWorkload",
    "SyntheticWorkload",
    "TPCDSWorkload",
    "TPCDS_QUERIES",
    "WORKLOADS",
    "Workload",
    "WorkloadSpec",
    "make_workload",
]
