"""SplitServe reproduction: splitting Spark-like jobs across FaaS and IaaS.

A full simulation-fidelity reproduction of *"SplitServe: Efficiently
Splitting Apache Spark Jobs Across FaaS and IaaS"* (Middleware 2020),
including every substrate the paper depends on: a discrete-event kernel,
EC2/Lambda cloud models, five shuffle-storage services, a from-scratch
Spark-like engine, and SplitServe's launching / segueing / state-transfer
facilities — plus the eight evaluation scenarios and the benchmark
harness regenerating every table and figure.

Quickstart::

    from repro.core import run_scenario
    from repro.experiments import ExperimentSpec

    record = run_scenario(ExperimentSpec("pagerank", "ss_hybrid"))
    print(record.duration_s, record.cost)

See README.md for the architecture tour and DESIGN.md for the
per-experiment index.
"""

from repro.core import SCENARIO_NAMES, SplitServe, run_scenario
from repro.workloads import (
    KMeansWorkload,
    PageRankWorkload,
    SparkPiWorkload,
    TPCDSWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "KMeansWorkload",
    "PageRankWorkload",
    "SCENARIO_NAMES",
    "SparkPiWorkload",
    "SplitServe",
    "TPCDSWorkload",
    "run_scenario",
    "__version__",
]
