"""SplitServe: the paper's contribution.

The three facilities of §4.2, implemented over the Spark-like engine and
the cloud substrate:

- :class:`~repro.core.launching.LaunchingFacility` — serve a job's R-core
  requirement from free VM cores (the system-wide VM state,
  :func:`~repro.core.launching.vms_with_free_cores`: running VMs with
  free cores, most-free first) plus Δ freshly launched Lambdas;
- :class:`~repro.core.segue.SegueingFacility` — when replacement VM
  cores come up, gracefully drain Lambda-based executors onto them (no
  rollback); whether to procure them at all is the cost manager's
  §4.2 rule (SLO above the VM startup delay);
- :class:`~repro.core.splitserve.SplitServe` — the facade wiring the
  facilities to a driver with HDFS-based shuffle (§4.3);
- :mod:`~repro.core.cost_manager` — intra-job cost/performance estimates
  (Figure 1 economics, profiling-driven parallelism choice);
- :mod:`~repro.core.autoscaler` — the inter-job m(t)+kσ(t) provisioning
  policies of §4.1 / Figure 2;
- :mod:`~repro.core.scenarios` — the eight evaluation scenarios of §5.1.
"""

from repro.core.autoscaler import InterJobAutoscaler, ProvisioningPolicy
from repro.core.cost_manager import CostManager, ExecutionPlan
from repro.core.launching import LaunchingFacility
from repro.core.microbatch import BatchRecord, MicroBatchSimulator, StreamOutcome
from repro.core.scenarios import SCENARIO_NAMES, run_scenario
from repro.core.segue import SegueingFacility
from repro.core.splitserve import SplitServe
from repro.core.stream import JobRecord, JobStreamSimulator, StreamReport

__all__ = [
    "CostManager",
    "ExecutionPlan",
    "InterJobAutoscaler",
    "BatchRecord",
    "JobRecord",
    "JobStreamSimulator",
    "LaunchingFacility",
    "MicroBatchSimulator",
    "ProvisioningPolicy",
    "SCENARIO_NAMES",
    "SegueingFacility",
    "SplitServe",
    "StreamOutcome",
    "StreamReport",
    "run_scenario",
]
