"""The long-lived cluster runtime: shared simulation plumbing, executor
pools, and multi-application scheduling.

The §5.1 scenario driver used to hand-wire a fresh Environment,
provider, bus, meter, and a single :class:`~repro.spark.application
.SparkDriver` per run, which made concurrent jobs unrepresentable. This
package extracts that plumbing into a reusable stack:

- :class:`~repro.cluster.runtime.ClusterRuntime` — owns the Environment,
  RandomStreams, CloudProvider, BillingMeter, EventBus, MetricsRegistry,
  and fault arming for one simulated cluster's lifetime;
- :mod:`~repro.cluster.pool` — the executor-pool layer: VM-attach,
  Lambda-attach, and segue helpers shared by every scenario, plus
  :class:`~repro.cluster.pool.ExecutorPool`, the cluster-owned capacity
  that concurrently running applications share;
- :mod:`~repro.cluster.pools` — the one FIFO or FAIR scheduler pool of
  a pooled cluster, and the pooled task scheduler that re-sorts offers
  so shares rebalance at task grain;
- :mod:`~repro.cluster.apps` — :func:`~repro.cluster.apps
  .build_shared_pool`, the one constructor of a pooled world's shared
  pool (the ``multijob`` replay's and ``repro serve``'s), and the
  admission queue turning job arrivals into
  :class:`~repro.spark.dag_scheduler.DAGScheduler`s on the shared
  scheduler;
- :mod:`~repro.cluster.multijob` — the seeded job-arrival workload
  (Poisson arrivals of mixed jobs) reported through ``RunRecord``.
"""

from repro.cluster.apps import AppManager, ClusterApp, build_shared_pool
from repro.cluster.pool import ExecutorPool, add_executors_on_vms
from repro.cluster.pools import PooledTaskScheduler, SchedulerPools
from repro.cluster.runtime import ClusterRuntime

__all__ = [
    "AppManager",
    "ClusterApp",
    "ClusterRuntime",
    "ExecutorPool",
    "PooledTaskScheduler",
    "SchedulerPools",
    "add_executors_on_vms",
    "build_shared_pool",
]
