"""Multi-application admission onto one shared executor pool.

:func:`build_shared_pool` builds the pooled cluster that both the
``multijob`` replay and ``repro serve`` run on: one FIFO or FAIR
scheduler pool, an :class:`~repro.cluster.pool.ExecutorPool` (on HDFS
shuffle when Lambdas bridge it, §4.3) and the :class:`AppManager` in
front of it. An arriving job becomes a :class:`ClusterApp`; the manager
admits apps FIFO into a bounded set of concurrently running
applications and gives each its own
:class:`~repro.spark.dag_scheduler.DAGScheduler` on the pool's shared
:class:`~repro.cluster.pools.PooledTaskScheduler`. Queueing delay,
latency, and completion events are recorded per application under the
``cluster`` event category and ``app.<id>.*`` metric names.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set

from repro.cluster.pool import ExecutorPool
from repro.cluster.pools import DEFAULT_POOL, POOL_MODES, SchedulerPools
from repro.observability.categories import (
    CAT_CLUSTER,
    CAT_PLANNER,
    EV_APP_ADMITTED,
    EV_APP_COMPLETED,
    EV_APP_FAILED,
    EV_APP_SUBMITTED,
    EV_BRIDGE_DRAINED,
    EV_SPLIT_DECIDED,
)
from repro.spark.application import JobResult
from repro.spark.dag_scheduler import DAGScheduler, JobFailedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.runtime import ClusterRuntime
    from repro.planner.policy import PlannerPolicy
    from repro.spark.config import SparkConf
    from repro.workloads.base import Workload

#: Shared-pool shapes: VM slots only (the ``spark_R_vm`` shape), or VM
#: plus Lambda slots segued onto procured VMs (``ss_hybrid_segue``).
POOL_STYLES = ("vm", "hybrid_segue")


def check_pool_shape(pool_style: str, mode: str) -> None:
    """Reject a pool style outside :data:`POOL_STYLES` or a scheduler
    pool mode outside :data:`~repro.cluster.pools.POOL_MODES`."""
    if pool_style not in POOL_STYLES:
        raise ValueError(f"pool_style must be one of {POOL_STYLES}, "
                         f"got {pool_style!r}")
    if mode not in POOL_MODES:
        raise ValueError(f"mode must be one of {POOL_MODES}, got {mode!r}")


def build_shared_pool(runtime: "ClusterRuntime", conf: "SparkConf", *,
                      pool_cores: int, lambda_cores: int, pool_style: str,
                      mode: str, max_concurrent: Optional[int],
                      worker_itype: str, segue_at_s: float,
                      split_policy: Optional["PlannerPolicy"] = None,
                      ) -> "AppManager":
    """Build the shared pool of one pooled world and return the
    :class:`AppManager` admitting apps onto it.

    ``pool_cores`` VM slots on pre-provisioned ``worker_itype``
    instances; a ``hybrid_segue`` pool adds ``lambda_cores`` Lambda
    slots and segues them onto VMs procured now that come up after
    ``segue_at_s``. A Lambda-backed pool, or one whose admissions a
    split policy may bridge, shuffles through HDFS on a ``pool-master``
    VM, so draining a Lambda executor loses no map output (§4.3). The
    order of the steps fixes VM names, random draws and event order.
    """
    check_pool_shape(pool_style, mode)
    pools = SchedulerPools(mode)
    hybrid = pool_style == "hybrid_segue" and lambda_cores > 0
    master_vm = hdfs = None
    if hybrid or split_policy is not None:
        from repro.storage import HDFS
        master_vm = runtime.provider.request_vm(
            "m4.xlarge", name="pool-master", already_running=True)
        hdfs = HDFS(runtime.env, master_vm, runtime.rng, runtime.meter)
    pool = ExecutorPool(runtime, conf, pools, shuffle_storage=hdfs)
    if master_vm is not None:
        pool.dedicated_vms.append(master_vm)
    pool.provision_vm_cores(pool_cores, worker_itype)
    if hybrid:
        pool.invoke_lambda_executors(lambda_cores)
        pool.segue_to_vms(lambda_cores, segue_at_s)
    manager = AppManager(runtime, pool, max_concurrent=max_concurrent,
                         split_policy=split_policy)
    runtime.arm_faults(None, scheduler=pool.scheduler,
                       storages=pool.storages)
    return manager


class ClusterApp:
    """One application: a workload instance moving through submission,
    admission, execution on the shared pool, and completion."""

    def __init__(self, app_id: str, index: int, workload: "Workload",
                 parallelism: Optional[int] = None,
                 registry_name: Optional[str] = None) -> None:
        self.app_id = app_id
        #: Tiebreak for the FAIR order, after ``app_id``.
        self.index = index
        self.workload = workload
        #: Registry name the workload was built from (instance names
        #: like ``pagerank-25000`` embed parameters; the planner
        #: profiles by registry name).
        self.registry_name = registry_name or workload.name
        #: Degree of parallelism the job is built for (defaults to the
        #: workload's R).
        self.parallelism = (parallelism if parallelism is not None
                            else workload.spec.required_cores)
        self.submit_time: Optional[float] = None
        self.admit_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.failed = False
        self.failure_reason: Optional[str] = None
        #: The running app's DAG scheduler and job; both are dropped at
        #: completion, which keeps only :attr:`result` and
        #: :attr:`busy_seconds`, so a finished job is freed.
        self.dag: Optional[DAGScheduler] = None
        self.job = None
        #: Summary of the finished job.
        self.result: Optional[JobResult] = None
        #: Task-occupancy seconds this app put on the pool (the basis
        #: for apportioning shared-resource cost across applications).
        self.busy_seconds = 0.0

    @property
    def queueing_delay_s(self) -> Optional[float]:
        if self.submit_time is None or self.admit_time is None:
            return None
        return self.admit_time - self.submit_time

    @property
    def latency_s(self) -> Optional[float]:
        """Submission-to-completion time (what an arrival experiences)."""
        if self.submit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def run_duration_s(self) -> Optional[float]:
        if self.admit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.admit_time

    def release_job(self) -> None:
        """Keep the finished job's summary, retire its shuffles, then
        drop the job and its DAG scheduler, so that reference counting
        frees them."""
        job = self.job
        self.dag.retire_shuffles()
        self.result = JobResult.from_job(job)
        total = sum(a.metrics.duration for a in job.task_attempts)
        total += sum(a.metrics.duration for a in job.failed_attempts)
        self.busy_seconds = total
        self.job = None
        self.dag = None

    def __repr__(self) -> str:
        return f"<ClusterApp {self.app_id} ({self.workload.name})>"


class AppManager:
    """FIFO admission of applications onto one shared executor pool.

    With a ``split_policy`` (see :mod:`repro.core.policies`, kind
    ``split``), each admission first asks the policy how the app should
    cover its parallelism given the pool's uncommitted VM slots; the
    manager then enforces the decision — invoking bridge Lambdas and/or
    starting a segue — and drains the app's bridge Lambdas when it
    completes, so a burst's Lambda bill ends with the burst.
    """

    def __init__(self, runtime: "ClusterRuntime", pool: ExecutorPool,
                 max_concurrent: Optional[int] = None,
                 split_policy: Optional["PlannerPolicy"] = None) -> None:
        self.runtime = runtime
        self.pool = pool
        self.pools = pool.pools
        self.max_concurrent = max_concurrent
        self.split_policy = split_policy
        self.queue: Deque[ClusterApp] = deque()
        self.running: Set[str] = set()
        self.finished: List[ClusterApp] = []
        self.decisions: List[object] = []
        #: VM slots committed to running apps / bridge Lambdas invoked
        #: per app, maintained only when a split policy is active.
        self._vm_committed: Dict[str, int] = {}
        self._bridged: Dict[str, int] = {}
        self._completion_target: Optional[int] = None
        self._completion_event = None

    # ------------------------------------------------------------------

    def submit(self, app: ClusterApp) -> None:
        """An application arrives: enqueue and admit if a slot is free."""
        app.submit_time = self.runtime.env.now
        self._record(EV_APP_SUBMITTED, app=app.app_id,
                     workload=app.workload.name, pool=DEFAULT_POOL)
        self.queue.append(app)
        self._try_admit()

    def _try_admit(self) -> None:
        while self.queue and (self.max_concurrent is None
                              or len(self.running) < self.max_concurrent):
            self._admit(self.queue.popleft())

    def _admit(self, app: ClusterApp) -> None:
        env = self.runtime.env
        app.admit_time = env.now
        self.running.add(app.app_id)
        self._record(EV_APP_ADMITTED, app=app.app_id,
                     queued_s=app.queueing_delay_s)
        self.runtime.metrics.histogram("cluster.queueing_delay_s").observe(
            app.queueing_delay_s)
        if self.split_policy is not None:
            self._enforce_split(app)
        self.pools.register(app)
        dag = DAGScheduler(env, self.pool.scheduler, trace=self.runtime.trace)
        dag.schedulable = app
        app.dag = dag
        app.job = dag.submit_job(app.workload.build(self.runtime.lineage,
                                                    app.parallelism))
        env.process(self._watch(app))

    def _enforce_split(self, app: ClusterApp) -> None:
        """Consult the split policy for one admission and act on it."""
        free = max(0, self.pool.vm_capacity
                   - sum(self._vm_committed.values()))
        decision = self.split_policy.decide(app.workload, free,
                                            registry_name=app.registry_name)
        self.decisions.append(decision)
        self._vm_committed[app.app_id] = decision.vm_cores
        self.runtime.trace.record(
            self.runtime.env.now, CAT_PLANNER, EV_SPLIT_DECIDED,
            app=app.app_id, workload=app.registry_name,
            choice=decision.choice, free_cores=free,
            vm_cores=decision.vm_cores,
            lambda_cores=decision.lambda_cores,
            segue_cores=decision.segue_cores,
            predicted_runtime_s=decision.predicted_runtime_s,
            slo_s=decision.slo_s, meets_slo=decision.meets_slo)
        if decision.lambda_cores > 0:
            self.pool.invoke_lambda_executors(decision.lambda_cores)
            self._bridged[app.app_id] = decision.lambda_cores
        if decision.segue_cores > 0:
            self.pool.segue_to_vms(decision.segue_cores,
                                   decision.segue_at_s)

    def _watch(self, app: ClusterApp):
        try:
            yield app.job.done
        except JobFailedError as exc:
            app.failed = True
            app.failure_reason = str(exc)
        self._on_complete(app)

    def _on_complete(self, app: ClusterApp) -> None:
        app.finish_time = self.runtime.env.now
        app.release_job()
        self.running.discard(app.app_id)
        self.pools.unregister(app)
        self._vm_committed.pop(app.app_id, None)
        self._drain_bridge(app)
        self.finished.append(app)
        if app.failed:
            self._record(EV_APP_FAILED, app=app.app_id,
                         reason=app.failure_reason)
        else:
            self._record(EV_APP_COMPLETED, app=app.app_id,
                         latency_s=app.latency_s)
        metrics = self.runtime.metrics
        metrics.gauge(f"app.{app.app_id}.latency_s").set(app.latency_s)
        metrics.gauge(f"app.{app.app_id}.queueing_delay_s").set(
            app.queueing_delay_s)
        metrics.gauge(f"app.{app.app_id}.duration_s").set(app.run_duration_s)
        self._try_admit()
        if (self._completion_event is not None
                and not self._completion_event.triggered
                and len(self.finished) >= self._completion_target):
            self._completion_event.succeed(self)

    def _drain_bridge(self, app: ClusterApp) -> None:
        """Release the bridge Lambdas invoked for ``app``, keeping
        hands off slots still claimed by other running apps. Segued
        bridges drain through the segue instead; by completion their
        claim finds no live Lambda executor and drains zero."""
        claim = self._bridged.pop(app.app_id, 0)
        if claim <= 0:
            return
        reserved = sum(self._bridged.get(other, 0)
                       for other in self.running)
        drainable = max(0, min(claim,
                               self.pool.live_lambda_executors - reserved))
        drained = (self.pool.drain_lambda_executors(drainable)
                   if drainable > 0 else 0)
        self.runtime.trace.record(
            self.runtime.env.now, CAT_PLANNER, EV_BRIDGE_DRAINED,
            app=app.app_id, claimed=claim, drained=drained)

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Live admission stats (the ``repro serve`` control plane's
        ``GET /pools`` view of this manager)."""
        failed = sum(1 for app in self.finished if app.failed)
        return {
            "queued": len(self.queue),
            "queued_apps": [app.app_id for app in self.queue],
            "running": len(self.running),
            "running_apps": sorted(self.running),
            "finished": len(self.finished),
            "failed": failed,
            "max_concurrent": self.max_concurrent,
        }

    def completion_event(self, total: int):
        """An event that fires once ``total`` applications have finished
        (run the environment until it to drain a fixed arrival batch)."""
        from repro.simulation.events import Event
        self._completion_target = total
        self._completion_event = Event(self.runtime.env)
        if len(self.finished) >= total:
            self._completion_event.succeed(self)
        return self._completion_event

    def _record(self, event: str, **fields) -> None:
        if self.runtime.trace is not None:
            self.runtime.trace.record(self.runtime.env.now, CAT_CLUSTER,
                                      event, **fields)
