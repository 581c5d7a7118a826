"""The Spark driver: wiring conf, schedulers, shuffle, and executors.

:class:`SparkDriver` plays the role of the Spark master/driver process
(which, as the paper notes, must itself live on a VM since it is
long-running). It owns the task and DAG schedulers and provides the
executor-creation helpers scenario drivers use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.observability.stage_metrics import executor_kind
from repro.spark.config import SparkConf
from repro.spark.dag_scheduler import DAGScheduler, Job
from repro.spark.executor import LAMBDA_EXPIRY_REASON, Executor, HostKind
from repro.spark.shuffle import ShuffleBackend
from repro.spark.task_scheduler import TaskScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.lambda_fn import LambdaInstance
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.rdd import RDD


@dataclass
class JobResult:
    """Summary of one finished job, for the analysis layer."""

    duration: float
    submit_time: float
    finish_time: float
    num_stages: int
    num_tasks: int
    tasks_by_kind: Dict[str, int]
    fetch_seconds_total: float
    input_seconds_total: float
    compute_seconds_total: float
    gc_overhead_seconds_total: float
    write_seconds_total: float
    cache_hits: int
    failed_attempts: int

    @classmethod
    def from_job(cls, job: Job) -> "JobResult":
        finished = [a for a in job.task_attempts]
        by_kind: Dict[str, int] = {}
        for attempt in finished:
            kind = executor_kind(attempt.executor_id)
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return cls(
            duration=job.duration if job.duration is not None else float("nan"),
            submit_time=job.submit_time,
            finish_time=job.finish_time if job.finish_time is not None else float("nan"),
            num_stages=len(job.stages),
            num_tasks=len(finished),
            tasks_by_kind=by_kind,
            fetch_seconds_total=sum(a.metrics.fetch_seconds for a in finished),
            input_seconds_total=sum(a.metrics.input_seconds for a in finished),
            compute_seconds_total=sum(a.metrics.compute_seconds for a in finished),
            gc_overhead_seconds_total=sum(
                a.metrics.gc_overhead_seconds for a in finished),
            write_seconds_total=sum(a.metrics.write_seconds for a in finished),
            cache_hits=sum(1 for a in finished if a.metrics.cache_hit),
            failed_attempts=len(job.failed_attempts),
        )


class ExecutorFactory:
    """Creates executors and registers them with a task scheduler.

    A :class:`SparkDriver` mints onto its own scheduler; a cluster-level
    executor pool (many applications sharing one :class:`TaskScheduler`)
    mints onto the shared one, with the same lifecycle watchers.
    ``id_prefix`` namespaces the executor ids (``pool:`` for a pool,
    empty for a driver: the historical ``vm-exec-N`` / ``la-exec-N``).
    """

    def __init__(
        self,
        env: "Environment",
        conf: SparkConf,
        rng: "RandomStreams",
        scheduler: TaskScheduler,
        trace: Optional["TraceRecorder"] = None,
        id_prefix: str = "",
    ) -> None:
        self.env = env
        self.conf = conf
        self.rng = rng
        self.scheduler = scheduler
        self.trace = trace
        self.id_prefix = id_prefix
        self._vm_exec_ids = itertools.count()
        self._lambda_exec_ids = itertools.count()

    def add_vm_executor(self, vm: "VirtualMachine") -> Executor:
        """Register one executor on a running VM, claiming one of its
        cores (the executor's heap is that core's share of the VM's
        memory)."""
        vm.allocate_cores(1)
        executor = Executor(
            self.env,
            f"{self.id_prefix}vm-exec-{next(self._vm_exec_ids)}",
            HostKind.VM, self.conf, self.rng, vm=vm, trace=self.trace)
        self.scheduler.register_executor(executor)
        self.env.process(self._watch_vm_stop(executor, vm))
        return executor

    def _watch_vm_stop(self, executor: Executor, vm: "VirtualMachine"):
        yield vm.stopped
        if executor.executor_id in self.scheduler.executors:
            self.scheduler.decommission_executor(
                executor, graceful=False, reason="vm terminated")

    def add_lambda_executor(self, instance: "LambdaInstance") -> Executor:
        """Register one executor on a started Lambda container.

        The provider reaps containers at the 15-minute lifetime cap; a
        watcher turns that into a hard executor loss (the running task
        dies — exactly the §3 limitation segueing pre-empts).
        """
        executor = Executor(
            self.env,
            f"{self.id_prefix}la-exec-{next(self._lambda_exec_ids)}",
            HostKind.LAMBDA, self.conf, self.rng, lambda_instance=instance,
            trace=self.trace)
        self.scheduler.register_executor(executor)
        self.env.process(self._watch_lambda_expiry(executor, instance))
        return executor

    def _watch_lambda_expiry(self, executor: Executor,
                             instance: "LambdaInstance"):
        yield instance.expired
        if executor.executor_id in self.scheduler.executors:
            # The shared constant keeps this reap non-culpable: the
            # executor's Interrupt handler exempts it from tasks_failed.
            self.scheduler.decommission_executor(
                executor, graceful=False, reason=LAMBDA_EXPIRY_REASON)


class SparkDriver:
    """The master of one application: owns its :class:`TaskScheduler`,
    whose listener is the driver's :class:`DAGScheduler`, and the
    executors registered with it. (Pooled applications share one
    cluster-owned task scheduler and hold only a DAG scheduler; see
    :mod:`repro.cluster.apps`.)
    """

    def __init__(
        self,
        env: "Environment",
        conf: SparkConf,
        rng: "RandomStreams",
        shuffle_backend: ShuffleBackend,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.env = env
        self.conf = conf
        self.rng = rng
        self.trace = trace
        self.task_scheduler = TaskScheduler(env, conf, rng, shuffle_backend,
                                            trace=trace)
        self.dag_scheduler = DAGScheduler(env, self.task_scheduler,
                                          trace=trace)
        self.task_scheduler.listener = self.dag_scheduler
        self.executor_factory = ExecutorFactory(
            env, conf, rng, self.task_scheduler, trace=trace)

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------

    def add_vm_executor(self, vm: "VirtualMachine") -> Executor:
        """Register one executor on a running VM (see
        :meth:`ExecutorFactory.add_vm_executor`)."""
        return self.executor_factory.add_vm_executor(vm)

    def add_lambda_executor(self, instance: "LambdaInstance") -> Executor:
        """Register one executor on a started Lambda container (see
        :meth:`ExecutorFactory.add_lambda_executor`)."""
        return self.executor_factory.add_lambda_executor(instance)

    def executors_of_kind(self, kind: HostKind) -> List[Executor]:
        return [ex for ex in self.task_scheduler.executors.values()
                if ex.kind is kind]

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit(self, final_rdd: "RDD") -> Job:
        """Submit an action; use ``env.run(until=job.done)`` to finish."""
        return self.dag_scheduler.submit_job(final_rdd)

    def run_job(self, final_rdd: "RDD") -> JobResult:
        """Submit and run to completion; convenience for tests/benches."""
        job = self.submit(final_rdd)
        self.env.run(until=job.done)
        return JobResult.from_job(job)
