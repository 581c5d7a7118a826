"""The DAG scheduler: stages, submission order, and fault recovery.

Faithful to Spark's ``DAGScheduler`` at the level the paper cares about:

- a job's lineage is cut into stages at shuffle boundaries; a stage's
  narrow chain runs pipelined in one task per partition;
- a stage is submitted once its parents' shuffle outputs are complete in
  the :class:`~repro.spark.shuffle.MapOutputTracker`;
- a fetch failure zombifies the failing stage attempt, re-runs the parent
  map stage's *missing* partitions, then resubmits the failed stage —
  the "execution roll-back ... cascading recomputations" (§4.3) that
  SplitServe's graceful drain exists to avoid;
- a task that exhausts its retries fails the job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.observability.categories import (
    CAT_DAG,
    EV_EXECUTOR_LOST,
    EV_FETCH_FAILED,
    EV_JOB_COMPLETE,
    EV_JOB_FAILED,
    EV_JOB_SUBMITTED,
    EV_STAGE_COMPLETE,
    EV_STAGE_OUTPUTS_LOST,
    EV_STAGE_SUBMITTED,
)
from repro.simulation.events import Event
from repro.spark.rdd import RDD, ShuffleDependency
from repro.spark.shuffle import FetchFailedError
from repro.spark.task import PipelineStep, TaskAttempt, TaskSpec
from repro.spark.task_scheduler import (
    SchedulerListener,
    TaskScheduler,
    TaskSet,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment
    from repro.simulation.tracing import TraceRecorder


class JobFailedError(RuntimeError):
    """The job could not complete (a stage aborted)."""


class Stage:
    """One stage: the narrow pipeline ending at ``rdd``.

    ``out_dep`` is the outgoing shuffle dependency for a shuffle-map
    stage (None for the result stage); ``out_reducers`` is the partition
    count of the consuming RDD.
    """

    def __init__(self, stage_id: int, rdd: RDD,
                 out_dep: Optional[ShuffleDependency] = None,
                 out_reducers: int = 0) -> None:
        self.stage_id = stage_id
        self.rdd = rdd
        self.out_dep = out_dep
        self.out_reducers = out_reducers
        self.parents: List["Stage"] = []
        self.attempts = 0
        #: Result-stage bookkeeping (shuffle stages use the tracker).
        self.result_partitions: Set[int] = set()

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions

    @property
    def is_shuffle_map(self) -> bool:
        return self.out_dep is not None

    @property
    def name(self) -> str:
        kind = "map" if self.is_shuffle_map else "result"
        return f"stage{self.stage_id}({kind}:{self.rdd.name})"

    def __repr__(self) -> str:
        return f"<{self.name} tasks={self.num_tasks}>"


@dataclass
class Job:
    """One submitted action, resolved when its result stage completes."""

    job_id: int
    final_rdd: RDD
    submit_time: float
    done: Event
    stages: List[Stage] = field(default_factory=list)
    finish_time: Optional[float] = None
    failed: bool = False
    failure_reason: Optional[str] = None
    task_attempts: List[TaskAttempt] = field(default_factory=list)
    failed_attempts: List[TaskAttempt] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


def _visit_stages(stage: Stage, seen: List[Stage], seen_ids: Set[int]) -> None:
    """Append ``stage`` and its ancestors to ``seen``, parents first,
    skipping stages already in ``seen_ids``."""
    if stage.stage_id in seen_ids:
        return
    for parent in stage.parents:
        _visit_stages(parent, seen, seen_ids)
    seen_ids.add(stage.stage_id)
    seen.append(stage)


class DAGScheduler(SchedulerListener):
    """Owns stage construction and drives the task scheduler."""

    def __init__(self, env: "Environment", task_scheduler: TaskScheduler,
                 trace: Optional["TraceRecorder"] = None) -> None:
        self.env = env
        self.task_scheduler = task_scheduler
        self.trace = trace
        #: App handle for pooled scheduling (set by the cluster layer);
        #: tagged onto every submitted taskset so a shared scheduler can
        #: group tasksets by application for fair-share ordering.
        self.schedulable: Optional[object] = None
        self._stage_ids = itertools.count()
        self._job_ids = itertools.count()
        self._shuffle_stage_by_id: Dict[int, Stage] = {}
        self._stage_by_id: Dict[int, Stage] = {}
        self._waiting: Set[Stage] = set()
        self._running: Set[Stage] = set()
        self._active_job: Optional[Job] = None
        self._max_stage_attempts = int(
            task_scheduler.conf.get("spark.stage.maxConsecutiveAttempts"))

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------

    def submit_job(self, final_rdd: RDD) -> Job:
        """Submit an action on ``final_rdd``; returns the :class:`Job`
        whose ``done`` event fires (or fails) when the job ends.

        One job at a time (matching the paper's single-job scenarios).
        """
        if self._active_job is not None and self._active_job.finish_time is None:
            raise RuntimeError("a job is already running")
        job = Job(next(self._job_ids), final_rdd, self.env.now, Event(self.env))
        self._active_job = job
        result_stage = self._create_result_stage(final_rdd)
        job.stages = self._collect_stages(result_stage)
        self._record(EV_JOB_SUBMITTED, job=job.job_id,
                     stages=len(job.stages))
        self._submit_stage(result_stage)
        return job

    def _create_result_stage(self, rdd: RDD) -> Stage:
        stage = Stage(next(self._stage_ids), rdd)
        self._stage_by_id[stage.stage_id] = stage
        stage.parents = [self._get_or_create_shuffle_stage(dep, owner)
                         for owner, dep in self._incoming_deps(rdd)]
        return stage

    def _get_or_create_shuffle_stage(self, dep: ShuffleDependency,
                                     owner: RDD) -> Stage:
        existing = self._shuffle_stage_by_id.get(dep.shuffle_id)
        if existing is not None:
            return existing
        stage = Stage(next(self._stage_ids), dep.parent, out_dep=dep,
                      out_reducers=owner.num_partitions)
        self.task_scheduler.map_output_tracker.register_shuffle(
            dep.shuffle_id, dep.parent.num_partitions)
        self._shuffle_stage_by_id[dep.shuffle_id] = stage
        self._stage_by_id[stage.stage_id] = stage
        stage.parents = [self._get_or_create_shuffle_stage(d, o)
                         for o, d in self._incoming_deps(dep.parent)]
        return stage

    @staticmethod
    def _incoming_deps(rdd: RDD) -> List[Tuple[RDD, ShuffleDependency]]:
        """Shuffle dependencies feeding ``rdd``'s stage (owner, dep)."""
        out = []
        for node in rdd.narrow_ancestry():
            for dep in node.shuffle_deps:
                out.append((node, dep))
        return out

    @staticmethod
    def _collect_stages(result_stage: Stage) -> List[Stage]:
        seen: List[Stage] = []
        _visit_stages(result_stage, seen, set())
        return seen

    # ------------------------------------------------------------------
    # Stage submission
    # ------------------------------------------------------------------

    def _stage_output_complete(self, stage: Stage) -> bool:
        if stage.is_shuffle_map:
            return self.task_scheduler.map_output_tracker.is_complete(
                stage.out_dep.shuffle_id, stage.num_tasks)
        return len(stage.result_partitions) == stage.num_tasks

    def _submit_stage(self, stage: Stage) -> None:
        if stage in self._running:
            return
        missing_parents = [p for p in stage.parents
                           if not self._stage_output_complete(p)]
        if missing_parents:
            self._waiting.add(stage)
            for parent in missing_parents:
                self._submit_stage(parent)
            return
        self._waiting.discard(stage)
        self._submit_missing_tasks(stage)

    def _submit_missing_tasks(self, stage: Stage) -> None:
        tracker = self.task_scheduler.map_output_tracker
        if stage.is_shuffle_map:
            partitions = tracker.missing_partitions(
                stage.out_dep.shuffle_id, stage.num_tasks)
        else:
            partitions = [p for p in range(stage.num_tasks)
                          if p not in stage.result_partitions]
        if not partitions:
            self._on_stage_complete(stage)
            return
        stage.attempts += 1
        if stage.attempts > self._max_stage_attempts:
            self._fail_job(f"{stage.name} exceeded "
                           f"{self._max_stage_attempts} attempts")
            return
        specs = [self._build_spec(stage, p) for p in partitions]
        self._running.add(stage)
        self._record(EV_STAGE_SUBMITTED, stage=stage.name,
                     stage_id=stage.stage_id,
                     attempt=stage.attempts, tasks=len(specs))
        taskset = TaskSet(stage.stage_id, stage.attempts - 1, specs,
                          name=stage.name)
        taskset.listener = self
        taskset.schedulable = self.schedulable
        self.task_scheduler.submit_taskset(taskset)

    def _build_spec(self, stage: Stage, partition: int) -> TaskSpec:
        # Lineage, shuffle volumes and stage shape are immutable, so all
        # but the partition's compute costs and kind preference resolve
        # once per stage. The pipeline depends on the partition only via
        # its compute-cost tuple, so equal-cost partitions share one
        # (frozen) pipeline and its derived views; a skewed stage builds
        # two variants, its hot partition's and the rest's.
        template = getattr(stage, "_spec_template", None)
        if template is None:
            ancestry = tuple(stage.rdd.narrow_ancestry())
            tasks = stage.num_tasks
            reads = tuple((dep.shuffle_id, dep.total_bytes / tasks)
                          for _owner, dep in self._incoming_deps(stage.rdd))
            write = None
            reducers = 0
            if stage.is_shuffle_map:
                write = (stage.out_dep.shuffle_id, stage.out_dep.bytes_per_map)
                reducers = stage.out_reducers
            template = stage._spec_template = (
                ancestry, tasks, reads, write, reducers, {})
        ancestry, tasks, reads, write, reducers, variants = template
        costs = tuple([rdd.compute_seconds(partition) for rdd in ancestry])
        variant = variants.get(costs)
        pipeline = (variant[0] if variant is not None
                    else self._stage_pipeline(ancestry, partition))
        sized_for = None
        if stage.rdd.kind_preference is not None:
            sized_for = stage.rdd.kind_preference(partition)
        spec = TaskSpec(stage_id=stage.stage_id, partition=partition,
                        pipeline=pipeline, shuffle_reads=reads,
                        shuffle_write=write, shuffle_write_reducers=reducers,
                        stage_task_count=tasks, sized_for=sized_for)
        if variant is None:
            views = ("working_set_bytes", "cache_steps", "input_bytes_from",
                     "compute_seconds_from")
            variants[costs] = (pipeline, {view: getattr(spec, view)
                                          for view in views})
        else:
            spec.__dict__.update(variant[1])
        return spec

    @staticmethod
    def _stage_pipeline(ancestry, partition: int):
        return tuple(
            PipelineStep(rdd.rdd_id, rdd.name, rdd.compute_seconds(partition),
                         rdd.working_set_bytes, rdd.cached,
                         input_bytes=rdd.input_bytes / rdd.num_partitions)
            for rdd in ancestry)

    # ------------------------------------------------------------------
    # SchedulerListener callbacks
    # ------------------------------------------------------------------

    def on_task_finished(self, attempt: TaskAttempt) -> None:
        job = self._active_job
        if job is not None:
            job.task_attempts.append(attempt)
        stage = self._stage_by_id.get(attempt.spec.stage_id)
        if stage is not None and not stage.is_shuffle_map:
            stage.result_partitions.add(attempt.spec.partition)

    def on_task_failed(self, attempt: TaskAttempt) -> None:
        job = self._active_job
        if job is not None:
            job.failed_attempts.append(attempt)

    def on_taskset_complete(self, taskset: TaskSet) -> None:
        stage = self._stage_by_id.get(taskset.stage_id)
        if stage is None:  # pragma: no cover - defensive
            return
        self._running.discard(stage)
        if not self._stage_output_complete(stage):
            # Outputs were lost while the stage ran (executor death):
            # immediately re-run the missing partitions.
            self._record(EV_STAGE_OUTPUTS_LOST, stage=stage.name)
            self._submit_missing_tasks(stage)
            return
        self._on_stage_complete(stage)

    def _on_stage_complete(self, stage: Stage) -> None:
        self._running.discard(stage)
        self._record(EV_STAGE_COMPLETE, stage=stage.name,
                     stage_id=stage.stage_id)
        if not stage.is_shuffle_map:
            self._finish_job()
            return
        # Wake any waiting stages whose parents are now all complete.
        for waiting in sorted(self._waiting, key=lambda s: s.stage_id):
            if all(self._stage_output_complete(p) for p in waiting.parents):
                self._submit_stage(waiting)

    def on_fetch_failed(self, taskset: TaskSet, attempt: TaskAttempt,
                        error: FetchFailedError) -> None:
        stage = self._stage_by_id.get(taskset.stage_id)
        map_stage = self._shuffle_stage_by_id.get(error.shuffle_id)
        self._record(EV_FETCH_FAILED, stage=stage.name if stage else "?",
                     shuffle=error.shuffle_id)
        self.task_scheduler.remove_taskset(taskset)
        if stage is not None:
            self._running.discard(stage)
            self._waiting.add(stage)
        if map_stage is not None:
            self._submit_stage(map_stage)
        elif stage is not None:  # pragma: no cover - unknown shuffle
            self._fail_job(f"unrecoverable fetch failure in {stage.name}")

    def on_taskset_failed(self, taskset: TaskSet, reason: str) -> None:
        self._fail_job(reason)

    def on_executor_lost(self, executor, reason: str) -> None:
        # Lost map outputs are dropped by the task scheduler; affected
        # stages are re-run lazily when a reducer hits a fetch failure,
        # or eagerly at taskset completion (stage_outputs_lost above).
        self._record(EV_EXECUTOR_LOST, executor=executor.executor_id,
                     reason=reason)

    # ------------------------------------------------------------------
    # Job completion
    # ------------------------------------------------------------------

    def _finish_job(self) -> None:
        job = self._active_job
        if job is None or job.finish_time is not None:  # pragma: no cover
            return
        job.finish_time = self.env.now
        self._record(EV_JOB_COMPLETE, job=job.job_id, duration=job.duration)
        # No payload: the job holding an event that holds the job would
        # be a reference cycle. Waiters read the job they already hold.
        job.done.succeed(None)

    def _fail_job(self, reason: str) -> None:
        job = self._active_job
        if job is None or job.finish_time is not None:  # pragma: no cover
            return
        job.finish_time = self.env.now
        job.failed = True
        job.failure_reason = reason
        self._record(EV_JOB_FAILED, job=job.job_id, reason=reason)
        job.done.fail(JobFailedError(reason))

    def retire_shuffles(self) -> None:
        """The application is done: let the task scheduler retire every
        shuffle this scheduler declared. Only a pooled application may
        call this; a single driver's next job may reuse a shuffle."""
        self.task_scheduler.retire_shuffles(self.schedulable,
                                            self._shuffle_stage_by_id)

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_DAG, event, **fields)
