"""Task scheduling: TaskSets, delay scheduling, retries, decommission.

Mirrors Spark's ``TaskSchedulerImpl`` + ``TaskSetManager``:

- FIFO across task sets, cache-locality preference within one (delay
  scheduling with ``spark.locality.wait``);
- per-task retry accounting up to ``spark.task.maxFailures``;
- fetch failures zombify the task set and are escalated to the DAG
  scheduler (stage resubmission, not task retry);
- SplitServe's scheduler hook (§4.3): before offering a task to a
  Lambda-based executor, check how long it has been running; past
  ``spark.lambda.executor.timeout`` the executor is drained instead —
  it finishes its current work and is gracefully decommissioned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.observability.categories import (
    CAT_SCHEDULER,
    EV_BLACKLIST_SUPPRESSED,
    EV_EXECUTOR_BLACKLISTED,
    EV_EXECUTOR_DRAINED,
    EV_EXECUTOR_REGISTERED,
    EV_MAP_OUTPUTS_LOST,
    EV_SPECULATIVE_LAUNCH,
    EV_TASKSET_SUBMITTED,
)
from repro.spark.executor import (
    SPECULATION_CANCEL,
    Executor,
    ExecutorState,
    HostKind,
    release_holder,
)
from repro.spark.shuffle import (
    FetchFailedError,
    MapOutputTracker,
    ShuffleBackend,
)
from repro.spark.task import TaskAttempt, TaskSpec, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.config import SparkConf


class SchedulerListener:
    """Callbacks the DAG scheduler hooks into."""

    def on_task_finished(self, attempt: TaskAttempt) -> None:
        """A task attempt completed successfully."""

    def on_task_failed(self, attempt: TaskAttempt) -> None:
        """A task attempt failed or was killed (before any retry)."""

    def on_taskset_complete(self, taskset: "TaskSet") -> None:
        """Every partition of the task set has finished."""

    def on_taskset_failed(self, taskset: "TaskSet", reason: str) -> None:
        """A task exhausted its retries; the stage (and job) is dead."""

    def on_fetch_failed(self, taskset: "TaskSet", attempt: TaskAttempt,
                        error: FetchFailedError) -> None:
        """A reducer lost a shuffle input; stage-level recovery needed."""

    def on_executor_lost(self, executor: Executor, reason: str) -> None:
        """An executor died (host gone or hard-killed)."""


class TaskSet:
    """All tasks of one stage attempt, with retry bookkeeping."""

    def __init__(self, stage_id: int, attempt: int, specs: List[TaskSpec],
                 name: str = "") -> None:
        if not specs:
            raise ValueError("a TaskSet needs at least one task")
        self.stage_id = stage_id
        self.attempt = attempt
        self.name = name or f"stage-{stage_id}.{attempt}"
        self.specs: Dict[int, TaskSpec] = {s.partition: s for s in specs}
        self.pending: List[int] = sorted(self.specs)
        self.running: Dict[int, TaskAttempt] = {}
        self.finished: Set[int] = set()
        self.failure_counts: Dict[int, int] = {}
        self.attempt_counter: Dict[int, int] = {}
        #: A zombie set stops launching tasks (fetch failure or abort) but
        #: lets in-flight tasks finish, exactly like Spark's TaskSetManager.
        self.zombie = False
        #: Per-taskset listener (the submitting DAG scheduler): when set,
        #: the scheduler routes this set's lifecycle callbacks here instead
        #: of its primary listener, which is how one pooled scheduler
        #: serves many applications.
        self.listener: Optional[SchedulerListener] = None
        #: Opaque handle grouping the set under one schedulable entity
        #: (a ClusterApp in pooled mode, where every set has one); the
        #: scheduler pool reads it to keep per-application running-task
        #: counts.
        self.schedulable: Optional[object] = None
        #: True while the set is on its scheduler's live list: submitted,
        #: and not yet completed, failed or withdrawn.
        self.live = False
        self.submit_time: Optional[float] = None
        self.last_launch_time: Optional[float] = None
        #: partition -> sim-time it (re)became runnable; launch reads it
        #: to charge TaskMetrics.scheduler_delay_seconds.
        self.pending_since: Dict[int, float] = {}
        #: Fast path: task sets with no cached pipeline steps have no
        #: locality preferences, so task selection is O(1).
        self.has_cache_preferences = any(
            step.cache for spec in specs for step in spec.pipeline)
        #: Heterogeneity-aware sizing (§7): some tasks are sized for a
        #: specific executor kind.
        self.has_kind_preferences = any(
            spec.sized_for is not None for spec in specs)
        #: Speculation bookkeeping: completed attempt durations, and the
        #: second copies currently in flight per partition.
        self.finished_durations: List[float] = []
        self.speculative: Dict[int, TaskAttempt] = {}

    def median_duration(self) -> Optional[float]:
        if not self.finished_durations:
            return None
        ordered = sorted(self.finished_durations)
        return ordered[len(ordered) // 2]

    @property
    def is_complete(self) -> bool:
        return len(self.finished) == len(self.specs)

    @property
    def has_pending(self) -> bool:
        return bool(self.pending) and not self.zombie

    def requeue(self, partition: int) -> None:
        if partition not in self.pending:
            self.pending.append(partition)

    def next_attempt_number(self, partition: int) -> int:
        n = self.attempt_counter.get(partition, 0)
        self.attempt_counter[partition] = n + 1
        return n

    def describe(self) -> str:
        return (f"{self.name}: {len(self.finished)}/{len(self.specs)} done, "
                f"{len(self.running)} running, {len(self.pending)} pending")


class TaskScheduler:
    """Assigns tasks to free executors; owns the executor registry."""

    def __init__(
        self,
        env: "Environment",
        conf: "SparkConf",
        rng: "RandomStreams",
        shuffle_backend: ShuffleBackend,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.env = env
        self.conf = conf
        self.rng = rng
        self.shuffle_backend = shuffle_backend
        self.trace = trace
        #: The primary listener (a single driver's DAG scheduler); a
        #: pooled scheduler's task sets carry their own.
        self.listener = SchedulerListener()
        #: Additional listeners (fault injectors, recovery accounting)
        #: notified after the primary listener. Observers may implement
        #: any subset of the SchedulerListener methods.
        self.observers: List[object] = []
        self.executors: Dict[str, Executor] = {}
        #: ``(rdd_id, partition)`` -> how many registered executors cache
        #: it, whatever their host's state (no zero entries). Registration,
        #: removal and each executor's ``add_cached`` keep it current.
        self._cache_holders: Dict[Tuple[int, int], int] = {}
        self.map_output_tracker = MapOutputTracker()
        self.tasksets: List[TaskSet] = []
        self._locality_wait = float(conf.get("spark.locality.wait"))
        self._max_failures = int(conf.get("spark.task.maxFailures"))
        self._dispatch_scheduled = False
        self._speculation = bool(conf.get("spark.speculation"))
        self._speculation_quantile = float(
            conf.get("spark.speculation.quantile"))
        self._speculation_multiplier = float(
            conf.get("spark.speculation.multiplier"))
        self._speculation_interval = float(
            conf.get("spark.speculation.interval"))
        self._speculation_active = False
        # The Lambda-timeout knob is fixed at conf-construction time, so
        # it is read once here rather than per dispatch.
        _timeout = conf.get("spark.lambda.executor.timeout")
        self._lambda_timeout = None if _timeout is None else float(_timeout)
        self._blacklist_enabled = bool(conf.get("spark.blacklist.enabled"))
        self._blacklist_threshold = int(
            conf.get("spark.blacklist.maxFailedTasksPerExecutor"))
        #: Executor ids barred from receiving tasks (too many failures).
        self.blacklisted: Set[str] = set()
        #: Pooled schedulers re-sort the taskset order after every launch
        #: so shares rebalance at task grain; the single-driver scheduler
        #: keeps its historical greedy inner loop.
        self._resort_each_launch = False
        #: Pooled schedulers' :class:`~repro.cluster.pools.SchedulerPools`,
        #: told of every live task set added or dropped and every slot
        #: its attempts take or free (the FAIR order reads those counts).
        #: None on the single-driver scheduler.
        self.scheduler_pools = None
        #: How source RDD partitions reach executors: a callable
        #: ``(executor, nbytes) -> generator`` the scenario wires to its
        #: input store (worker-local HDFS for vanilla clusters, the
        #: shared HDFS node for SplitServe, S3 for Qubole). None models
        #: fully data-local input via the executor's own disk.
        self.input_reader = None

    def _notify(self, method: str, *args,
                taskset: Optional[TaskSet] = None) -> None:
        """Fan one listener callback out to the responsible listener and
        every observer (observers implementing only part of the protocol
        are fine).

        Taskset-scoped callbacks go to the set's own listener when one is
        attached (multi-application pools route each application's
        callbacks to its own DAG scheduler); otherwise — and for
        executor-level callbacks — the primary listener receives them.
        """
        target = self.listener
        if taskset is not None and taskset.listener is not None:
            target = taskset.listener
        getattr(target, method)(*args)
        for observer in list(self.observers):
            handler = getattr(observer, method, None)
            if handler is not None:
                handler(*args)

    def read_input(self, executor: Executor, nbytes: float):
        """Generator: deliver ``nbytes`` of source input to ``executor``."""
        if nbytes <= 0:
            return
        if self.input_reader is not None:
            yield from self.input_reader(executor, nbytes)
            return
        links = executor.disk_links() or executor.net_links()
        for link in links:
            yield link.transfer(nbytes)

    # ------------------------------------------------------------------
    # Executor registry
    # ------------------------------------------------------------------

    def register_executor(self, executor: Executor) -> None:
        if executor.executor_id in self.executors:
            raise ValueError(f"duplicate executor id {executor.executor_id}")
        self.executors[executor.executor_id] = executor
        holders = self._cache_holders
        for key in executor._cache:
            holders[key] = holders.get(key, 0) + 1
        executor.cache_holders = holders
        self._record(EV_EXECUTOR_REGISTERED, executor=executor.executor_id,
                     kind=executor.kind.value)
        self._dispatch()

    def decommission_executor(self, executor: Executor, graceful: bool = True,
                              reason: str = "decommission") -> None:
        """Graceful: drain. Hard: kill (tasks fail, local outputs lost)."""
        if graceful:
            executor.drain()
            if executor.is_idle:
                self._finalize_drained(executor)
        else:
            self._lose_executor(executor, reason)

    def _lose_executor(self, executor: Executor, reason: str) -> None:
        executor.kill(reason)  # interrupts the running task, if any
        self._unregister(executor)
        if not self.shuffle_backend.outputs_survive_executor_loss:
            lost = self.map_output_tracker.remove_outputs_on_executor(
                executor.executor_id)
            if lost:
                self._record(EV_MAP_OUTPUTS_LOST,
                             executor=executor.executor_id, count=lost)
        self._notify("on_executor_lost", executor, reason)
        self._dispatch()

    def _unregister(self, executor: Executor) -> None:
        """Drop ``executor``'s id from the registry, and the keys the
        executor held under it from the holder counts."""
        removed = self.executors.pop(executor.executor_id, None)
        if removed is None:
            return
        removed.cache_holders = None
        holders = self._cache_holders
        for key in removed._cache:
            release_holder(holders, key)

    def _finalize_drained(self, executor: Executor) -> None:
        self._unregister(executor)
        self._record(EV_EXECUTOR_DRAINED, executor=executor.executor_id,
                     kind=executor.kind.value)
        if executor.lambda_instance is not None:
            # The function on a drained Lambda executor returns: the
            # provider bills its container and takes it back warm.
            executor.lambda_instance.finish()

    @property
    def registered_executors(self) -> List[Executor]:
        return list(self.executors.values())

    def executor_counts(self) -> Dict[str, int]:
        """Live executors by host kind, e.g. {'vm': 2, 'lambda': 3}."""
        counts: Dict[str, int] = {}
        for ex in self.executors.values():
            counts[ex.kind.value] = counts.get(ex.kind.value, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Task set lifecycle
    # ------------------------------------------------------------------

    def submit_taskset(self, taskset: TaskSet) -> None:
        if self.scheduler_pools is not None:
            # First, so that a set the pool rejects (one that belongs to
            # no application) never joins the live list.
            self.scheduler_pools.add_taskset(taskset)
        taskset.submit_time = self.env.now
        for partition in taskset.pending:
            taskset.pending_since[partition] = self.env.now
        self.tasksets.append(taskset)
        taskset.live = True
        self._record(EV_TASKSET_SUBMITTED, taskset=taskset.name,
                     tasks=len(taskset.specs))
        if self._speculation and not self._speculation_active:
            self._speculation_active = True
            self.env.process(self._speculation_loop(
                self._speculation_interval))
        self._dispatch()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _holds_cached_step(self, executor: Executor, spec: TaskSpec) -> bool:
        """True when ``executor`` itself holds a cached partition for
        ``spec``."""
        cache = executor._cache
        partition = spec.partition
        for _i, step in spec.cache_steps:
            if (step.rdd_id, partition) in cache:
                return True
        return False

    def _anyone_holds_cached_step(self, spec: TaskSpec) -> bool:
        """True when any registered executor holds a cached partition for
        ``spec`` (the task has a locality preference): one holder-count
        lookup per cached step."""
        holders = self._cache_holders
        partition = spec.partition
        for _i, step in spec.cache_steps:
            if (step.rdd_id, partition) in holders:
                return True
        return False

    def _drain_overdue_lambdas(self) -> None:
        """SplitServe hook (§4.3): drain every free, non-blacklisted
        Lambda executor that has run past ``spark.lambda.executor.timeout``
        instead of offering it tasks. Called with the timeout set only."""
        timeout = self._lambda_timeout
        blacklisted = self.blacklisted
        for ex in list(self.executors.values()):
            if (ex.kind is HostKind.LAMBDA and ex.is_free
                    and ex.executor_id not in blacklisted
                    and ex.time_on_lambda >= timeout):
                ex.drain()
                self._finalize_drained(ex)

    def _free_executors(self) -> List[Executor]:
        """Executors that can take a task now, in registration order
        (``is_free`` inlined: a REGISTERED executor is not DEAD, so its
        host's running flag is the only liveness read needed)."""
        blacklisted = self.blacklisted
        registered = ExecutorState.REGISTERED
        return [ex for ex in self.executors.values()
                if ex.state is registered
                and ex.current is None
                and ex._host.is_running
                and ex.executor_id not in blacklisted]

    def _select_task(self, taskset: TaskSet, executor: Executor,
                     locality_relaxed: bool) -> Optional[int]:
        """Pick a pending partition for ``executor`` under delay
        scheduling. Returns the partition or None."""
        if taskset.has_kind_preferences:
            return self._select_sized_task(taskset, executor,
                                           locality_relaxed)
        if not taskset.has_cache_preferences:
            return taskset.pending[0] if taskset.pending else None
        no_pref_choice: Optional[int] = None
        any_choice: Optional[int] = None
        for partition in taskset.pending:
            spec = taskset.specs[partition]
            # Split the old build-the-whole-preferred-set probe into two
            # early-exit checks: "this executor holds it" (the return
            # case) and "anyone holds it" (only needed while a
            # no-preference fallback is still being sought).
            if self._holds_cached_step(executor, spec):
                return partition
            if no_pref_choice is None \
                    and not self._anyone_holds_cached_step(spec):
                no_pref_choice = partition
            if any_choice is None:
                any_choice = partition
        if no_pref_choice is not None:
            return no_pref_choice
        if locality_relaxed:
            return any_choice
        return None

    def _select_sized_task(self, taskset: TaskSet, executor: Executor,
                           locality_relaxed: bool) -> Optional[int]:
        """Heterogeneity-aware pick (§7): prefer a task sized for this
        executor's kind; after the locality wait, take anything."""
        kind = executor.kind.value
        fallback: Optional[int] = None
        for partition in taskset.pending:
            sized_for = taskset.specs[partition].sized_for
            if sized_for in (None, kind):
                return partition
            if fallback is None:
                fallback = partition
        return fallback if locality_relaxed else None

    def _schedulable_tasksets(self) -> Iterable[TaskSet]:
        """Task sets in offer order. The base scheduler is strict FIFO
        (submission order); pooled schedulers override this with their
        FAIR/FIFO pool policy, valid only until their next launch."""
        return self.tasksets

    def _dispatch(self) -> None:
        """Match free executors to pending tasks; defer for locality."""
        if self._lambda_timeout is not None:
            self._drain_overdue_lambdas()
        for taskset in self.tasksets:
            if taskset.pending and not taskset.zombie:
                break
        else:
            return  # nothing pending: the round would change nothing
        wake_in: Optional[float] = None
        resort = self._resort_each_launch
        free = self._free_executors()
        launched = True
        while launched and free:
            launched = False
            for taskset in self._schedulable_tasksets():
                if not taskset.has_pending:
                    continue
                reference = (taskset.last_launch_time
                             if taskset.last_launch_time is not None
                             else taskset.submit_time)
                remaining = self._locality_wait - (self.env.now - reference)
                relaxed = remaining <= 0
                for ex in list(free):
                    if not taskset.has_pending:
                        break
                    partition = self._select_task(taskset, ex, relaxed)
                    if partition is None:
                        if taskset.pending:
                            delay = max(0.001, remaining)
                            wake_in = delay if wake_in is None else min(wake_in, delay)
                        continue
                    free.remove(ex)
                    self._launch(taskset, partition, ex)
                    launched = True
                    if resort:
                        break
                if launched and resort:
                    # Re-enter the outer loop so running-task counts feed
                    # back into the pool ordering before the next offer.
                    break
            if launched and not resort:
                free = self._free_executors()
        if wake_in is not None:
            self._schedule_redispatch(wake_in)

    def _schedule_redispatch(self, delay: float) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True

        def wake(_event):
            self._dispatch_scheduled = False
            self._dispatch()

        self.env.timeout(delay).callbacks.append(wake)

    def _launch(self, taskset: TaskSet, partition: int, executor: Executor) -> None:
        taskset.pending.remove(partition)
        spec = taskset.specs[partition]
        attempt = TaskAttempt(spec, taskset.next_attempt_number(partition),
                              executor.executor_id, taskset=taskset)
        attempt.metrics.scheduler_delay_seconds = max(
            0.0, self.env.now - taskset.pending_since.get(partition,
                                                          self.env.now))
        # Slots are counted per entry: a retry that replaces a listed
        # attempt (one whose speculative copy failed) takes none.
        if (self.scheduler_pools is not None
                and partition not in taskset.running):
            self.scheduler_pools.occupy(taskset, 1)
        taskset.running[partition] = attempt
        taskset.last_launch_time = self.env.now
        executor.launch_task(attempt, self, self._on_task_finish)

    # ------------------------------------------------------------------
    # Speculative execution (Spark's straggler mitigation)
    # ------------------------------------------------------------------

    def _speculation_loop(self, interval: float):
        # Lazily started with the first task set; exits when the last
        # one completes so an idle scheduler holds no pending events.
        while self.tasksets:
            yield self.env.timeout(interval)
            if self._launch_speculative_copies():
                self._dispatch()
        self._speculation_active = False

    def _speculatable_partitions(self, taskset: TaskSet):
        """Partitions whose sole running attempt has outlived the
        multiplier x median of finished durations (and enough of the
        stage is done to trust the median)."""
        done_fraction = len(taskset.finished) / len(taskset.specs)
        if done_fraction < self._speculation_quantile:
            return []
        median = taskset.median_duration()
        if median is None:
            return []
        threshold = self._speculation_multiplier * median
        out = []
        for partition, attempt in taskset.running.items():
            if partition in taskset.speculative:
                continue
            age = self.env.now - attempt.metrics.launch_time
            if age > threshold:
                out.append(partition)
        return out

    def _launch_speculative_copies(self) -> bool:
        launched = False
        drain = self._lambda_timeout is not None
        for taskset in list(self.tasksets):
            if taskset.zombie:
                continue
            candidates = self._speculatable_partitions(taskset)
            if not candidates:
                continue
            if drain:
                # Before the round's first free scan, so an overdue
                # Lambda is drained, never handed a copy.
                self._drain_overdue_lambdas()
                drain = False
            free = self._free_executors()
            for partition in candidates:
                original = taskset.running.get(partition)
                if original is None:
                    continue
                host = next((ex for ex in free
                             if ex.executor_id != original.executor_id), None)
                if host is None:
                    break
                free.remove(host)
                spec = taskset.specs[partition]
                copy = TaskAttempt(spec, taskset.next_attempt_number(partition),
                                   host.executor_id, taskset=taskset)
                taskset.speculative[partition] = copy
                if self.scheduler_pools is not None:
                    self.scheduler_pools.occupy(taskset, 1)
                self._record(EV_SPECULATIVE_LAUNCH, task=spec.describe(),
                             executor=host.executor_id)
                host.launch_task(copy, self, self._on_task_finish)
                launched = True
        return launched

    def _cancel_losing_copy(self, taskset: TaskSet, partition: int,
                            winner: TaskAttempt) -> None:
        """The other in-flight copy of ``partition`` (if any) is aborted
        on its executor."""
        for loser in (taskset.running.get(partition),
                      taskset.speculative.get(partition)):
            if loser is None or loser is winner:
                continue
            executor = self.executors.get(loser.executor_id)
            if executor is not None:
                executor.kill_task(loser, SPECULATION_CANCEL)
        freed = ((taskset.running.pop(partition, None) is not None)
                 + (taskset.speculative.pop(partition, None) is not None))
        if freed and self.scheduler_pools is not None:
            self.scheduler_pools.occupy(taskset, -freed)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------

    def _taskset_for(self, attempt: TaskAttempt) -> Optional[TaskSet]:
        """The live task set still tracking ``attempt``: None once the
        set has left the live list, or when the attempt was cancelled or
        replaced there."""
        taskset = attempt.taskset
        if taskset is None or not taskset.live:
            return None
        partition = attempt.spec.partition
        if (taskset.running.get(partition) is attempt
                or taskset.speculative.get(partition) is attempt):
            return taskset
        return None

    def _on_task_finish(self, executor: Executor, attempt: TaskAttempt) -> None:
        taskset = self._taskset_for(attempt)
        # Finished attempts outlive their task set (jobs keep them for
        # metrics); drop the link so the set is not kept alive too.
        attempt.taskset = None
        if taskset is not None:
            partition = attempt.spec.partition
            if taskset.running.get(partition) is attempt:
                taskset.running.pop(partition, None)
            elif taskset.speculative.get(partition) is attempt:
                taskset.speculative.pop(partition, None)
            if self.scheduler_pools is not None:
                self.scheduler_pools.occupy(taskset, -1)
            self._handle_outcome(taskset, attempt)
        if executor.state is ExecutorState.DRAINING and executor.is_idle:
            self._finalize_drained(executor)
        self._dispatch()

    def _handle_outcome(self, taskset: TaskSet, attempt: TaskAttempt) -> None:
        partition = attempt.spec.partition
        if attempt.state is TaskState.FINISHED:
            if partition in taskset.finished:
                return  # the other speculated copy already won
            taskset.finished.add(partition)
            taskset.finished_durations.append(attempt.metrics.duration)
            self._cancel_losing_copy(taskset, partition, attempt)
            self._notify("on_task_finished", attempt, taskset=taskset)
            if taskset.is_complete:
                self._drop_taskset(taskset)
                self._notify("on_taskset_complete", taskset, taskset=taskset)
            return
        if partition in taskset.finished:
            return  # a cancelled speculation loser; not a real failure
        self._notify("on_task_failed", attempt, taskset=taskset)
        if isinstance(attempt.failure, FetchFailedError):
            # Stage-level problem: zombify and let the DAG scheduler
            # resubmit (lost map outputs must be recomputed first).
            taskset.zombie = True
            self._invalidate_unreachable_outputs(attempt.failure.shuffle_id)
            self._notify("on_fetch_failed", taskset, attempt, attempt.failure,
                         taskset=taskset)
            return
        # Plain failure/kill: retry up to the limit.
        if self._blacklist_enabled:
            executor = self.executors.get(attempt.executor_id)
            if (executor is not None
                    and executor.tasks_failed >= self._blacklist_threshold
                    and attempt.executor_id not in self.blacklisted):
                if self._has_other_live_executor(executor):
                    self.blacklisted.add(attempt.executor_id)
                    self._record(EV_EXECUTOR_BLACKLISTED,
                                 executor=attempt.executor_id,
                                 failures=executor.tasks_failed)
                else:
                    # Blacklisting the last live executor would leave
                    # every pending task set unschedulable (deadlock);
                    # keep it and let per-task retry accounting decide.
                    self._record(EV_BLACKLIST_SUPPRESSED,
                                 executor=attempt.executor_id,
                                 failures=executor.tasks_failed)
        count = taskset.failure_counts.get(partition, 0) + 1
        taskset.failure_counts[partition] = count
        if count >= self._max_failures:
            taskset.zombie = True
            self._drop_taskset(taskset)
            self._notify("on_taskset_failed",
                taskset,
                f"task {attempt.describe()} failed {count} times: "
                f"{attempt.failure}",
                taskset=taskset)
            return
        if not taskset.zombie:
            taskset.requeue(partition)
            taskset.pending_since[partition] = self.env.now

    def _invalidate_unreachable_outputs(self, shuffle_id: int) -> None:
        """Spark's ``unregisterMapOutput`` on fetch failure: drop map
        outputs whose serving executor is gone (drained or lost), so the
        resubmitted map stage actually recomputes them. Backends whose
        outputs survive executor loss keep every registration."""
        if self.shuffle_backend.outputs_survive_executor_loss:
            return
        for status in self.map_output_tracker.statuses(shuffle_id):
            executor = self.executors.get(status.executor_id)
            if executor is not None and executor.host_alive:
                continue
            lost = self.map_output_tracker.remove_outputs_on_executor(
                status.executor_id)
            if lost:
                self._record(EV_MAP_OUTPUTS_LOST,
                             executor=status.executor_id, count=lost)

    def _has_other_live_executor(self, executor: Executor) -> bool:
        """True if any *other* registered, alive, non-blacklisted executor
        could still take tasks."""
        for other in self.executors.values():
            if other is executor:
                continue
            if other.executor_id in self.blacklisted:
                continue
            if other.state is ExecutorState.REGISTERED and other.host_alive:
                return True
        return False

    # ------------------------------------------------------------------

    def retire_shuffles(self, schedulable: object,
                        shuffle_ids: Iterable[int]) -> None:
        """Retire a finished application's shuffles in the tracker, once
        none of its task sets is live and none of its attempts is in
        flight: until then a task of it could still read or write them,
        so they are kept."""
        for taskset in self.tasksets:
            if taskset.schedulable is schedulable:
                return
        for executor in self.executors.values():
            attempt = executor.current
            if attempt is not None:
                taskset = attempt.taskset
                if taskset is not None and taskset.schedulable is schedulable:
                    return
        self.map_output_tracker.retire_shuffles(shuffle_ids)

    def remove_taskset(self, taskset: TaskSet) -> None:
        """Withdraw a (typically zombie) task set from scheduling."""
        if taskset.live:
            self._drop_taskset(taskset)

    def _drop_taskset(self, taskset: TaskSet) -> None:
        self.tasksets.remove(taskset)
        taskset.live = False
        if self.scheduler_pools is not None:
            self.scheduler_pools.drop_taskset(taskset)

    def _record(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_SCHEDULER, event, **fields)
