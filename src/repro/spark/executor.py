"""Executors: the distributed agents that run tasks.

An executor lives on a host — cores of a VM, or one Lambda container —
and runs one task at a time (the paper assigns one core per executor
throughout, §5.1). The executor model captures the asymmetries the paper
exploits and suffers from:

- **CPU speed**: Lambda executors get ``cpu_share`` of a vCPU
  (memory-indexed); VM executors get a full core.
- **Memory/GC**: service times are inflated by
  :func:`repro.spark.memory.gc_slowdown` using the executor's heap and
  uptime — the mechanism behind the Lambda timeout knob.
- **I/O paths**: shuffle traffic crosses the host's fair-share links
  (VM: EBS + NIC; Lambda: its memory-proportional NIC).
- **Cache**: computed partitions of ``.cache()``-ed RDDs register here,
  which feeds locality preferences (and the paper's observation that VM
  autoscaling helps little once "a large fraction of the tasks have
  already been scheduled on the existing executors").
- **Decommissioning**: graceful drain (stop accepting tasks, finish the
  current one) vs hard kill (current task fails; with a local shuffle
  backend, its map outputs are lost → rollback).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.observability.categories import (
    CAT_EXECUTOR,
    EV_CACHE_EVICT,
    EV_DEAD,
    EV_DRAINING,
    EV_REGISTERED,
    EV_TASK_END,
    EV_TASK_START,
)
from repro.simulation.events import Interrupt
from repro.spark.memory import (
    COMFORTABLE_HEAP_BYTES,
    gc_slowdown,
    usable_heap_bytes,
)
from repro.spark.shuffle import FetchFailedError, MapStatus
from repro.spark.task import NOMINAL_RECORD_BYTES, TaskAttempt, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.lambda_fn import LambdaInstance
    from repro.cloud.network import FairShareLink
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.config import SparkConf
    from repro.spark.task_scheduler import TaskScheduler


class HostKind(enum.Enum):
    VM = "vm"
    LAMBDA = "lambda"


class ExecutorState(enum.Enum):
    REGISTERED = "registered"
    DRAINING = "draining"  # graceful decommission: no new tasks
    DEAD = "dead"


class ExecutorKilledError(RuntimeError):
    """The executor was killed while running a task."""


#: Interrupt cause marking a speculation loser's cancellation - not a
#: fault of the executor, so it never counts toward blacklisting.
SPECULATION_CANCEL = "speculation: other copy won"

#: Interrupt cause used when the provider reaps a Lambda at its 15-minute
#: lifetime cap (§3). The driver's expiry watcher and the executor's
#: blacklist accounting must agree on this string.
LAMBDA_EXPIRY_REASON = "lambda lifetime expired"

#: Kill causes that are infrastructure events, not task failures: they
#: never increment ``tasks_failed`` toward the blacklist threshold.
NON_CULPABLE_KILL_CAUSES = frozenset({
    SPECULATION_CANCEL,
    LAMBDA_EXPIRY_REASON,
})


def release_holder(holders: Dict[Tuple[int, int], int],
                   key: Tuple[int, int]) -> None:
    """Drop one holder of ``key`` from a holder-count index: a dict of
    ``(rdd_id, partition)`` -> how many registered executors cache it,
    with no zero entries."""
    count = holders[key] - 1
    if count:
        holders[key] = count
    else:
        del holders[key]


class Executor:
    """An executor on a VM or a Lambda.

    The paper assigns one core per executor throughout (§5.1, footnote 7)
    and that is the default here, but ``cores`` generalizes to the
    multi-core executors footnote 7 anticipates: an executor runs up to
    ``cores`` tasks concurrently, sharing its heap.
    """

    def __init__(
        self,
        env: "Environment",
        executor_id: str,
        kind: HostKind,
        conf: "SparkConf",
        rng: "RandomStreams",
        vm: Optional["VirtualMachine"] = None,
        lambda_instance: Optional["LambdaInstance"] = None,
        memory_bytes: Optional[float] = None,
        trace: Optional["TraceRecorder"] = None,
        cores: int = 1,
    ) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        if kind is HostKind.VM and vm is None:
            raise ValueError("VM executor needs a vm")
        if kind is HostKind.LAMBDA and lambda_instance is None:
            raise ValueError("Lambda executor needs a lambda_instance")
        self.env = env
        self.executor_id = executor_id
        self.kind = kind
        self.conf = conf
        self.rng = rng
        self.vm = vm
        self.lambda_instance = lambda_instance
        self._trace = trace
        self.state = ExecutorState.REGISTERED
        self.registered_time = env.now

        if kind is HostKind.VM:
            self.cpu_speed = 1.0
            self.memory_bytes = float(
                memory_bytes if memory_bytes is not None
                else conf.get("spark.executor.memory.vm"))
        else:
            self.cpu_speed = lambda_instance.config.cpu_share
            self.memory_bytes = float(
                memory_bytes if memory_bytes is not None
                else lambda_instance.config.memory_bytes)

        self.cores = int(cores)
        # Hot-path caches: the per-task jitter knob and the burstable-CPU
        # hook are fixed for the executor's lifetime; resolving them per
        # task was a measurable share of ``_execute``.
        self._task_jitter = float(conf.get("spark.sim.task.jitter"))
        self._consume_cpu = getattr(vm, "consume_cpu", None)
        # GC fast path: a comfortable heap whose live working set fits
        # pays no slowdown, so the per-task check collapses to two
        # comparisons. The fallback recomputes the full model, so a
        # borderline float only changes which path computes the (same)
        # answer, never the answer itself.
        self._usable_heap_bytes = usable_heap_bytes(self.memory_bytes)
        self._gc_comfortable = self.memory_bytes >= COMFORTABLE_HEAP_BYTES
        # Host identity and I/O paths are fixed for the executor's
        # lifetime (links are created once in the host's __init__), so
        # the shuffle fetch loop reads plain attributes instead of
        # re-deriving them per map-output batch.
        if kind is HostKind.VM:
            self._host = vm
            self.host_name: str = vm.name
            self._disk_links: Tuple["FairShareLink", ...] = (vm.ebs_link,)
            self._net_links: Tuple["FairShareLink", ...] = (vm.net_link,)
        else:
            self._host = lambda_instance
            self.host_name = lambda_instance.name
            self._disk_links = ()
            self._net_links = (lambda_instance.net_link,)
        #: Straggler multiplier (>= 1) on compute demand; set by a fault
        #: injector for its window, applied to tasks launched while
        #: active.
        self.cpu_slowdown = 1.0
        self._record_base = {"executor": self.executor_id,
                             "kind": self.kind.value,
                             "host": self.host_name}
        self._cache: Dict[Tuple[int, int], float] = {}
        #: The holder counts of the scheduler this executor is registered
        #: with (see :func:`release_holder`), kept current as the cache
        #: gains and evicts keys; None while unregistered.
        self.cache_holders: Optional[Dict[Tuple[int, int], int]] = None
        #: In-flight attempts -> their simulation processes.
        self._tasks: Dict[TaskAttempt, object] = {}
        self.tasks_finished = 0
        self.tasks_failed = 0
        self._record(EV_REGISTERED)

    # ------------------------------------------------------------------
    # Host properties
    # ------------------------------------------------------------------

    @property
    def host_alive(self) -> bool:
        return (self.state is not ExecutorState.DEAD
                and self._host.is_running)

    def disk_links(self) -> Tuple["FairShareLink", ...]:
        """Links local writes/reads cross (Lambda /tmp is memory-fast)."""
        return self._disk_links

    def net_links(self) -> Tuple["FairShareLink", ...]:
        """Links remote transfers cross on this executor's side."""
        return self._net_links

    @property
    def uptime(self) -> float:
        return self.env.now - self.registered_time

    @property
    def time_on_lambda(self) -> float:
        """Seconds since the backing Lambda started running (0 for VMs).

        This is the quantity compared against
        ``spark.lambda.executor.timeout`` (§4.3: the scheduler "checks how
        long they have been running for by comparing the current time
        against the timestamp recorded at executor registration").
        """
        if self.kind is not HostKind.LAMBDA:
            return 0.0
        return self.uptime

    @property
    def running_tasks(self) -> int:
        return len(self._tasks)

    @property
    def current(self) -> Optional[TaskAttempt]:
        """The running attempt, when at most one is in flight (the
        single-core common case); an arbitrary one otherwise."""
        return next(iter(self._tasks), None)

    @property
    def active_attempts(self) -> List[TaskAttempt]:
        """Snapshot of in-flight attempts. After :meth:`kill`, interrupts
        are delivered through the event queue, so this is still populated
        when ``on_executor_lost`` observers run — recovery accounting
        reads the doomed work here."""
        return list(self._tasks)

    @property
    def is_idle(self) -> bool:
        return not self._tasks

    @property
    def is_free(self) -> bool:
        """Accepting tasks: registered, alive, with a free core."""
        # REGISTERED already implies not DEAD, so the host flag is the
        # only aliveness read needed (and it is a plain attribute).
        return (self.state is ExecutorState.REGISTERED
                and len(self._tasks) < self.cores
                and self._host.is_running)

    def same_host(self, other: "Executor") -> bool:
        """True when both executors share a VM (intra-host data paths)."""
        return (self.kind is HostKind.VM and other.kind is HostKind.VM
                and self.vm is other.vm)

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    #: Fraction of the usable heap reserved for persisted partitions
    #: (Spark's spark.memory.storageFraction spirit).
    STORAGE_FRACTION = 0.5

    @property
    def storage_limit_bytes(self) -> float:
        return self._usable_heap_bytes * self.STORAGE_FRACTION

    def has_cached(self, rdd_id: int, partition: int) -> bool:
        return (rdd_id, partition) in self._cache

    def touch_cached(self, rdd_id: int, partition: int) -> None:
        """LRU touch: mark the partition most-recently-used."""
        key = (rdd_id, partition)
        value = self._cache.pop(key, None)
        if value is not None:
            self._cache[key] = value

    def add_cached(self, rdd_id: int, partition: int, nbytes: float = 0.0) -> None:
        """Persist a partition, evicting LRU entries past the storage
        limit. A partition larger than the whole limit is not cached at
        all (it would only thrash) — the next use recomputes it, exactly
        Spark's behaviour when the storage region cannot hold a block."""
        if nbytes > self.storage_limit_bytes:
            return
        key = (rdd_id, partition)
        cache = self._cache
        holders = self.cache_holders
        if holders is not None and key not in cache:
            holders[key] = holders.get(key, 0) + 1
        cache[key] = nbytes
        while self.cached_bytes > self.storage_limit_bytes and len(cache) > 1:
            oldest = next(iter(cache))
            if oldest == key:
                break
            cache.pop(oldest)
            if holders is not None:
                release_holder(holders, oldest)
            self._record(EV_CACHE_EVICT, rdd=oldest[0], partition=oldest[1])

    @property
    def cached_bytes(self) -> float:
        """Heap consumed by persisted partitions. An executor hoarding
        many cached partitions (few executors, many partitions) pays GC
        pressure on every task — the mechanism behind the paper's 10x
        K-means degradation on an under-provisioned cluster."""
        return sum(self._cache.values())

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def launch_task(self, attempt: TaskAttempt, scheduler: "TaskScheduler",
                    on_finish: Callable[["Executor", TaskAttempt], None]) -> None:
        """Begin running ``attempt``; ``on_finish`` is called either way."""
        if not self.is_free:
            raise RuntimeError(f"{self.executor_id} is not free")
        attempt.state = TaskState.RUNNING
        attempt.metrics.launch_time = self.env.now
        self._record(EV_TASK_START, task=attempt.spec.describe(),
                     attempt=attempt.attempt)
        self._tasks[attempt] = self.env.process(
            self._execute(attempt, scheduler, on_finish))

    def _execute(self, attempt: TaskAttempt, scheduler: "TaskScheduler",
                 on_finish: Callable[["Executor", TaskAttempt], None]):
        spec = attempt.spec
        metrics = attempt.metrics
        try:
            # ---- Fetch phase: pull shuffle inputs. ----
            fetch_start = self.env.now
            for shuffle_id, nbytes in spec.shuffle_reads:
                tracker = scheduler.map_output_tracker
                missing = tracker.first_missing_partition(shuffle_id)
                if missing is not None:
                    # A map output vanished after the stage was submitted
                    # (its executor died): classic FetchFailed.
                    raise FetchFailedError(shuffle_id, missing,
                                           "map output missing")
                yield from scheduler.shuffle_backend.fetch(
                    self, shuffle_id, spec.partition, nbytes,
                    spec.stage_task_count, tracker, scheduler.executors)
                metrics.shuffle_read_bytes += nbytes
            metrics.fetch_seconds = self.env.now - fetch_start

            # ---- Compute phase: run the pipeline after any cache hit. ----
            # The last cached step we hold wins; every held cached step
            # gets its LRU touch. ``cache_steps`` is empty for cache-free
            # workloads, so this is usually a no-op.
            skip_until = -1
            partition = spec.partition
            for i, step in spec.cache_steps:
                if (step.rdd_id, partition) in self._cache:
                    skip_until = i
                    self.touch_cached(step.rdd_id, partition)
            live_from = skip_until + 1
            metrics.cache_hit = skip_until >= 0
            input_bytes = spec.input_bytes_from[live_from]
            if input_bytes > 0:
                input_start = self.env.now
                yield from scheduler.read_input(self, input_bytes)
                metrics.input_seconds = self.env.now - input_start
                metrics.input_bytes = input_bytes
            base = spec.compute_seconds_from[live_from]
            base /= self.cpu_speed
            base *= self.cpu_slowdown
            concurrent_ws = sum([a.spec.working_set_bytes
                                 for a in self._tasks])
            live_bytes = concurrent_ws + self.cached_bytes
            if self._gc_comfortable and live_bytes <= self._usable_heap_bytes:
                slowdown = 1.0
            else:
                slowdown = gc_slowdown(
                    live_bytes, self.memory_bytes, self.uptime)
            demand = base * slowdown
            if self._consume_cpu is not None:
                # Burstable host: credits convert demand into wall time.
                demand = self._consume_cpu(demand)
            service = self.rng.uniform_jitter("task.jitter", demand,
                                              self._task_jitter) if base > 0 else 0.0
            compute_start = self.env.now
            if service > 0:
                yield self.env.timeout(service)
            metrics.compute_seconds = self.env.now - compute_start
            metrics.gc_overhead_seconds = max(0.0, base * (slowdown - 1.0))
            for i, step in spec.cache_steps:
                if i >= live_from:
                    self.add_cached(step.rdd_id, partition,
                                    step.working_set_bytes)

            # ---- Write phase: persist the map output. ----
            if spec.shuffle_write is not None:
                shuffle_id, nbytes = spec.shuffle_write
                write_start = self.env.now
                yield from scheduler.shuffle_backend.write(
                    self, shuffle_id, spec.partition, nbytes,
                    spec.shuffle_write_reducers)
                metrics.write_seconds = self.env.now - write_start
                metrics.shuffle_write_bytes = nbytes
                scheduler.map_output_tracker.register(MapStatus(
                    shuffle_id, spec.partition, self.executor_id, nbytes))

            attempt.state = TaskState.FINISHED
            self.tasks_finished += 1
        except Interrupt as intr:
            attempt.state = TaskState.KILLED
            attempt.failure = ExecutorKilledError(str(intr.cause))
            if str(intr.cause) not in NON_CULPABLE_KILL_CAUSES:
                self.tasks_failed += 1
        except FetchFailedError as exc:
            attempt.state = TaskState.FAILED
            # Without its traceback: the traceback holds this frame,
            # which holds the attempt, a cycle.
            attempt.failure = exc.with_traceback(None)
            self.tasks_failed += 1
        # Deliberately not a finally: block — if the simulation is torn
        # down mid-task, the generator's GeneratorExit must not fire
        # scheduler callbacks.
        metrics.finish_time = self.env.now
        metrics.records_in = int((metrics.shuffle_read_bytes
                                  + metrics.input_bytes)
                                 // NOMINAL_RECORD_BYTES)
        metrics.records_out = int(metrics.shuffle_write_bytes
                                  // NOMINAL_RECORD_BYTES)
        self._tasks.pop(attempt, None)
        self._record(EV_TASK_END, task=spec.describe(),
                     stage=spec.stage_id,
                     state=attempt.state.value,
                     duration=metrics.duration)
        on_finish(self, attempt)

    # ------------------------------------------------------------------
    # Decommissioning
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Graceful decommission: stop accepting tasks, finish the current
        one (SplitServe's segue path — §4.3: "simply stops directing
        additional tasks ... and get gracefully decommissioned")."""
        if self.state is ExecutorState.REGISTERED:
            self.state = ExecutorState.DRAINING
            self._record(EV_DRAINING)

    def kill_task(self, attempt: TaskAttempt,
                  reason: str = "task killed") -> None:
        """Abort one running attempt without killing the executor (used
        to cancel the losing copy of a speculated task)."""
        process = self._tasks.get(attempt)
        if process is not None and process.is_alive:
            process.interrupt(cause=reason)

    def kill(self, reason: str = "killed") -> None:
        """Hard kill: the current task dies; local shuffle output on the
        executor is gone (the rollback-triggering path)."""
        if self.state is ExecutorState.DEAD:
            return
        self.state = ExecutorState.DEAD
        for process in list(self._tasks.values()):
            if process.is_alive:
                process.interrupt(cause=reason)
        self._record(EV_DEAD, reason=reason)

    def _record(self, event: str, **fields) -> None:
        trace = self._trace
        if trace is not None:
            # The identity triple is fixed for the executor's lifetime;
            # merging the precomputed base dict and handing the result
            # to record_packed skips a kwargs repack per event (the
            # merge allocates a fresh dict, as record_packed requires).
            trace.record_packed(self.env.now, CAT_EXECUTOR, event,
                                {**self._record_base, **fields})

    def __repr__(self) -> str:
        return (f"<Executor {self.executor_id} {self.kind.value} "
                f"{self.state.value}>")
