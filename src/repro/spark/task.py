"""Tasks: the unit of work executors run.

A :class:`TaskSpec` is the immutable description of one partition's work
within a stage (its compute pipeline, shuffle input/output volumes); a
:class:`TaskAttempt` is one execution of it on a concrete executor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.task_scheduler import TaskSet


class _lazy:
    """Lock-free ``cached_property``: first access computes the value and
    stores it in the instance ``__dict__``, shadowing this non-data
    descriptor so later reads are plain attribute hits. This Python's
    ``functools.cached_property`` takes a lock on *every* access, which
    the per-task hot path pays several times per spec — hence the local
    variant. Works on frozen dataclasses for the same reason
    ``cached_property`` does: it writes ``__dict__`` directly, and
    dataclass eq/hash only consult declared fields."""

    __slots__ = ("func", "name")

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        obj.__dict__[self.name] = value
        return value


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"


@dataclass(frozen=True)
class PipelineStep:
    """One RDD's contribution to a task's in-stage pipeline.

    Steps are ordered upstream-to-downstream. If ``cache`` is set and the
    executor holds the cached partition, this step and everything before
    it is skipped (that is what a cache hit means).
    """

    rdd_id: int
    rdd_name: str
    compute_seconds: float
    working_set_bytes: float
    cache: bool
    #: Bytes read from the cluster input store when this step executes
    #: (re-paid on every cache miss — re-ingest is I/O too).
    input_bytes: float = 0.0


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one task."""

    stage_id: int
    partition: int
    pipeline: Tuple[PipelineStep, ...]
    #: Incoming shuffles: (shuffle_id, bytes this reduce partition fetches).
    shuffle_reads: Tuple[Tuple[int, float], ...] = ()
    #: Outgoing shuffle: (shuffle_id, bytes this map task writes), or None.
    shuffle_write: Optional[Tuple[int, float]] = None
    #: Number of reduce partitions of the outgoing shuffle (for external
    #: backends that store one object per (map, reduce) pair).
    shuffle_write_reducers: int = 0
    #: Task count of the owning stage (= reducer count for the incoming
    #: shuffles); used by consistency/throttling models.
    stage_task_count: int = 1
    #: Heterogeneity-aware sizing (§7): the executor kind this task's
    #: size was chosen for ("vm" | "lambda"), or None for uniform tasks.
    sized_for: "str | None" = None

    # The executor's inner loop touches these once per task attempt (and
    # the scheduler once per dispatch probe), so the derived views are
    # cached_property: computed on first use, then a plain __dict__ read.
    # The dataclass is frozen, but cached_property writes the instance
    # __dict__ directly, and dataclass eq/hash only consult declared
    # fields — the caches never leak into identity.

    @_lazy
    def working_set_bytes(self) -> float:
        """Peak per-task working set (max across pipeline steps)."""
        if not self.pipeline:
            return 0.0
        return max(step.working_set_bytes for step in self.pipeline)

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_write is not None

    @_lazy
    def cache_steps(self) -> Tuple[Tuple[int, "PipelineStep"], ...]:
        """(pipeline index, step) for every ``cache``-enabled step —
        what the cache-hit scan and locality preference actually need,
        empty for cache-free workloads so both short-circuit."""
        return tuple((i, step) for i, step in enumerate(self.pipeline)
                     if step.cache)

    @_lazy
    def input_bytes_from(self) -> Tuple[float, ...]:
        """Suffix sums: ``input_bytes_from[i]`` is the input volume of
        ``pipeline[i:]`` — the live-step input after a cache hit at
        ``i-1`` (index 0 = no hit, last index = full hit). Each entry is
        a fresh left-to-right ``sum`` so float rounding is bit-identical
        to summing the live slice inline (suffix accumulation would add
        in the opposite order)."""
        pipe = self.pipeline
        return tuple(sum(step.input_bytes for step in pipe[i:])
                     for i in range(len(pipe) + 1))

    @_lazy
    def compute_seconds_from(self) -> Tuple[float, ...]:
        """Suffix sums of ``compute_seconds`` (same layout and rounding
        contract as :attr:`input_bytes_from`)."""
        pipe = self.pipeline
        return tuple(sum(step.compute_seconds for step in pipe[i:])
                     for i in range(len(pipe) + 1))

    @_lazy
    def _description(self) -> str:
        return f"stage{self.stage_id}/p{self.partition}"

    def describe(self) -> str:
        return self._description


#: Nominal bytes per record for the records-in/out proxy. The simulation
#: models volumes, not rows; dividing by a fixed record size yields
#: record counts that are comparable across stages and runs (Spark's
#: recordsRead/recordsWritten play the same comparative role).
NOMINAL_RECORD_BYTES = 256.0


@dataclass(slots=True)
class TaskMetrics:
    """Spark-style per-attempt breakdown, for analysis and timelines.

    Mirrors Spark's ``TaskMetrics`` where the simulation has a
    counterpart: ``fetch_seconds``/``write_seconds`` ≈ shuffle
    read/write time (aliased below under the Spark names),
    ``gc_overhead_seconds`` is the GC proxy, ``scheduler_delay_seconds``
    is runnable→launched wait. ``deserialize_seconds``
    (executorDeserializeTime) and ``spill_seconds`` exist for schema
    parity and stay 0: no per-task bootstrap is modelled, and this
    engine models memory pressure as GC slowdown, not disk spill.
    """

    launch_time: float = 0.0
    finish_time: float = 0.0
    scheduler_delay_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    fetch_seconds: float = 0.0
    input_seconds: float = 0.0
    compute_seconds: float = 0.0
    gc_overhead_seconds: float = 0.0
    write_seconds: float = 0.0
    spill_seconds: float = 0.0
    shuffle_read_bytes: float = 0.0
    shuffle_write_bytes: float = 0.0
    input_bytes: float = 0.0
    records_in: int = 0
    records_out: int = 0
    cache_hit: bool = False

    @property
    def duration(self) -> float:
        return max(0.0, self.finish_time - self.launch_time)

    @property
    def run_seconds(self) -> float:
        """On-executor work time (Spark's executorRunTime): everything
        between launch and finish except the bootstrap."""
        return (self.fetch_seconds + self.input_seconds
                + self.compute_seconds + self.write_seconds)

    # Spark-vocabulary aliases over the engine's historical field names.

    @property
    def shuffle_read_seconds(self) -> float:
        return self.fetch_seconds

    @property
    def shuffle_write_seconds(self) -> float:
        return self.write_seconds

    def to_dict(self) -> dict:
        """Flat full-precision dict (derived fields included)."""
        return {
            "launch_time": self.launch_time,
            "finish_time": self.finish_time,
            "duration": self.duration,
            "scheduler_delay_seconds": self.scheduler_delay_seconds,
            "deserialize_seconds": self.deserialize_seconds,
            "run_seconds": self.run_seconds,
            "shuffle_read_seconds": self.shuffle_read_seconds,
            "input_seconds": self.input_seconds,
            "compute_seconds": self.compute_seconds,
            "gc_overhead_seconds": self.gc_overhead_seconds,
            "shuffle_write_seconds": self.shuffle_write_seconds,
            "spill_seconds": self.spill_seconds,
            "shuffle_read_bytes": self.shuffle_read_bytes,
            "shuffle_write_bytes": self.shuffle_write_bytes,
            "input_bytes": self.input_bytes,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "cache_hit": self.cache_hit,
        }


@dataclass(eq=False, slots=True)  # identity semantics: tracked by object
class TaskAttempt:
    """One execution of a :class:`TaskSpec` on an executor."""

    spec: TaskSpec
    attempt: int
    executor_id: str
    state: TaskState = TaskState.PENDING
    metrics: TaskMetrics = field(default_factory=TaskMetrics)
    failure: Optional[BaseException] = None
    #: The task set that launched this attempt, for the scheduler's
    #: finish-time lookup; cleared once the attempt has finished.
    taskset: Optional["TaskSet"] = field(default=None, repr=False)

    def describe(self) -> str:
        return f"{self.spec.describe()}#a{self.attempt}@{self.executor_id}"
