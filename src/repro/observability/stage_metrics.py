"""Spark-style aggregation of per-task metrics.

:class:`~repro.spark.task.TaskMetrics` carries the per-attempt
breakdown; this module rolls attempts up per stage
(:class:`StageMetrics`), per executor, and per resource kind — the
groupings the paper's figures reason about (stage spans,
Lambda-vs-VM work split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.dag_scheduler import Job
    from repro.spark.task import TaskAttempt


@dataclass
class StageMetrics:
    """Aggregated TaskMetrics over one group of attempts (a stage, an
    executor, or a resource kind)."""

    key: str
    tasks: int = 0
    run_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    shuffle_read_seconds: float = 0.0
    shuffle_write_seconds: float = 0.0
    spill_seconds: float = 0.0
    gc_seconds: float = 0.0
    scheduler_delay_seconds: float = 0.0
    shuffle_read_bytes: float = 0.0
    shuffle_write_bytes: float = 0.0
    input_bytes: float = 0.0
    records_in: int = 0
    records_out: int = 0
    cache_hits: int = 0
    #: Sim-time bounds of the group's successful attempts (first launch
    #: → last finish). They feed the hashed ``stage.*`` RunRecord
    #: metrics (``duration_seconds``), so they stay beside the event-log
    #: spans of :func:`repro.observability.spans.run_spans`.
    first_launch: float = field(default=float("inf"))
    last_finish: float = 0.0

    def add(self, attempt: "TaskAttempt") -> None:
        m = attempt.metrics
        self.tasks += 1
        self.run_seconds += m.run_seconds
        self.deserialize_seconds += m.deserialize_seconds
        self.shuffle_read_seconds += m.shuffle_read_seconds
        self.shuffle_write_seconds += m.shuffle_write_seconds
        self.spill_seconds += m.spill_seconds
        self.gc_seconds += m.gc_overhead_seconds
        self.scheduler_delay_seconds += m.scheduler_delay_seconds
        self.shuffle_read_bytes += m.shuffle_read_bytes
        self.shuffle_write_bytes += m.shuffle_write_bytes
        self.input_bytes += m.input_bytes
        self.records_in += m.records_in
        self.records_out += m.records_out
        self.cache_hits += 1 if m.cache_hit else 0
        if m.launch_time < self.first_launch:
            self.first_launch = m.launch_time
        if m.finish_time > self.last_finish:
            self.last_finish = m.finish_time

    @property
    def duration_seconds(self) -> float:
        """Wall-clock span of the group (0 if empty)."""
        if self.tasks == 0:
            return 0.0
        return max(0.0, self.last_finish - self.first_launch)

    def to_dict(self) -> Dict[str, float]:
        return {
            "tasks": self.tasks,
            "duration_seconds": self.duration_seconds,
            "run_seconds": self.run_seconds,
            "deserialize_seconds": self.deserialize_seconds,
            "shuffle_read_seconds": self.shuffle_read_seconds,
            "shuffle_write_seconds": self.shuffle_write_seconds,
            "spill_seconds": self.spill_seconds,
            "gc_seconds": self.gc_seconds,
            "scheduler_delay_seconds": self.scheduler_delay_seconds,
            "shuffle_read_bytes": self.shuffle_read_bytes,
            "shuffle_write_bytes": self.shuffle_write_bytes,
            "input_bytes": self.input_bytes,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "cache_hits": self.cache_hits,
        }


def aggregate_attempts(attempts: List["TaskAttempt"],
                       key: Callable[["TaskAttempt"], str]
                       ) -> Dict[str, StageMetrics]:
    """Group attempts by ``key`` and aggregate, keyed in sorted order."""
    groups: Dict[str, StageMetrics] = {}
    for attempt in attempts:
        k = str(key(attempt))
        group = groups.get(k)
        if group is None:
            group = groups[k] = StageMetrics(key=k)
        group.add(attempt)
    return {k: groups[k] for k in sorted(groups)}


def executor_kind(executor_id: str) -> str:
    """``"lambda"`` or ``"vm"``: the kind of executor an id names. Ids
    read ``la-exec-N`` / ``vm-exec-N``, behind an ``<app>:`` prefix when
    a pool mints them (``pool:la-exec-0``)."""
    return "lambda" if "la-exec" in executor_id else "vm"


def stage_metrics_from_job(job: "Job") -> Dict[str, StageMetrics]:
    """Per-stage aggregates over the job's successful attempts."""
    return aggregate_attempts(job.task_attempts,
                              key=lambda a: str(a.spec.stage_id))


def kind_metrics_from_job(job: "Job") -> Dict[str, StageMetrics]:
    """Per-resource-kind ("vm" | "lambda") aggregates."""
    return aggregate_attempts(
        job.task_attempts, key=lambda a: executor_kind(a.executor_id))


def dotted_stage_metrics(job: "Job") -> Dict[str, float]:
    """Stage + kind aggregates flattened under stable dotted names
    (``stage.<id>.<field>`` / ``kind.<kind>.<field>``) for
    ``RunRecord.metrics``."""
    out: Dict[str, float] = {}
    for stage_id, sm in stage_metrics_from_job(job).items():
        for field_name, value in sm.to_dict().items():
            out[f"stage.{stage_id}.{field_name}"] = value
    for kind, km in kind_metrics_from_job(job).items():
        for field_name, value in km.to_dict().items():
            out[f"kind.{kind}.{field_name}"] = value
    return out
