"""The unified result schema: one :class:`RunRecord` per executed spec.

Every experiment — a §5.1 scenario, a Figure 4 profiling point, the
day-of-jobs stream, a custom ablation — reduces to the same record:
the spec that produced it, wall-clock and simulated time, dollar cost,
failure status, per-executor task counts and aggregate task metrics.
Records round-trip through ``to_dict``/``from_dict`` and serialize one
per line with :func:`write_jsonl`/:func:`read_jsonl`. On disk each line
is a versioned :class:`~repro.api.schemas.ResponseEnvelope`
(``{"schema_version": ..., "kind": "run_record", "data": ...}`` — the
same shape every API/CLI JSON surface uses); a pre-envelope row (a raw
RunRecord dict) is rejected with a
:class:`~repro.api.schemas.SchemaError` naming the envelope format.

``wall_time_s`` is the only machine-dependent field; use
:meth:`RunRecord.canonical` when comparing records for determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional

from repro.experiments.spec import ExperimentSpec

if TYPE_CHECKING:
    from repro.simulation import TraceRecorder


@dataclass
class RunRecord:
    """The outcome of executing one :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    #: Display label of the workload actually run (e.g. ``pagerank-25000``).
    workload: str = ""
    #: Simulated job duration in seconds (NaN if the job failed).
    duration_s: float = float("nan")
    #: Marginal dollar cost of the run (§5.1 accounting).
    cost: float = 0.0
    #: Real elapsed seconds spent executing the spec (machine-dependent).
    wall_time_s: float = 0.0
    #: Simulated failure (e.g. Qubole's Q5 fatal error), per the model.
    failed: bool = False
    failure_reason: Optional[str] = None
    #: Harness-level Python error (traceback), distinct from ``failed``.
    error: Optional[str] = None
    cost_breakdown: Dict[str, float] = field(default_factory=dict)
    tasks: Optional[int] = None
    tasks_by_kind: Dict[str, int] = field(default_factory=dict)
    failed_attempts: Optional[int] = None
    #: Aggregate metrics (per-executor-kind task seconds, stream stats,
    #: ablation-specific numbers, ...).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: True when the record was served from the on-disk cache (transient;
    #: not serialized).
    cached: bool = False
    #: The run's :class:`~repro.simulation.TraceRecorder` when the world
    #: recorded one (``run_scenario(spec, keep_trace=True)``); transient
    #: like ``cached``, and left out of comparison.
    trace: Optional["TraceRecorder"] = field(default=None, compare=False,
                                             repr=False)

    @property
    def scenario(self) -> str:
        return self.spec.scenario

    @property
    def seed(self) -> int:
        return self.spec.seed

    def label(self, workload_spec=None) -> str:
        """Figure-style label (``SS 8 VM / 24 La Segue``) where one
        exists for the scenario; the spec's own names otherwise.

        Δ is the number of Lambda executors the launch registered: each
        of the R − r launch slots registers one, falls back to a VM core,
        or goes unfilled, and a faulted run's record counts the last two
        (a clean run has neither)."""
        from repro.core.scenarios import SCENARIO_LABELS
        template = SCENARIO_LABELS.get(self.spec.scenario)
        if template is None or workload_spec is None:
            return f"{self.workload or self.spec.workload} {self.spec.scenario}"
        delta = (workload_spec.shortfall_cores
                 - self.metrics.get("lambda_fallback_cores", 0)
                 - self.metrics.get("unfilled_cores", 0))
        return template.format(R=workload_spec.required_cores,
                               r=workload_spec.available_cores, d=delta)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "scenario": self.spec.scenario,
            "workload": self.workload or self.spec.workload,
            "duration_s": self.duration_s,
            "cost": self.cost,
            "wall_time_s": self.wall_time_s,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "cost_breakdown": dict(self.cost_breakdown),
            "metrics": dict(self.metrics),
        }
        if self.error is not None:
            out["error"] = self.error
        # Job internals exist only for runs that produced a finished job.
        if not self.failed and self.tasks is not None:
            out["tasks"] = self.tasks
            out["tasks_by_kind"] = dict(self.tasks_by_kind)
            out["failed_attempts"] = self.failed_attempts
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output; a payload
        without its ``spec`` raises
        :class:`~repro.api.schemas.SchemaError`."""
        spec_data = data.get("spec")
        if spec_data is None:
            from repro.api.schemas import SchemaError
            raise SchemaError("RunRecord payload is missing its 'spec' key")
        spec = ExperimentSpec.from_dict(spec_data)
        return cls(
            spec=spec,
            workload=data.get("workload", spec.workload),
            duration_s=data.get("duration_s", float("nan")),
            cost=data.get("cost", 0.0),
            wall_time_s=data.get("wall_time_s", 0.0),
            failed=data.get("failed", False),
            failure_reason=data.get("failure_reason"),
            error=data.get("error"),
            cost_breakdown=dict(data.get("cost_breakdown") or {}),
            tasks=data.get("tasks"),
            tasks_by_kind=dict(data.get("tasks_by_kind") or {}),
            failed_attempts=data.get("failed_attempts"),
            metrics=dict(data.get("metrics") or {}),
        )

    def canonical(self) -> Dict[str, Any]:
        """The record minus its machine-dependent fields — what must be
        bit-identical between serial and parallel execution."""
        out = self.to_dict()
        out.pop("wall_time_s")
        return out


def write_jsonl(records: Iterable[RunRecord], path: str) -> int:
    """Write records one-per-line (enveloped, deterministic key order);
    returns the number written."""
    from repro.api import schemas
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(schemas.envelope(schemas.KIND_RUN_RECORD,
                                      record.to_dict()).dumps() + "\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[RunRecord]:
    """Read records written by :func:`write_jsonl`. Every row must be
    an envelope; a pre-envelope raw row raises
    :class:`~repro.api.schemas.SchemaError`."""
    from repro.api import schemas
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(
                    schemas.unwrap_record(json.loads(line))))
    return records
