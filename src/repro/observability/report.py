"""Per-run breakdown rendering (the ``repro report`` subcommand).

Three inputs, one look:

- a **RunRecord** JSONL row — the richest view: cost split (FaaS vs
  IaaS vs storage), per-stage task metrics (from the ``stage.*`` dotted
  telemetry) with the longest stage starred, and per-resource-kind
  utilization;
- an **event log** JSONL file — an event census, plus stage and
  executor-utilization tables read off the run's spans
  (:func:`~repro.observability.spans.run_spans`; no cost data rides on
  events);
- a **JobStatus** JSON document — a ``repro serve`` job curl'd from
  ``GET /jobs/{id}``: the job's lifecycle header plus, for completed
  spec-mode jobs, the embedded RunRecord rendered in full.

JobStatus documents may arrive bare or wrapped in the versioned
:class:`~repro.api.schemas.ResponseEnvelope`; sniffing handles both.
RunRecord rows must be enveloped: a bare one (the pre-envelope export
shape) raises :class:`~repro.api.schemas.SchemaError` naming the
envelope format, which ``repro report`` prints as a one-line exit.

All numbers are kept at full precision until the final ``format`` call —
rounding is a rendering concern, never a serialization one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_STAGE,
    ROLE_TASK,
    STATUS_OK,
    run_spans,
    span_role,
)

#: Columns of the per-stage table, in display order: (telemetry field,
#: column header).
_STAGE_COLUMNS = [
    ("tasks", "tasks"),
    ("duration_seconds", "span_s"),
    ("run_seconds", "run_s"),
    ("scheduler_delay_seconds", "sched_s"),
    ("deserialize_seconds", "deser_s"),
    ("shuffle_read_seconds", "sh_read_s"),
    ("shuffle_write_seconds", "sh_write_s"),
    ("gc_seconds", "gc_s"),
]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """Render an aligned plain-text table as a list of lines."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for n, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


# ---------------------------------------------------------------------------
# RunRecord view
# ---------------------------------------------------------------------------

def _nested(metrics: Mapping[str, Any], prefix: str) -> Dict[str, Dict[str, Any]]:
    """Group ``<prefix>.<key>.<field>`` metric names by ``<key>``."""
    out: Dict[str, Dict[str, Any]] = {}
    dot = prefix + "."
    for name, value in metrics.items():
        if not name.startswith(dot):
            continue
        rest = name[len(dot):]
        key, _, field_name = rest.partition(".")
        if field_name:
            out.setdefault(key, {})[field_name] = value
    return out


def _stage_sort_key(stage_id: str):
    try:
        return (0, int(stage_id))
    except ValueError:
        return (1, stage_id)


def render_run_report(record: Mapping[str, Any]) -> str:
    """Render one RunRecord dict as a multi-section text report."""
    lines: List[str] = []
    metrics: Mapping[str, Any] = record.get("metrics") or {}
    spec = record.get("spec") or {}

    lines.append(f"run: workload={record.get('workload', '?')} "
                 f"scenario={record.get('scenario', '?')} "
                 f"seed={spec.get('seed', '?')}")
    duration = record.get("duration_s", float("nan"))
    lines.append(f"duration: {_fmt(float(duration))} s   "
                 f"tasks: {record.get('tasks', '?')}   "
                 f"failed: {record.get('failed', False)}")

    # -- cost split ----------------------------------------------------
    breakdown: Mapping[str, float] = record.get("cost_breakdown") or {}
    total = float(record.get("cost", 0.0))
    iaas = float(breakdown.get("vm", 0.0))
    faas = float(breakdown.get("lambda", 0.0))
    storage = {k.split(":", 1)[1]: float(v) for k, v in breakdown.items()
               if k.startswith("storage:")}
    rows = [["IaaS (VM)", iaas, _share(iaas, total)],
            ["FaaS (Lambda)", faas, _share(faas, total)]]
    for svc in sorted(storage):
        rows.append([f"storage ({svc})", storage[svc],
                     _share(storage[svc], total)])
    rows.append(["total", total, _share(total, total)])
    lines.append("")
    lines.append("cost split ($):")
    lines.extend(_table(["component", "cost", "share"], rows))

    # -- planner: predicted vs actual ----------------------------------
    planner = {name[len("planner."):]: metrics[name]
               for name in metrics if name.startswith("planner.")}
    if planner:
        lines.append("")
        lines.append("planner (predicted vs actual):")
        if "candidate" in planner:
            # Single planned run: the full calibration loop.
            rows = [["candidate", planner.get("candidate", "?"), ""],
                    ["SLO", planner.get("slo_s", "?"),
                     ("met" if planner.get("slo_met") else "MISSED")],
                    ["runtime (s)",
                     planner.get("predicted_runtime_s", float("nan")),
                     planner.get("actual_runtime_s", float("nan"))],
                    ["cost ($)",
                     planner.get("predicted_cost", float("nan")),
                     planner.get("actual_cost", float("nan"))],
                    ["runtime error",
                     _share(float(planner.get("error_runtime_frac", 0.0)),
                            1.0), ""],
                    ["cost error",
                     _share(float(planner.get("error_cost_frac", 0.0)),
                            1.0), ""]]
            lines.extend(_table(["", "predicted", "actual"], rows))
        else:
            # Multijob: per-admission decision summary.
            lines.extend(_table(
                ["metric", "value"],
                [[k, planner[k]] for k in sorted(planner)]))

    # -- per-stage breakdown + longest stage ---------------------------
    stages = _nested(metrics, "stage")
    if stages:
        order = sorted(stages, key=_stage_sort_key)
        longest = max(order,
                      key=lambda s: stages[s].get("duration_seconds", 0.0))
        stage_rows = []
        for stage_id in order:
            row: List[Any] = [stage_id]
            for field_name, _header in _STAGE_COLUMNS:
                row.append(float(stages[stage_id].get(field_name, 0.0)))
            row.append("*" if stage_id == longest else "")
            stage_rows.append(row)
        lines.append("")
        lines.append("per-stage breakdown (* = longest stage):")
        lines.extend(_table(
            ["stage"] + [h for _f, h in _STAGE_COLUMNS] + ["longest"],
            stage_rows))

    # -- per-kind utilization ------------------------------------------
    kinds = _nested(metrics, "executor")
    if kinds:
        util_rows = []
        for kind in sorted(kinds):
            data = kinds[kind]
            busy = float(data.get("busy_seconds", 0.0))
            lifetime = float(data.get("lifetime_seconds", 0.0))
            idle = float(data.get("idle_seconds",
                                  max(0.0, lifetime - busy)))
            util = busy / lifetime if lifetime > 0 else 0.0
            util_rows.append([kind, int(data.get("added", 0)), busy, idle,
                              lifetime, f"{util:.1%}"])
        lines.append("")
        lines.append("executor utilization:")
        lines.extend(_table(
            ["kind", "added", "busy_s", "idle_s", "lifetime_s", "util"],
            util_rows))

    # -- cloud counters -------------------------------------------------
    cloud = {name: metrics[name] for name in sorted(metrics)
             if name.startswith("cloud.")}
    if cloud:
        lines.append("")
        lines.append("cloud counters:")
        lines.extend(_table(["metric", "value"],
                            [[k, v] for k, v in cloud.items()]))
    return "\n".join(lines)


def _share(part: float, total: float) -> str:
    if total == 0:
        return "-"
    return f"{part / total:.1%}"


# ---------------------------------------------------------------------------
# Event-log view
# ---------------------------------------------------------------------------

def render_event_log_report(rows: List[Mapping[str, Any]]) -> str:
    """Render a report from envelope dicts (``{time, category, name,
    fields}``): the event census counts rows; the stage and executor
    utilization tables read the run's spans. There is no cost data on
    events."""
    lines: List[str] = []
    if not rows:
        return "event log: empty"
    end_time = max(float(r.get("time", 0.0)) for r in rows)
    lines.append(f"event log: {len(rows)} events over "
                 f"{_fmt(end_time)} simulated seconds")

    # -- event census ---------------------------------------------------
    census: Dict[str, int] = {}
    for row in rows:
        key = f"{row.get('category', '?')}.{row.get('name', '?')}"
        census[key] = census.get(key, 0) + 1
    lines.append("")
    lines.append("event census:")
    lines.extend(_table(["event", "count"],
                        [[k, census[k]] for k in sorted(census)]))

    # -- stages and executor utilization, from the spans ----------------
    submitted: Dict[str, float] = {}
    completed: Dict[str, float] = {}
    tasks_per_stage: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    lifetime: Dict[str, float] = {}
    for span in run_spans(rows):
        role, attrs = span_role(span), span["attrs"]
        if role == ROLE_STAGE:
            stage = str(attrs.get("stage_id", "?"))
            submitted.setdefault(stage, span["start_s"])
            if span["status"] == STATUS_OK:
                completed[stage] = span["end_s"]
        elif role == ROLE_TASK:
            stage = str(attrs.get("stage", "?"))
            tasks_per_stage[stage] = tasks_per_stage.get(stage, 0) + 1
            kind = str(attrs.get("kind", "vm"))
            busy[kind] = (busy.get(kind, 0.0)
                          + span["end_s"] - span["start_s"])
        elif role == ROLE_EXECUTOR:
            kind = str(attrs.get("kind", "vm"))
            lifetime[kind] = lifetime.get(kind, 0.0) + max(
                0.0, span["end_s"] - span["start_s"])

    if submitted:
        stage_rows = []
        for stage in sorted(submitted, key=_stage_sort_key):
            done = completed.get(stage)
            stage_rows.append([stage, tasks_per_stage.get(stage, 0),
                               submitted[stage],
                               done if done is not None else "open",
                               done - submitted[stage]
                               if done is not None else "-"])
        lines.append("")
        lines.append("stages:")
        lines.extend(_table(
            ["stage", "tasks", "submitted", "completed", "span_s"],
            stage_rows))

    if lifetime:
        util_rows = []
        for kind in sorted(lifetime):
            b = busy.get(kind, 0.0)
            lt = lifetime[kind]
            util_rows.append([kind, b, lt,
                              f"{b / lt:.1%}" if lt > 0 else "-"])
        lines.append("")
        lines.append("executor utilization:")
        lines.extend(_table(["kind", "busy_s", "lifetime_s", "util"],
                            util_rows))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JobStatus view
# ---------------------------------------------------------------------------

def render_job_status_report(status: Mapping[str, Any]) -> str:
    """Render a served job (a ``GET /jobs/{id}`` JobStatus dict)."""
    lines: List[str] = []
    request: Mapping[str, Any] = status.get("request") or {}
    lines.append(f"job: {status.get('job_id', '?')} "
                 f"state={status.get('state', '?')} "
                 f"mode={request.get('mode', '?')}")
    rows: List[List[Any]] = [
        ["workload", request.get("workload", "?")],
        ["scenario", request.get("scenario", "?")],
        ["seed", request.get("seed", "?")],
    ]
    if status.get("spec_hash"):
        rows.append(["spec hash", str(status["spec_hash"])[:16]])
    if status.get("duration_s") is not None:
        rows.append(["duration (s)", float(status["duration_s"])])
    if status.get("cost") is not None:
        rows.append(["cost ($)", float(status["cost"])])
    if status.get("slo_met") is not None:
        rows.append(["SLO", "met" if status["slo_met"] else "MISSED"])
    if status.get("queue_position") is not None:
        rows.append(["queue position", status["queue_position"]])
    if status.get("error"):
        rows.append(["error", status["error"]])
    lines.extend(_table(["field", "value"], rows))

    record = status.get("record")
    if record:
        lines.append("")
        lines.append(render_run_report(record))
    elif status.get("metrics"):
        metrics = status["metrics"]
        lines.append("")
        lines.append("metrics:")
        lines.extend(_table(["metric", "value"],
                            [[k, metrics[k]] for k in sorted(metrics)]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Input sniffing
# ---------------------------------------------------------------------------

def _render_row(row: Mapping[str, Any]) -> str:
    """Render one non-event row by shape: enveloped or bare, RunRecord
    or JobStatus."""
    from repro.api import schemas

    if schemas.is_envelope(row):
        env = schemas.ResponseEnvelope.from_dict(row)
        if env.kind == schemas.KIND_JOB_STATUS:
            return render_job_status_report(env.data)
        if env.kind == schemas.KIND_RUN_RECORD:
            return render_run_report(env.data)
        raise ValueError(
            f"cannot render a {env.kind!r} envelope; reportable kinds: "
            f"{schemas.KIND_RUN_RECORD!r}, {schemas.KIND_JOB_STATUS!r}, "
            f"{schemas.KIND_EVENTS!r}")
    if schemas.looks_like_job_status(row):
        return render_job_status_report(row)
    # A bare RunRecord row is the pre-envelope export shape:
    # unwrap_record raises a SchemaError that names the envelope.
    return render_run_report(schemas.unwrap_record(row))


def render_report_file(path: str,
                       index: Optional[int] = None) -> str:
    """Auto-detect a report input's flavor and render the right report.

    Accepts JSONL (RunRecord exports, event logs) or a single JSON
    document (a curl'd JobStatus / envelope). Event-log rows carry
    ``category``; everything else dispatches on the envelope kind or,
    for bare rows, on shape. ``index`` picks one row (default: report
    every row, separated by blank lines).
    """
    from repro.api import schemas

    with open(path, "r", encoding="utf-8") as handle:
        rows = schemas.parse_any_document(handle.read())
    if not rows:
        return "empty file"
    first = rows[0]
    if schemas.is_envelope(first) and first.get("kind") == schemas.KIND_EVENTS:
        return render_event_log_report(
            (first.get("data") or {}).get("events") or [])
    if "category" in first:
        return render_event_log_report(rows)
    if index is not None:
        return _render_row(rows[index])
    return "\n\n".join(_render_row(row) for row in rows)
