"""One span record for every timeline the project draws.

A :class:`Span` is one interval, or with ``end_s == start_s`` one
instant, on one of two clocks:

- ``host`` — wall seconds on the serve plane: the job, admission,
  attempt and retry-wait spans of
  :class:`~repro.observability.serve_obs.ServeTracer`;
- ``sim`` — simulated seconds of one run, derived once from its event
  rows by :func:`run_spans`.

Every consumer reads span dicts (:meth:`Span.to_dict`): the Figure 7
timeline (:func:`repro.analysis.timeline.render_timeline`), the
event-log report, the Chrome-trace export
(:func:`repro.observability.export.chrome_trace`) and ``repro trace``
(:func:`render_span_tree`). :func:`span_tree` and
:func:`span_tree_fingerprint` are the deterministic projection the
serve byte-identity tests compare (wall-clock fields excluded).

Nothing here reads a clock: host times come from the tracer, sim
times from the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.observability.categories import (
    CAT_DAG,
    CAT_EXECUTOR,
    CAT_FAULT,
    CAT_SCHEDULER,
    CAT_SEGUE,
    EV_DEAD,
    EV_DRAINING,
    EV_EXECUTOR_DRAINED,
    EV_REGISTERED,
    EV_SEGUE_TRIGGERED,
    EV_STAGE_COMPLETE,
    EV_STAGE_SUBMITTED,
    EV_TASK_END,
    EV_TASK_START,
)

SPAN_HOST = "host"   # wall-clock span (the serve plane's native clock)
SPAN_SIM = "sim"     # simulated-clock span (one run's event stream)

STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_RETRY = "retry"

# Span attr keys that carry wall-clock quantities; the deterministic
# projections strip them.
_TIMING_ATTRS = frozenset({
    "queued_s", "backoff_s", "duration_s", "wall_s", "t", "retry_after_s",
    "uptime_s", "append_s",
})


@dataclass
class Span:
    """One node of a causal tree.

    ``index`` is the span's birth order within its trace. Serve span ids
    are derived from it, so a fixed operation sequence yields a
    byte-identical tree; run span ids are ``<role>:<index>``
    (:func:`span_role`). ``kind`` is the clock, ``SPAN_HOST`` or
    ``SPAN_SIM``.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str]
    name: str
    index: int
    kind: str = SPAN_HOST
    start_s: float = 0.0
    end_s: Optional[float] = None
    status: str = STATUS_OPEN
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "index": self.index,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


# ---------------------------------------------------------------------------
# A run's spans, from its event rows
# ---------------------------------------------------------------------------

#: The trace id every :func:`run_spans` span carries.
RUN_TRACE_ID = "run"

#: Roles of run spans (the prefix of their ids).
ROLE_EXECUTOR = "executor"
ROLE_TASK = "task"
ROLE_STAGE = "stage"
ROLE_SEGUE = "segue"
ROLE_FAULT = "fault"
ROLE_EVENT = "event"


def span_role(span: Mapping[str, Any]) -> str:
    """A sim span's role (``executor``, ``task``, ``stage``, ``segue``,
    ``fault`` or ``event``): the prefix of its id."""
    return str(span["span_id"]).partition(":")[0]


class _TraceSpans:
    """Appends spans of one trace in birth order."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []

    def open(self, role: str, name: str, start: float,
             parent: Optional[str], attrs: Mapping[str, Any]) -> Span:
        index = len(self.spans)
        span = Span(trace_id=self.trace_id, span_id=f"{role}:{index}",
                    parent_span_id=parent, name=name, index=index,
                    kind=SPAN_SIM, start_s=start, attrs=dict(attrs))
        self.spans.append(span)
        return span

    def mark(self, role: str, name: str, row: Mapping[str, Any],
             parent: Optional[str] = None) -> Span:
        time = float(row["time"])
        span = self.open(role, name, time, parent, row.get("fields") or {})
        span.end_s = time
        span.status = STATUS_OK
        return span


def run_spans(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Derive a run's sim-clock spans from its event rows, in one pass.

    ``rows`` are ``{time, category, name, fields}`` dicts in emission
    order (``event_log_dicts``, ``load_event_log``). Returns span dicts
    in birth order:

    - one per executor, from ``executor.registered`` until it leaves the
      cluster at its first ``executor.dead`` (status ``dead``) or
      ``scheduler.executor_drained`` (status ``drained``); the time it
      began draining is its ``draining_s`` attr;
    - one per task attempt, a child of its executor's span, from
      ``task_start`` to ``task_end``, with both events' fields as attrs
      and the attempt's final state as status. A ``task_end`` with no
      ``task_start`` opens at ``time - duration``; a ``task_start`` with
      no ``task_end`` closes ``lost`` when its executor leaves, or at
      the last event;
    - one per stage attempt, from ``dag.stage_submitted`` to
      ``dag.stage_complete`` (status ``ok``); a resubmission closes the
      attempt before it (status ``retry``), and a completion with
      nothing submitted is a zero-length span;
    - zero-length marks: one ``segue`` at the first ``segue.triggered``
      or, failing that, the first ``executor.draining`` (the
      ``spark.lambda.executor.timeout`` drains and pooled segues emit no
      segue event), and one per ``fault`` event.

    Other spans still open at the last event close there with status
    ``open``. Task events of unregistered executors are skipped.
    """
    out = _TraceSpans(RUN_TRACE_ID)
    executors: Dict[Any, Span] = {}
    tasks: Dict[Tuple[Any, Any], Span] = {}
    stages: Dict[Any, Span] = {}
    segue: Optional[Span] = None
    first_drain: Optional[Mapping[str, Any]] = None
    last = 0.0
    for row in rows:
        time = float(row["time"])
        last = max(last, time)
        category, name = row["category"], row["name"]
        fields = row.get("fields") or {}
        if category == CAT_EXECUTOR:
            executor_id = fields.get("executor")
            if name == EV_REGISTERED:
                executors[executor_id] = out.open(
                    ROLE_EXECUTOR, str(executor_id), time, None, fields)
                continue
            executor = executors.get(executor_id)
            if executor is None:
                continue
            key = (executor_id, fields.get("task"))
            if name == EV_TASK_START:
                tasks[key] = out.open(ROLE_TASK, str(key[1]), time,
                                      executor.span_id, fields)
            elif name == EV_TASK_END:
                task = tasks.pop(key, None)
                if task is None:
                    task = out.open(
                        ROLE_TASK, str(key[1]),
                        time - float(fields.get("duration", 0.0)),
                        executor.span_id, {})
                task.attrs.update(fields)
                task.end_s = time
                task.status = str(fields.get("state", "finished"))
            elif name == EV_DRAINING:
                executor.attrs.setdefault("draining_s", time)
                if first_drain is None:
                    first_drain = row
            elif name == EV_DEAD and executor.end_s is None:
                executor.end_s, executor.status = time, "dead"
        elif category == CAT_SCHEDULER and name == EV_EXECUTOR_DRAINED:
            executor = executors.get(fields.get("executor"))
            if executor is not None and executor.end_s is None:
                executor.end_s, executor.status = time, "drained"
        elif category == CAT_DAG and name in (EV_STAGE_SUBMITTED,
                                              EV_STAGE_COMPLETE):
            stage_id = fields.get("stage_id")
            attempt = stages.pop(stage_id, None)
            label = str(fields.get("stage", stage_id))
            if name == EV_STAGE_SUBMITTED:
                if attempt is not None:
                    attempt.end_s, attempt.status = time, STATUS_RETRY
                stages[stage_id] = out.open(ROLE_STAGE, label, time, None,
                                            fields)
            else:
                if attempt is None:
                    attempt = out.open(ROLE_STAGE, label, time, None, {})
                attempt.attrs.update(fields)
                attempt.end_s, attempt.status = time, STATUS_OK
        elif category == CAT_SEGUE and name == EV_SEGUE_TRIGGERED:
            if segue is None:
                segue = out.mark(ROLE_SEGUE, ROLE_SEGUE, row)
        elif category == CAT_FAULT:
            out.mark(ROLE_FAULT, f"{CAT_FAULT}:{name}", row)
    if segue is None and first_drain is not None:
        out.mark(ROLE_SEGUE, ROLE_SEGUE, first_drain)
    for (executor_id, _task), task in tasks.items():
        end = executors[executor_id].end_s
        task.end_s = max(task.start_s, last if end is None else end)
        task.status = "lost"
    for span in out.spans:
        if span.end_s is None:
            span.end_s = last
    return [span.to_dict() for span in out.spans]


def event_marks(rows: Iterable[Mapping[str, Any]],
                parent: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Zero-length sim spans for event rows, as children of ``parent``
    (``repro trace`` hangs the sim events stamped with a job's trace id
    under the job's root span)."""
    out = _TraceSpans(str(parent["trace_id"]))
    return [out.mark(ROLE_EVENT, f"{row['category']}:{row['name']}", row,
                     parent=parent["span_id"]).to_dict() for row in rows]


# ---------------------------------------------------------------------------
# Span-tree projection and rendering
# ---------------------------------------------------------------------------

def orphan_spans(spans: Sequence[Mapping[str, Any]]
                 ) -> List[Mapping[str, Any]]:
    """Spans whose parent id is neither None nor present in the set —
    a complete trace has none."""
    ids = {s["span_id"] for s in spans}
    return [s for s in spans
            if s.get("parent_span_id") is not None
            and s["parent_span_id"] not in ids]


def span_tree(spans: Sequence[Mapping[str, Any]],
              include_times: bool = False) -> List[Dict[str, Any]]:
    """Nest spans by parent link (children in birth order).

    With ``include_times=False`` (the default) the projection is
    deterministic: wall-clock attrs and start/end stamps are dropped,
    so two same-sequence runs produce byte-identical trees.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for s in sorted(spans, key=lambda s: s["index"]):
        attrs = {k: v for k, v in (s.get("attrs") or {}).items()
                 if include_times or k not in _TIMING_ATTRS}
        node: Dict[str, Any] = {
            "name": s["name"], "status": s["status"], "kind": s["kind"],
            "attrs": attrs, "children": [],
        }
        if include_times:
            node["start_s"] = s.get("start_s")
            node["end_s"] = s.get("end_s")
        nodes[s["span_id"]] = node
    roots: List[Dict[str, Any]] = []
    for s in sorted(spans, key=lambda s: s["index"]):
        node = nodes[s["span_id"]]
        parent = s.get("parent_span_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def span_tree_fingerprint(spans: Sequence[Mapping[str, Any]]) -> str:
    """Canonical JSON of the deterministic tree projection — the
    byte-identity surface the determinism tests compare."""
    return json.dumps(span_tree(spans, include_times=False),
                      sort_keys=True)


def render_span_tree(spans: Sequence[Mapping[str, Any]],
                     include_times: bool = True) -> str:
    """ASCII tree for ``repro trace`` (box-drawing, one span per line).

    Raises ``ValueError`` when the trace has orphan spans — a broken
    parent link is a tracing bug, not a rendering choice.
    """
    if not spans:
        return "(no spans)"
    orphans = orphan_spans(spans)
    if orphans:
        raise ValueError(
            "orphan spans (parent link broken): "
            + ", ".join(f"{s['name']}({s['span_id']})" for s in orphans))
    trace_id = spans[0]["trace_id"]
    lines = [f"trace {trace_id}"]

    def _label(node: Mapping[str, Any]) -> str:
        marker = "◆ " if (node.get("start_s") is not None
                          and node.get("end_s") == node.get("start_s")
                          ) else ""
        out = f"{marker}{node['name']} [{node['status']}]"
        if include_times and node.get("end_s") is not None \
                and node.get("start_s") is not None \
                and node["end_s"] > node["start_s"]:
            out += f" {node['end_s'] - node['start_s']:.6f}s"
        attrs = node.get("attrs") or {}
        if attrs:
            out += " " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        return out

    def _walk(nodes: List[Dict[str, Any]], prefix: str) -> None:
        for i, node in enumerate(nodes):
            last = i == len(nodes) - 1
            lines.append(prefix + ("└─ " if last else "├─ ")
                         + _label(node))
            _walk(node["children"], prefix + ("   " if last else "│  "))

    _walk(span_tree(spans, include_times=True), "")
    return "\n".join(lines)
