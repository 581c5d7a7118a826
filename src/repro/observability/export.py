"""Trace exporters: JSONL event logs and Chrome-trace (Perfetto) JSON.

Two serialized views:

- the **event log** — one JSON object per :class:`TraceRecord`, payload
  namespaced under ``fields``, keys sorted — is the replayable,
  diff-able artifact (two same-seed runs produce byte-identical files);
- the **Chrome trace** — the ``traceEvents`` JSON that
  https://ui.perfetto.dev (or ``chrome://tracing``) renders — draws
  span dicts (:mod:`repro.observability.spans`): a run's
  :func:`~repro.observability.spans.run_spans` give the Figure-7-style
  timeline (one process per executor kind, one lane per executor, task
  slices, stage slices, segue and fault instants), and a served job's
  host spans plus its stamped sim events give ``repro trace``'s view.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Union

from repro.observability.spans import ROLE_EXECUTOR, SPAN_HOST, span_role
from repro.simulation.tracing import TraceRecord, TraceRecorder

TraceLike = Union[TraceRecorder, Iterable[TraceRecord]]


def _records(trace: TraceLike) -> List[TraceRecord]:
    if isinstance(trace, TraceRecorder):
        return trace.records
    return list(trace)


# ---------------------------------------------------------------------------
# Event log (JSONL)
# ---------------------------------------------------------------------------

def event_log_dicts(trace: TraceLike) -> List[Dict[str, Any]]:
    """Records as envelope dicts: ``{time, category, name, fields}``."""
    return [{"time": r.time, "category": r.category, "name": r.name,
             "fields": dict(r.fields)} for r in _records(trace)]


def save_event_log(trace: TraceLike, path: str) -> int:
    """Write the event log as JSONL; returns the row count.

    Keys are sorted and floats use Python's shortest-repr, so the output
    is byte-identical for byte-identical event streams.
    """
    rows = event_log_dicts(trace)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")
    return len(rows)


def load_event_log(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL event log back into envelope dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ---------------------------------------------------------------------------
# Chrome trace (Perfetto)
# ---------------------------------------------------------------------------

#: Process ids, fixed so lanes are stable across runs: sim spans under a
#: VM or Lambda executor, a run's other sim spans (stages, marks), serve
#: spans on the host clock, and sim spans hung under a host span.
_KIND_PIDS = {"vm": 1, "lambda": 2}
_CONTROL_PID = 0
_HOST_PID = 10
_SIM_PID = 11
_PROCESS_NAMES = {
    1: "vm executors", 2: "lambda executors",
    _CONTROL_PID: "control (sim clock)",
    _HOST_PID: "serve (host wall clock)",
    _SIM_PID: "cluster (sim clock)",
}


def _us(seconds: float) -> float:
    return seconds * 1e6


def _pid(span: Mapping[str, Any], root: Mapping[str, Any]) -> int:
    if span["kind"] == SPAN_HOST:
        return _HOST_PID
    if root["kind"] == SPAN_HOST:
        return _SIM_PID
    if span_role(root) == ROLE_EXECUTOR:
        return _KIND_PIDS.get(root["attrs"].get("kind"), _CONTROL_PID)
    return _CONTROL_PID


def chrome_trace(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Project span dicts, on either clock, onto the Chrome-trace schema.

    A span with ``end_s > start_s`` becomes a complete ("X") slice, any
    other span an instant (global when it has no parent). The process
    comes from the clock and the executor kind; the thread (lane) from
    the span's root: one lane per executor, per stage, per mark name,
    and per served job. Host and sim seconds both start near zero, so a
    served job's control-plane spans and its stamped sim events share
    one timeline without rebasing either.
    """
    by_id = {span["span_id"]: span for span in spans}
    events: List[Dict[str, Any]] = []
    pids = set()
    tids: Dict[tuple, int] = {}
    for span in spans:
        root = span
        for _ in spans:  # bounded: a parent cycle in a loaded file ends
            parent = by_id.get(root.get("parent_span_id"))
            if parent is None:
                break
            root = parent
        pid = _pid(span, root)
        if pid not in pids:
            pids.add(pid)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": _PROCESS_NAMES[pid]}})
        lane = (pid, root["trace_id"], root["name"])
        if lane not in tids:
            tids[lane] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tids[lane],
                           "args": {"name": str(root["name"])}})
        start = float(span.get("start_s") or 0.0)
        end = span.get("end_s")
        event = {"name": str(span["name"]), "cat": span["kind"],
                 "ts": _us(start), "pid": pid, "tid": tids[lane],
                 "args": {"span_id": span["span_id"],
                          "parent_span_id": span.get("parent_span_id"),
                          "status": span.get("status"),
                          **dict(span.get("attrs") or {})}}
        if end is not None and float(end) > start:
            event.update(ph="X", dur=_us(float(end) - start))
        else:
            event.update(ph="i", s="t" if span.get("parent_span_id")
                         else "g")
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(spans: Sequence[Mapping[str, Any]], path: str) -> int:
    """Write the Perfetto-loadable JSON; returns the event count."""
    payload = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, default=str)
    return len(payload["traceEvents"])
