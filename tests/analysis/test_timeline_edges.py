"""Edge-case tests for run spans and the Figure 7 rendering."""

from repro.analysis.timeline import render_timeline
from repro.observability.export import event_log_dicts
from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_SEGUE,
    ROLE_TASK,
    run_spans,
    span_role,
)
from repro.simulation import TraceRecorder


def _spans(trace):
    return run_spans(event_log_dicts(trace))


def _of_role(spans, role):
    return [s for s in spans if span_role(s) == role]


def _tasks(spans, executor):
    return [s for s in _of_role(spans, ROLE_TASK)
            if s["parent_span_id"] == executor["span_id"]]


def test_empty_trace_builds_empty_timeline():
    assert _spans(TraceRecorder()) == []
    assert "0.0s" in render_timeline([])


def test_render_handles_no_activity():
    text = render_timeline([], width=20)
    assert "stages" in text


def test_executor_without_tasks():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="idle-0",
                 kind="vm")
    spans = _spans(trace)
    (executor,) = _of_role(spans, ROLE_EXECUTOR)
    assert executor["name"] == "idle-0"
    assert _tasks(spans, executor) == []


def test_task_spans_reconstructed_from_durations():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0", kind="vm")
    trace.record(12.0, "executor", "task_end", executor="e0",
                 task="stage0/p0", state="finished", duration=12.0)
    trace.record(30.0, "executor", "task_end", executor="e0",
                 task="stage0/p1", state="finished", duration=10.0)
    spans = _spans(trace)
    (executor,) = _of_role(spans, ROLE_EXECUTOR)
    first, second = _tasks(spans, executor)
    assert (first["start_s"], first["end_s"]) == (0.0, 12.0)
    assert second["start_s"] == 20.0
    assert sum(t["end_s"] - t["start_s"] for t in (first, second)) == 22.0
    assert "30.0s" in render_timeline(spans)


def test_decommission_recorded_once():
    # An executor leaves the cluster at its first dead/drained event;
    # when it began draining is kept as an attribute, and the first
    # drain stands in for the segue when no segue event exists.
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0",
                 kind="lambda")
    trace.record(5.0, "executor", "draining", executor="e0")
    trace.record(9.0, "executor", "dead", executor="e0")
    trace.record(11.0, "scheduler", "executor_drained", executor="e0",
                 kind="lambda")
    spans = _spans(trace)
    (executor,) = _of_role(spans, ROLE_EXECUTOR)
    assert executor["end_s"] == 9.0
    assert executor["status"] == "dead"
    assert executor["attrs"]["draining_s"] == 5.0
    (segue,) = _of_role(spans, ROLE_SEGUE)
    assert segue["start_s"] == segue["end_s"] == 5.0


def test_kind_filter():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="v", kind="vm")
    trace.record(0.0, "executor", "registered", executor="l",
                 kind="lambda")
    kinds = [s["attrs"]["kind"]
             for s in _of_role(_spans(trace), ROLE_EXECUTOR)]
    assert sorted(kinds) == ["lambda", "vm"]


def test_render_marks_registration_of_idle_executor():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0", kind="vm")
    trace.record(50.0, "executor", "registered", executor="late",
                 kind="vm")
    trace.record(100.0, "executor", "task_end", executor="e0",
                 task="t", state="finished", duration=100.0)
    text = render_timeline(_spans(trace), width=40)
    assert "+" in text  # the late executor's registration tick
