"""Tests for run spans: one pass over a run's event rows."""

from repro.core.scenarios import run_scenario
from repro.experiments.spec import ExperimentSpec
from repro.observability.export import (
    event_log_dicts,
    load_event_log,
    save_event_log,
)
from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_FAULT,
    ROLE_SEGUE,
    ROLE_STAGE,
    ROLE_TASK,
    RUN_TRACE_ID,
    SPAN_SIM,
    STATUS_OK,
    STATUS_OPEN,
    STATUS_RETRY,
    orphan_spans,
    render_span_tree,
    run_spans,
    span_role,
)
from repro.simulation import TraceRecorder


def _of_role(spans, role):
    return [s for s in spans if span_role(s) == role]


def test_stage_attempts_resubmission_and_skipped_completion():
    trace = TraceRecorder()
    trace.record(0.0, "dag", "stage_submitted", stage="s1", stage_id=1,
                 attempt=1, tasks=4)
    trace.record(3.0, "dag", "stage_submitted", stage="s1", stage_id=1,
                 attempt=2, tasks=1)
    trace.record(5.0, "dag", "stage_complete", stage="s1", stage_id=1)
    trace.record(5.0, "dag", "stage_complete", stage="s0", stage_id=0)
    trace.record(6.0, "dag", "stage_submitted", stage="s2", stage_id=2,
                 attempt=1, tasks=2)
    first, second, skipped, open_ = _of_role(
        run_spans(event_log_dicts(trace)), ROLE_STAGE)
    assert (first["start_s"], first["end_s"], first["status"]) == (
        0.0, 3.0, STATUS_RETRY)
    assert (second["start_s"], second["end_s"], second["status"]) == (
        3.0, 5.0, STATUS_OK)
    assert second["attrs"]["attempt"] == 2
    # A stage completed with nothing left to run: a zero-length span.
    assert (skipped["start_s"], skipped["end_s"]) == (5.0, 5.0)
    assert skipped["name"] == "s0"
    # Still running when the log ends: closed there, status open.
    assert (open_["end_s"], open_["status"]) == (6.0, STATUS_OPEN)


def test_marks_first_segue_and_every_fault():
    trace = TraceRecorder()
    trace.record(1.0, "fault", "throttle_start", kind="lambda_throttle")
    trace.record(2.0, "segue", "triggered", vm="vm-1", cores=4)
    trace.record(3.0, "segue", "triggered", vm="vm-2", cores=4)
    trace.record(4.0, "fault", "throttle_end", kind="lambda_throttle")
    spans = run_spans(event_log_dicts(trace))
    (segue,) = _of_role(spans, ROLE_SEGUE)
    assert (segue["start_s"], segue["end_s"]) == (2.0, 2.0)
    assert segue["attrs"]["vm"] == "vm-1"
    faults = _of_role(spans, ROLE_FAULT)
    assert [f["name"] for f in faults] == ["fault:throttle_start",
                                           "fault:throttle_end"]
    assert all(f["start_s"] == f["end_s"] for f in faults)


def test_tasks_of_unregistered_executors_are_skipped():
    trace = TraceRecorder()
    trace.record(1.0, "executor", "task_start", executor="ghost",
                 task="stage0/p0")
    trace.record(2.0, "executor", "task_end", executor="ghost",
                 task="stage0/p0", state="finished", duration=1.0)
    assert run_spans(event_log_dicts(trace)) == []


def test_run_spans_of_a_saved_log_match_the_live_trace(tmp_path):
    result = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid", seed=2),
                          keep_trace=True)
    path = tmp_path / "events.jsonl"
    save_event_log(result.trace, str(path))
    spans = run_spans(event_log_dicts(result.trace))
    assert run_spans(load_event_log(str(path))) == spans
    assert orphan_spans(spans) == []
    assert {s["kind"] for s in spans} == {SPAN_SIM}
    assert {s["trace_id"] for s in spans} == {RUN_TRACE_ID}
    assert [s["index"] for s in spans] == list(range(len(spans)))
    # Every task attempt the run finished is one closed task span.
    tasks = _of_role(spans, ROLE_TASK)
    ended = [r for r in result.trace if r.name == "task_end"]
    assert len(tasks) == len(ended)
    assert all(t["end_s"] >= t["start_s"] for t in tasks)
    executors = _of_role(spans, ROLE_EXECUTOR)
    assert {t["parent_span_id"] for t in tasks} <= {
        e["span_id"] for e in executors}
    assert render_span_tree(spans).startswith(f"trace {RUN_TRACE_ID}")
