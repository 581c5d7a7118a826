"""Tests for the event-log and Chrome-trace exporters."""

import json

from repro.core.scenarios import run_scenario
from repro.experiments.spec import ExperimentSpec
from repro.observability.export import (
    chrome_trace,
    event_log_dicts,
    load_event_log,
    save_chrome_trace,
    save_event_log,
)
from repro.observability.spans import Span, event_marks, run_spans
from repro.simulation import TraceRecorder


def _small_run():
    return run_scenario(ExperimentSpec("sparkpi", "ss_R_la"),
                        keep_trace=True)


def _small_spans():
    return run_spans(event_log_dicts(_small_run().trace))


def test_event_log_dicts_envelope_shape():
    trace = TraceRecorder()
    trace.record(1.5, "vm", "requested", vm="vm1", itype="m4.large")
    rows = event_log_dicts(trace)
    assert rows == [{"time": 1.5, "category": "vm", "name": "requested",
                     "fields": {"vm": "vm1", "itype": "m4.large"}}]


def test_event_log_payload_cannot_clobber_envelope():
    # A payload field named like an envelope key must survive intact.
    trace = TraceRecorder()
    trace.record_packed(2.0, "fault", "recovered",
                        {"time": 99.0, "name": "victim"})
    (row,) = event_log_dicts(trace)
    assert row["time"] == 2.0
    assert row["name"] == "recovered"
    assert row["fields"] == {"time": 99.0, "name": "victim"}


def test_event_log_roundtrip(tmp_path):
    result = _small_run()
    path = tmp_path / "events.jsonl"
    count = save_event_log(result.trace, str(path))
    assert count == len(result.trace)
    rows = load_event_log(str(path))
    assert rows == event_log_dicts(result.trace)
    # Chronological order is preserved.
    times = [row["time"] for row in rows]
    assert times == sorted(times)


def test_event_log_accepts_record_iterables(tmp_path):
    result = _small_run()
    from_recorder = event_log_dicts(result.trace)
    from_iterable = event_log_dicts(iter(result.trace.records))
    assert from_recorder == from_iterable


def test_same_seed_event_logs_are_byte_identical(tmp_path):
    paths = []
    for n in range(2):
        result = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid",
                                             seed=7), keep_trace=True)
        path = tmp_path / f"events-{n}.jsonl"
        save_event_log(result.trace, str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first  # and not trivially empty


def test_chrome_trace_structure():
    payload = chrome_trace(_small_spans())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert phases <= {"M", "X", "i"}
    slices = [e for e in events if e["ph"] == "X"]
    assert slices, "a completed run must produce task slices"
    for e in slices:
        assert e["dur"] >= 0
        assert e["ts"] >= 0
        assert e["pid"] in (0, 1, 2)  # control=0, vm=1, lambda=2
        assert e["tid"] >= 1
    # Tasks draw on their executor's lane; stage attempts are slices on
    # the control process.
    assert any(e["pid"] == 2 and e["name"].startswith("stage")
               and "/p" in e["name"] for e in slices)
    assert any(e["pid"] == 0 and e["args"].get("stage_id") is not None
               for e in slices)


def test_chrome_trace_metadata_names_lanes():
    events = chrome_trace(_small_spans())["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    kinds = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert "lambda executors" in kinds
    lanes = {e["args"]["name"] for e in meta if e["name"] == "thread_name"
             and e["pid"] == 2}
    assert lanes and all(lane.startswith("la-") for lane in lanes)


def test_chrome_trace_marks_are_global_instants():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0",
                 kind="lambda")
    trace.record(1.0, "executor", "task_start", executor="e0",
                 kind="lambda", task="stage0/p0")
    trace.record(2.0, "fault", "executor_killed", kind="executor_kill",
                 executor="e0")
    trace.record(2.0, "executor", "dead", executor="e0", kind="lambda")
    trace.record(2.0, "executor", "task_end", executor="e0",
                 kind="lambda", task="stage0/p0", state="killed",
                 duration=1.0)
    events = chrome_trace(run_spans(event_log_dicts(trace)))["traceEvents"]
    (mark,) = [e for e in events if e["ph"] == "i"]
    assert mark["name"] == "fault:executor_killed"
    assert (mark["s"], mark["pid"], mark["ts"]) == ("g", 0, 2e6)
    # The executor's lifetime and its task are slices on its lane.
    lane = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["pid"], e["tid"]) for e in lane] == [
        ("e0", 2, 1), ("stage0/p0", 2, 1)]
    assert lane[1]["args"]["status"] == "killed"


def test_chrome_trace_draws_host_spans_over_stamped_sim_events():
    job = Span(trace_id="t1", span_id="a", parent_span_id=None,
               name="job", index=0, start_s=0.0, end_s=2.0, status="ok")
    attempt = Span(trace_id="t1", span_id="b", parent_span_id="a",
                   name="attempt-1", index=1, start_s=0.5, end_s=1.5,
                   status="ok")
    host = [job.to_dict(), attempt.to_dict()]
    rows = [{"time": 0.25, "category": "dag", "name": "stage_submitted",
             "fields": {"stage_id": 0, "trace_ids": "t1"}}]
    events = chrome_trace(host + event_marks(rows, host[0]))["traceEvents"]
    processes = {e["pid"]: e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
    assert processes == {10: "serve (host wall clock)",
                         11: "cluster (sim clock)"}
    assert {e["name"] for e in events if e["ph"] == "X"} == {
        "job", "attempt-1"}
    (sim,) = [e for e in events if e["pid"] == 11 and e["ph"] != "M"]
    assert (sim["ph"], sim["s"], sim["ts"]) == ("i", "t", 0.25e6)
    assert sim["name"] == "dag:stage_submitted"
    assert sim["args"]["parent_span_id"] == "a"


def test_chrome_trace_survives_a_parent_cycle():
    # Span dicts may come from a saved trace document: a corrupt parent
    # cycle must still render, not loop forever.
    spans = [Span(trace_id="t", span_id=a, parent_span_id=b, name=a,
                  index=i, start_s=0.0, end_s=1.0).to_dict()
             for i, (a, b) in enumerate([("a", "b"), ("b", "a")])]
    events = chrome_trace(spans)["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["a", "b"]


def test_save_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = save_chrome_trace(_small_spans(), str(path))
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count > 0
