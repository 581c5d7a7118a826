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
from repro.simulation import TraceRecorder


def _small_run():
    return run_scenario(ExperimentSpec("sparkpi", "ss_R_la"),
                        keep_trace=True)


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
    result = _small_run()
    payload = chrome_trace(result.trace)
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
        assert e["pid"] in (1, 2)  # vm=1, lambda=2
        assert e["tid"] >= 1
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "g" for e in instants)
    # Stage milestones ride along as global instants.
    assert any(e["name"].startswith("dag:") for e in instants)


def test_chrome_trace_metadata_names_lanes():
    result = _small_run()
    events = chrome_trace(result.trace)["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    kinds = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert "lambda executors" in kinds
    threads = [e for e in meta if e["name"] == "thread_name"]
    assert threads  # one lane per executor


def test_save_chrome_trace_is_valid_json(tmp_path):
    result = _small_run()
    path = tmp_path / "trace.json"
    count = save_chrome_trace(result.trace, str(path))
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count > 0
