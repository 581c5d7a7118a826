"""Causal job tracing end to end: ``/trace/{id}``, determinism, CLI.

The load-bearing scenario is fixed-seed and deliberately eventful — a
blocker pins the one running slot so the target job's trace stays open
through a forced circuit-breaker flip, then the target's first attempt
is crashed by chaos so the tree carries a retry. The tests assert the
tree is complete (parent-linked, no orphans), that its deterministic
fingerprint and the deterministic ``/metrics`` subset are byte-identical
across runs, and that a kill-9 + journal recovery reproduces the same
bytes too.
"""

import json
import tempfile
import threading

import pytest

from repro.api import schemas
from repro.api.app import create_app
from repro.api.service import ServeConfig, ServeRuntime
from repro.api.testclient import TestClient
from repro.observability.serve_obs import (
    deterministic_metric_lines,
    orphan_spans,
    render_span_tree,
    span_tree_fingerprint,
    trace_id_for_job,
)

_GATES = {}


def _gate(name: str) -> threading.Event:
    return _GATES.setdefault(name, threading.Event())


def blocking_job(spec):
    gate = _GATES[dict(spec.extra)["gate"]]
    assert gate.wait(timeout=30.0), "gate never released"
    return {"workload": "blocker", "duration_s": 1.0, "cost": 0.0}


def _eventful_config() -> ServeConfig:
    return ServeConfig(max_concurrent=1, max_queue=8, seed=0,
                       pool_cores=4, retry_base_backoff_s=0.01,
                       max_attempts=3, breaker_failure_threshold=2,
                       breaker_cooldown_s=60.0)


def _run_eventful(tag: str):
    """The fixed-seed retry + breaker scenario; returns
    ``(target_spans, deterministic_metric_lines, runtime_jobs)``."""
    gate = _gate(tag)
    service = ServeRuntime(_eventful_config()).start()
    try:
        service.submit({
            "workload": "blocker",
            "scenario": "custom:tests.api.test_tracing:blocking_job",
            "seed": 0, "extra": {"gate": tag}})
        service.inject_chaos({"crash_next_submissions": 1})
        target = service.submit({"workload": "sparkpi",
                                 "scenario": "spark_R_vm", "seed": 1})
        # Flip the breaker while both traces are open: the transition
        # must land as a span event on every live trace.
        for _ in range(service.breaker.failure_threshold):
            service.breaker.record_failure()
        gate.set()
        assert service.drain(timeout=60.0)
        assert service.job(target.job_id).state == schemas.JOB_COMPLETED
        return (service.tracer.spans(target.job_id),
                deterministic_metric_lines(service.metrics_text()))
    finally:
        gate.set()
        service.close()


def test_eventful_trace_is_complete_with_retry_and_breaker():
    spans, _ = _run_eventful("tracing-complete")
    assert [s["name"] for s in spans] == [
        "job", "admission", "breaker:closed->open", "attempt-1",
        "retry-wait-1", "attempt-2"]
    assert orphan_spans(spans) == []
    by_name = {s["name"]: s for s in spans}
    root = by_name["job"]
    assert root["parent_span_id"] is None
    assert root["status"] == "ok"
    for name in ("admission", "breaker:closed->open", "attempt-1",
                 "retry-wait-1", "attempt-2"):
        assert by_name[name]["parent_span_id"] == root["span_id"], name
    assert by_name["attempt-1"]["status"] == "retry"
    assert "WorkerCrashError" in by_name["attempt-1"]["attrs"]["error"]
    assert by_name["breaker:closed->open"]["attrs"]["state"] == "open"
    # Every span closed — no dangling "open" status after drain.
    assert all(s["status"] != "open" for s in spans)
    rendered = render_span_tree(spans)
    for name in ("job", "attempt-1", "retry-wait-1", "attempt-2",
                 "breaker:closed->open"):
        assert name in rendered


def test_eventful_trace_and_metrics_are_byte_identical_across_runs():
    spans1, metrics1 = _run_eventful("tracing-det-a")
    spans2, metrics2 = _run_eventful("tracing-det-b")
    assert span_tree_fingerprint(spans1) == span_tree_fingerprint(spans2)
    assert (render_span_tree(spans1, include_times=False)
            == render_span_tree(spans2, include_times=False))
    assert metrics1, "deterministic metric subset must not be empty"
    assert metrics1 == metrics2


def test_trace_fingerprint_survives_kill9_and_journal_recovery(monkeypatch):
    from repro.experiments import runner
    run_spec = runner.run_spec

    def crash_and_recover():
        # The first incarnation's worker is held until after the crash,
        # so the kill always lands with job 1 started and jobs 2-3
        # queued; unheld, job 1 can finish before the kill on a fast
        # host, leaving it nothing to recover.
        held = threading.Event()

        def held_run_spec(spec):
            held.wait(timeout=30.0)
            return run_spec(spec)

        with tempfile.TemporaryDirectory(
                prefix="repro-trace-recover-") as tmp:
            config = ServeConfig(max_concurrent=1, max_queue=8, seed=0,
                                 pool_cores=4, state_dir=tmp,
                                 retry_base_backoff_s=0.01,
                                 max_attempts=3)
            monkeypatch.setattr(runner, "run_spec", held_run_spec)
            first = ServeRuntime(config).start()
            ids = []
            try:
                for i in range(3):
                    ids.append(first.submit(
                        {"workload": "sparkpi",
                         "scenario": "spark_R_vm",
                         "seed": 100 + i}).job_id)
            finally:
                first.hard_stop()  # as close to kill -9 as in-process gets
                monkeypatch.setattr(runner, "run_spec", run_spec)
                held.set()
            second = ServeRuntime(config).start()
            try:
                assert second.drain(timeout=60.0)
                fingerprints = []
                for job_id in ids:
                    spans = second.tracer.spans(job_id)
                    assert spans, f"no spans for recovered {job_id}"
                    assert orphan_spans(spans) == []
                    # Recovered traces keep the job's deterministic id
                    # and carry the recovery provenance on the root.
                    assert spans[0]["trace_id"] == trace_id_for_job(job_id)
                    assert spans[0]["attrs"]["recovered"] is True
                    fingerprints.append(span_tree_fingerprint(spans))
                return (fingerprints,
                        deterministic_metric_lines(second.metrics_text()))
            finally:
                second.close()

    fp1, metrics1 = crash_and_recover()
    fp2, metrics2 = crash_and_recover()
    assert fp1 == fp2
    assert metrics1 == metrics2
    assert any("recovered" in line for line in metrics1)


def _fetch_trace_document():
    """Run one job over HTTP and return its raw /trace body + id."""
    config = ServeConfig(max_concurrent=2, max_queue=8, pool_cores=4)
    with TestClient(create_app(config)) as client:
        r = client.post("/jobs", json={"workload": "sparkpi",
                                       "scenario": "spark_R_vm",
                                       "seed": 0})
        job_id = r.data["job_id"]
        done = client.get(f"/jobs/{job_id}", params={"wait": 60})
        assert done.data["state"] == schemas.JOB_COMPLETED
        assert client.get("/trace/nope").status == 404
        response = client.get(f"/trace/{job_id}")
        assert response.status == 200
        return response, job_id


@pytest.mark.smoke
def test_trace_endpoint_returns_parent_linked_spans():
    response, job_id = _fetch_trace_document()
    envelope = response.envelope()
    assert envelope.kind == schemas.KIND_TRACE
    payload = envelope.data
    assert payload["job_id"] == job_id
    assert payload["trace_id"] == trace_id_for_job(job_id)
    assert orphan_spans(payload["spans"]) == []


@pytest.mark.smoke
def test_cli_trace_renders_saved_document(tmp_path, capsys):
    response, job_id = _fetch_trace_document()
    body = response.text
    doc = tmp_path / "trace.json"
    doc.write_text(body, encoding="utf-8")
    chrome = tmp_path / "chrome.json"

    from repro.cli import main
    rc = main(["trace", job_id, "--file", str(doc),
               "--chrome-out", str(chrome)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id_for_job(job_id)}" in out
    assert "job" in out and "attempt-1" in out
    exported = json.loads(chrome.read_text(encoding="utf-8"))
    assert exported["traceEvents"]
    names = {e.get("name") for e in exported["traceEvents"]}
    assert "job" in names and "attempt-1" in names
