"""Tests for ``repro report`` rendering and metric precision."""

import json

import pytest

from repro.cli import main
from repro.core.scenarios import run_scenario
from repro.experiments import ExperimentSpec, read_jsonl, write_jsonl
from repro.observability.export import event_log_dicts, save_event_log
from repro.observability.report import (
    render_event_log_report,
    render_report_file,
    render_run_report,
)


@pytest.fixture(scope="module")
def record():
    """One hybrid run's record, with its trace."""
    spec = ExperimentSpec(workload="sparkpi", scenario="ss_hybrid", seed=0)
    return run_scenario(spec, keep_trace=True)


def test_cost_split_sums_to_total(record):
    m = record.metrics
    parts = m["cost.iaas"] + m["cost.faas"] + sum(
        v for k, v in m.items() if k.startswith("cost.storage."))
    assert abs(parts - m["cost.total"]) < 1e-6
    assert abs(m["cost.total"] - record.cost) < 1e-6


def test_render_run_report_sections(record):
    text = render_run_report(record.to_dict())
    assert "run: workload=sparkpi scenario=ss_hybrid seed=0" in text
    assert "cost split ($):" in text
    assert "IaaS (VM)" in text and "FaaS (Lambda)" in text
    assert "per-stage breakdown (* = longest stage):" in text
    assert "*" in text
    assert "executor utilization:" in text
    assert "cloud counters:" in text
    assert "cloud.lambda.invocations" in text


def test_render_run_report_has_both_kinds(record):
    text = render_run_report(record.to_dict())
    util = text.split("executor utilization:")[1]
    assert "lambda" in util and "vm" in util


def test_render_event_log_report(record):
    rows = event_log_dicts(record.trace)
    text = render_event_log_report(rows)
    assert "event census:" in text
    assert "executor.task_end" in text
    assert "stages:" in text
    # Every stage of a successful run closes — no dangling "open" span.
    stage_table = text.split("stages:")[1].split("executor utilization:")[0]
    assert "open" not in stage_table
    assert "executor utilization:" in text


def test_render_event_log_report_empty():
    assert render_event_log_report([]) == "event log: empty"


def test_render_report_file_autodetects_run_records(tmp_path, record):
    path = tmp_path / "records.jsonl"
    write_jsonl([record, record], str(path))
    text = render_report_file(str(path))
    assert text.count("run: workload=sparkpi") == 2
    only_first = render_report_file(str(path), index=0)
    assert only_first.count("run: workload=sparkpi") == 1


def test_render_report_file_autodetects_event_logs(tmp_path, record):
    path = tmp_path / "events.jsonl"
    save_event_log(record.trace, str(path))
    text = render_report_file(str(path))
    assert "event census:" in text


def test_report_cli_rejects_a_bare_run_record_row(tmp_path, record):
    # A pre-envelope row (a bare RunRecord dict) is not read: the CLI
    # exits with one line that names the envelope format.
    path = tmp_path / "bare.jsonl"
    path.write_text(json.dumps(record.to_dict()) + "\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["report", str(path)])
    message = exc_info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"cannot render {path}: ")
    assert "not a ResponseEnvelope row" in message
    assert '"kind": "run_record"' in message


def test_render_report_file_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert render_report_file(str(path)) == "empty file"


# ---------------------------------------------------------------------------
# Precision regression: metrics stay full-precision end to end
# ---------------------------------------------------------------------------

def test_metrics_survive_jsonl_roundtrip_at_full_precision(tmp_path, record):
    probe = 0.12345678901234567  # more digits than any %.3f render keeps
    record.metrics["precision.probe"] = probe
    path = tmp_path / "records.jsonl"
    write_jsonl([record], str(path))
    [loaded] = read_jsonl(str(path))
    assert loaded.metrics["precision.probe"] == probe
    for name, value in record.metrics.items():
        assert loaded.metrics[name] == value, name


def test_rendering_does_not_mutate_metrics(record):
    payload = record.to_dict()
    before = dict(payload["metrics"])
    render_run_report(payload)
    assert payload["metrics"] == before
