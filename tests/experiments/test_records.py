"""Tests for the unified RunRecord schema and its (de)serialization."""

import json
import math

import pytest

from repro.api.schemas import SchemaError
from repro.core.scenarios import run_scenario
from repro.experiments import ExperimentSpec, RunRecord, read_jsonl, run_spec, write_jsonl

TINY = dict(stages=2, core_seconds_per_stage=8.0,
            shuffle_bytes_per_boundary=1024.0 * 1024,
            required_cores=4, available_cores=2)


def tiny_spec(scenario="ss_hybrid", **kwargs):
    return ExperimentSpec("synthetic", scenario, workload_params=TINY,
                          **kwargs)


def test_run_record_round_trip():
    record = run_spec(tiny_spec())
    assert record.error is None
    clone = RunRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()
    assert clone.spec == record.spec
    assert clone.duration_s == record.duration_s
    assert clone.tasks_by_kind == record.tasks_by_kind


def test_scenario_result_and_record_agree():
    spec = tiny_spec()
    result = run_scenario(spec)
    record = result.to_record(spec)
    assert record.duration_s == result.duration_s
    assert record.cost == result.cost
    assert record.tasks == result.job_result.num_tasks
    assert record.metrics["compute_seconds_total"] == (
        result.job_result.compute_seconds_total)
    # ScenarioResult.to_dict now IS the RunRecord schema.
    assert result.to_dict() == record.to_dict()


def test_failed_run_omits_job_fields():
    record = run_spec(ExperimentSpec("tpcds-q5", "qubole_R_la"))
    assert record.failed
    payload = record.to_dict()
    assert "tasks" not in payload
    assert math.isnan(payload["duration_s"])
    clone = RunRecord.from_dict(payload)
    assert clone.failed and clone.tasks is None


def test_spec_less_payload_is_rejected():
    payload = run_spec(tiny_spec()).to_dict()
    del payload["spec"]
    with pytest.raises(SchemaError, match="'spec'"):
        RunRecord.from_dict(payload)


def test_harness_error_is_captured_not_raised():
    record = run_spec(ExperimentSpec("no-such-workload", "ss_R_la"))
    assert record.failed
    assert "unknown workload" in record.error
    assert record.failure_reason.startswith("harness error")


def test_jsonl_round_trip(tmp_path):
    records = [run_spec(tiny_spec(seed=s)) for s in range(2)]
    path = str(tmp_path / "records.jsonl")
    assert write_jsonl(records, path) == 2
    loaded = read_jsonl(path)
    assert len(loaded) == 2
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def test_canonical_drops_wall_time_only():
    record = run_spec(tiny_spec())
    canonical = record.canonical()
    assert "wall_time_s" not in canonical
    full = record.to_dict()
    full.pop("wall_time_s")
    assert canonical == full


def test_record_label_uses_scenario_tables():
    record = run_spec(tiny_spec())
    wspec = record.spec.make_workload().spec
    assert record.label(wspec) == "SS 2 VM / 2 La"
    profile = RunRecord(spec=ExperimentSpec("pagerank-small",
                                            "profile_lambda", parallelism=2))
    assert "profile_lambda" in profile.label()


def test_json_serializable_end_to_end():
    record = run_spec(tiny_spec())
    json.dumps(record.to_dict())  # must not raise
