"""Unit tests for the shared schema layer (repro.api.schemas)."""

import json

import pytest

from repro.api import schemas


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def test_envelope_roundtrip():
    env = schemas.envelope(schemas.KIND_RUN_RECORD, {"a": 1})
    parsed = schemas.ResponseEnvelope.from_dict(json.loads(env.dumps()))
    assert parsed.kind == schemas.KIND_RUN_RECORD
    assert parsed.schema_version == schemas.SCHEMA_VERSION
    assert parsed.data == {"a": 1}


def test_envelope_rejects_unknown_kind():
    with pytest.raises(schemas.SchemaError, match="unknown envelope kind"):
        schemas.envelope("telemetry_blob", {})


def test_envelope_rejects_future_version():
    doc = {"schema_version": "99", "kind": schemas.KIND_PLAN, "data": {}}
    with pytest.raises(schemas.SchemaError, match="unsupported"):
        schemas.ResponseEnvelope.from_dict(doc)


def test_dumps_is_deterministic_across_key_order():
    a = {"z": 1, "a": {"y": 2, "b": 3}}
    b = {"a": {"b": 3, "y": 2}, "z": 1}
    assert schemas.dumps(a) == schemas.dumps(b)


def test_unwrap_record_accepts_envelope_silently():
    env = schemas.envelope(schemas.KIND_RUN_RECORD, {"cost": 1.0})
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert schemas.unwrap_record(env.to_dict()) == {"cost": 1.0}


def test_unwrap_record_rejects_legacy_row():
    # The one-release DeprecationWarning shim for pre-envelope rows was
    # removed as promised: bare RunRecord dicts now fail loudly with a
    # pointer at the envelope format.
    with pytest.raises(schemas.SchemaError,
                       match="re-export with a current --json"):
        schemas.unwrap_record({"workload": "sparkpi", "cost": 1.0})


def test_unwrap_record_rejects_wrong_kind():
    env = schemas.envelope(schemas.KIND_PLAN, {})
    with pytest.raises(schemas.SchemaError, match="run_record"):
        schemas.unwrap_record(env.to_dict())


# ---------------------------------------------------------------------------
# JobRequest
# ---------------------------------------------------------------------------

def test_job_request_defaults():
    req = schemas.JobRequest.from_dict({"workload": "sparkpi"})
    assert req.scenario == "spark_R_vm"
    assert req.seed == 0
    assert req.mode == schemas.MODE_SPEC
    assert req.pool == "default"


def test_job_request_requires_workload():
    with pytest.raises(schemas.SchemaError, match="workload is required"):
        schemas.JobRequest.from_dict({"seed": 1})


def test_job_request_rejects_unknown_fields():
    with pytest.raises(schemas.SchemaError, match="unknown JobRequest"):
        schemas.JobRequest.from_dict({"workload": "sparkpi",
                                      "wokload_params": {}})


def test_job_request_rejects_bad_mode_and_slo():
    with pytest.raises(schemas.SchemaError, match="mode"):
        schemas.JobRequest(workload="sparkpi", mode="detached")
    with pytest.raises(schemas.SchemaError, match="slo_s"):
        schemas.JobRequest(workload="sparkpi", slo_s=-5)


def test_job_request_to_spec_validates_scenario():
    req = schemas.JobRequest(workload="sparkpi", scenario="warp-drive")
    with pytest.raises(schemas.SchemaError):
        req.to_spec()


def test_job_request_to_spec_roundtrips_fields():
    req = schemas.JobRequest.from_dict({
        "workload": "sparkpi", "scenario": "ss_hybrid", "seed": 7,
        "conf_overrides": {"spark.locality.wait": 0.5}})
    spec = req.to_spec()
    assert spec.workload == "sparkpi"
    assert spec.scenario == "ss_hybrid"
    assert spec.seed == 7


# ---------------------------------------------------------------------------
# JobStatus
# ---------------------------------------------------------------------------

def _status(**over):
    base = dict(job_id="job-000001", state=schemas.JOB_COMPLETED,
                request=schemas.JobRequest(workload="sparkpi"))
    base.update(over)
    return schemas.JobStatus(**base)


def test_job_status_omits_record_key_until_present():
    assert "record" not in _status().to_dict()
    assert _status(record={"cost": 1.0}).to_dict()["record"] == {"cost": 1.0}


def test_job_status_rejects_bad_state():
    with pytest.raises(schemas.SchemaError, match="state"):
        _status(state="exploded")


def test_job_status_from_dict_roundtrip():
    status = _status(duration_s=12.5, cost=0.25, slo_met=True,
                     metrics={"m": 1})
    again = schemas.JobStatus.from_dict(json.loads(
        schemas.dumps(status.to_dict())))
    assert again.job_id == status.job_id
    assert again.duration_s == 12.5
    assert again.slo_met is True
    assert again.request.workload == "sparkpi"
    assert again.done


def test_looks_like_job_status():
    assert schemas.looks_like_job_status(_status().to_dict())
    env = schemas.envelope(schemas.KIND_JOB_STATUS, _status().to_dict())
    assert schemas.looks_like_job_status(env.to_dict())
    assert not schemas.looks_like_job_status({"workload": "sparkpi"})


# ---------------------------------------------------------------------------
# ErrorBody / parse_any_document
# ---------------------------------------------------------------------------

def test_error_body_omits_retry_after_unless_set():
    body = schemas.ErrorBody(code=schemas.ERR_NOT_FOUND, message="nope")
    assert "retry_after_s" not in body.to_dict()
    body = schemas.ErrorBody(code=schemas.ERR_BACKPRESSURE, message="full",
                             retry_after_s=1.0)
    assert body.to_dict()["retry_after_s"] == 1.0


def test_parse_any_document_shapes():
    assert schemas.parse_any_document("") == []
    assert schemas.parse_any_document('{"a": 1}') == [{"a": 1}]
    assert schemas.parse_any_document('[{"a": 1}, {"b": 2}]') == [
        {"a": 1}, {"b": 2}]
    jsonl = '{"a": 1}\n{"b": 2}\n'
    assert schemas.parse_any_document(jsonl) == [{"a": 1}, {"b": 2}]
