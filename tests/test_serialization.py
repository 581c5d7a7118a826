"""Tests for the scenario-result export (``RunRecord.to_dict`` of the
record ``run_scenario`` returns).

The event-log export is tested in ``tests/observability/test_export.py``.
"""

import json

from repro.core.scenarios import run_scenario
from repro.experiments.spec import ExperimentSpec


def test_scenario_result_to_dict_is_json_serializable():
    result = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid"))
    payload = result.to_dict()
    text = json.dumps(payload)  # must not raise
    loaded = json.loads(text)
    assert loaded["scenario"] == "ss_hybrid"
    assert loaded["duration_s"] > 0
    assert "lambda" in loaded["tasks_by_kind"]


def test_failed_scenario_to_dict():
    result = run_scenario(ExperimentSpec("tpcds-q5", "qubole_R_la"))
    payload = result.to_dict()
    assert payload["failed"]
    assert "tasks" not in payload
    json.dumps(payload)
