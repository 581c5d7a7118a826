"""Tests for profiling, timelines, reporting, and the Table 1 matrix."""

import math

import pytest

from repro.analysis.profiling import (
    optimal_parallelism,
    profile_point,
    profile_workload,
)
from repro.analysis.reporting import (
    format_bar_chart,
    format_series,
    format_table,
    relative_to,
)
from repro.analysis.timeline import render_timeline
from repro.baselines.comparison import (
    COMPARISON_MATRIX,
    hybrid_systems,
    render_table1,
)
from repro.core.scenarios import run_scenario
from repro.experiments.records import RunRecord
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec
from repro.observability.export import event_log_dicts
from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_SEGUE,
    ROLE_STAGE,
    ROLE_TASK,
    STATUS_OK,
    run_spans,
    span_role,
)


# ---------------------------------------------------------------------------
# Profiling (Figure 4 machinery)
# ---------------------------------------------------------------------------

def test_profile_requires_a_spec():
    with pytest.raises(TypeError, match="ExperimentSpec"):
        profile_workload("pagerank-small")
    with pytest.raises(ValueError):
        ExperimentSpec("pagerank-small", "profile_container")


def test_profile_lambda_sweep_is_u_shaped():
    """Figure 4(a): 'a classic U-shaped curve' — time falls with
    parallelism, then communication overheads bend it back up."""
    points = profile_workload(
        ExperimentSpec("pagerank-large", "profile_lambda"),
        parallelism_sweep=(1, 4, 16, 128))
    durations = [p.duration_s for p in points]
    assert durations[1] < durations[0]  # parallelism helps at first
    assert durations[3] > min(durations)  # and hurts at the extreme


def test_profile_vm_faster_than_lambda_at_same_parallelism():
    """Figure 4(b): 'the overall execution time is much lower when
    running on VMs'."""
    la = profile_workload(
        ExperimentSpec("pagerank-large", "profile_lambda"),
        parallelism_sweep=(8,))[0]
    vm = profile_workload(
        ExperimentSpec("pagerank-large", "profile_vm"),
        parallelism_sweep=(8,))[0]
    assert vm.duration_s < la.duration_s


def test_profile_costs_positive():
    points = profile_workload(
        ExperimentSpec("pagerank-small", "profile_lambda"),
        parallelism_sweep=(2, 8))
    assert all(p.cost > 0 for p in points)


def _point(parallelism, duration_s, kind="profile_vm", failed=False):
    return RunRecord(spec=ExperimentSpec("pagerank-small", kind,
                                         parallelism=parallelism),
                     duration_s=duration_s, cost=1.0, failed=failed)


def test_optimal_parallelism():
    points = [_point(1, 100.0), _point(4, 30.0), _point(16, 45.0)]
    assert optimal_parallelism(points).spec.parallelism == 4
    with pytest.raises(ValueError):
        optimal_parallelism([])


def test_optimal_parallelism_skips_failed_points():
    points = [_point(1, float("nan"), "profile_lambda", failed=True),
              _point(4, 30.0, "profile_lambda")]
    assert optimal_parallelism(points).spec.parallelism == 4
    with pytest.raises(ValueError):
        optimal_parallelism(points[:1])


def test_profile_point_outliving_its_lambdas_fails_cleanly():
    # One Lambda executor cannot finish K-means within its 15-minute
    # lifetime, and nothing replaces it: a failed point, billed so far.
    spec = ExperimentSpec("kmeans", "profile_lambda", seed=1, parallelism=1)
    point = profile_point(spec)
    assert point.failed
    assert math.isnan(point.duration_s)
    assert point.cost > 0
    assert "expired" in point.failure_reason
    record = run_spec(spec)
    assert record.failed and record.error is None
    assert record.failure_reason == point.failure_reason
    assert record.cost == point.cost


# ---------------------------------------------------------------------------
# Timeline (Figure 7 machinery)
# ---------------------------------------------------------------------------

def _run_spans(workload, scenario):
    result = run_scenario(ExperimentSpec(workload, scenario),
                          keep_trace=True)
    return result, run_spans(event_log_dicts(result.trace))


def _of_role(spans, role):
    return [s for s in spans if span_role(s) == role]


def test_timeline_reconstructs_executors_and_stages():
    result, spans = _run_spans("pagerank", "ss_hybrid")
    kinds = [e["attrs"]["kind"] for e in _of_role(spans, ROLE_EXECUTOR)]
    assert kinds.count("vm") == 3
    assert kinds.count("lambda") == 13
    # 6 PageRank stages completed.
    stages = _of_role(spans, ROLE_STAGE)
    assert [s["status"] for s in stages] == [STATUS_OK] * 6
    end = max(t["end_s"] for t in _of_role(spans, ROLE_TASK))
    assert end == pytest.approx(result.duration_s, rel=0.05)


def test_timeline_segue_marker():
    _result, spans = _run_spans("pagerank", "ss_hybrid_segue")
    (segue,) = _of_role(spans, ROLE_SEGUE)
    # Figure 7: segue commences once cores free up at ~45s.
    assert 40 < segue["start_s"] < 70


def test_timeline_no_segue_marker_without_segue():
    _result, spans = _run_spans("sparkpi", "ss_R_vm")
    assert _of_role(spans, ROLE_SEGUE) == []


def test_timeline_render_ascii():
    _result, spans = _run_spans("sparkpi", "ss_R_la")
    text = render_timeline(spans, width=40)
    assert "#" in text
    assert "stages" in text


def test_executor_span_busy_seconds():
    _result, spans = _run_spans("sparkpi", "spark_R_vm")
    tasks = _of_role(spans, ROLE_TASK)
    executors = {e["span_id"] for e in _of_role(spans, ROLE_EXECUTOR)}
    assert {t["parent_span_id"] for t in tasks} <= executors
    busy = sum(t["end_s"] - t["start_s"] for t in tasks)
    assert busy > 0


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_format_table_aligned():
    text = format_table(["a", "long-header"], [["x", 1.5], ["yy", 2.0]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    assert len(lines) == 5


def test_format_table_validation():
    with pytest.raises(ValueError):
        format_table([], [])
    with pytest.raises(ValueError):
        format_table(["a"], [["x", "too-many"]])


def test_format_bar_chart_scales_and_marks_failures():
    text = format_bar_chart([("base", 10.0), ("slow", 20.0),
                             ("dead", float("nan"), "(fatal)")],
                            unit="s")
    lines = text.splitlines()
    assert lines[1].count("#") > lines[0].count("#")
    assert "FAILED" in lines[2]


def test_format_series_validation():
    with pytest.raises(ValueError):
        format_series("x", [1, 2], {"y": [1.0]})


def test_format_series_renders_rows():
    text = format_series("cores", [1, 2], {"time": [10.0, 5.0]})
    assert "cores" in text and "10.00" in text


def test_relative_to():
    assert relative_to(10.0, 25.0) == "(2.50x)"
    assert relative_to(0.0, 25.0) == ""
    assert relative_to(10.0, float("nan")) == ""


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def test_table1_matches_paper_rows():
    assert len(COMPARISON_MATRIX) == 13
    splitserve = COMPARISON_MATRIX["SplitServe"]
    assert splitserve.uses_vms and splitserve.uses_cfs
    assert splitserve.execution_time_favourable
    assert splitserve.cost_favourable


def test_table1_qubole_row():
    q = COMPARISON_MATRIX["Qubole"]
    assert not q.uses_vms and q.uses_cfs
    assert q.execution_time_favourable is False


def test_table1_renders():
    text = render_table1()
    assert "SplitServe" in text
    assert "n/a" in text  # ExCamera's columns


def test_hybrid_club_is_small():
    # Only the FEAT/MArk row and SplitServe itself use both VMs and CFs.
    assert {p.name for p in hybrid_systems()} == {"FEAT, MArk", "SplitServe"}
