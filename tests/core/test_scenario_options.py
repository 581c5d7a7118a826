"""Tests for scenario-driver options: conf passthrough, segue timing."""

import pytest

from repro.observability.export import event_log_dicts
from repro.observability.spans import ROLE_SEGUE, run_spans, span_role
from repro.core.scenarios import run_scenario
from repro.experiments.spec import ExperimentSpec

SPECULATION = {"spark.speculation": True,
               "spark.speculation.quantile": 0.5,
               "spark.speculation.multiplier": 1.3,
               "spark.speculation.interval": 0.5}


def test_custom_conf_reaches_the_engine():
    """Speculation enabled through the scenario conf produces
    speculative launches on the skewed PageRank job."""
    result = run_scenario(ExperimentSpec("pagerank", "spark_R_vm",
                                         conf_overrides=SPECULATION),
                          keep_trace=True)
    assert not result.failed
    assert result.trace.select(category="scheduler",
                               name="speculative_launch")


def test_speculation_tames_pagerank_hot_partition():
    plain = run_scenario(ExperimentSpec("pagerank", "spark_R_vm"))
    speculative = run_scenario(ExperimentSpec(
        "pagerank", "spark_R_vm", conf_overrides=SPECULATION))
    # Copies of the inherently hot partition are just as slow — the skew
    # is data, not a slow host — so speculation must not *hurt* much and
    # the job must stay correct.
    assert not speculative.failed
    assert speculative.duration_s < plain.duration_s * 1.1


def test_segue_at_override_moves_the_segue():
    early = run_scenario(ExperimentSpec("pagerank", "ss_hybrid_segue",
                                        segue_at_s=20.0), keep_trace=True)
    late = run_scenario(ExperimentSpec("pagerank", "ss_hybrid_segue",
                                       segue_at_s=80.0), keep_trace=True)
    t_early, t_late = (
        next(s["start_s"] for s in run_spans(event_log_dicts(r.trace))
             if span_role(s) == ROLE_SEGUE)
        for r in (early, late))
    assert 18.0 < t_early < 35.0
    assert 78.0 < t_late < 95.0


def test_earlier_segue_cuts_lambda_cost_further():
    early = run_scenario(ExperimentSpec("pagerank", "ss_hybrid_segue",
                                        segue_at_s=20.0))
    late = run_scenario(ExperimentSpec("pagerank", "ss_hybrid_segue",
                                       segue_at_s=80.0))
    assert (early.cost_breakdown.get("lambda", 0)
            < late.cost_breakdown.get("lambda", 0))


def test_lambda_timeout_knob_via_scenario_conf():
    """The §4.3 knob flows through: a short timeout drains Lambdas and
    the trace shows their decommissioning mid-job."""
    result = run_scenario(
        ExperimentSpec("pagerank", "ss_hybrid_segue", segue_at_s=25.0,
                       conf_overrides={"spark.lambda.executor.timeout": 30.0}),
        keep_trace=True)
    assert not result.failed
    drains = result.trace.select(category="executor", name="draining")
    assert drains


def test_sparkpi_segue_scenario_harmless_when_job_too_short():
    """Segue VMs arriving after completion must not distort results —
    the paper skipped segue for SparkPi for exactly this reason."""
    plain = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid"))
    segue = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid_segue"))
    assert segue.duration_s == pytest.approx(plain.duration_s, rel=0.02)
