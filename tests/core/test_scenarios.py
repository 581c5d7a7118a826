"""Integration tests: the §5.1 scenarios reproduce the paper's shapes.

These are the claims a reviewer would check. Absolute numbers are our
simulator's, but the orderings and rough factors are asserted against the
paper's reported results.
"""

import math

import pytest

from repro.core.scenarios import SCENARIO_NAMES, run_scenario
from repro.experiments import RunRecord, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.workloads import PageRankWorkload


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        ExperimentSpec("sparkpi", "nope")


def test_run_scenario_requires_a_spec():
    with pytest.raises(TypeError, match="ExperimentSpec"):
        run_scenario("sparkpi")


def test_run_scenario_runs_every_name():
    params = dict(stages=2, core_seconds_per_stage=16.0,
                  shuffle_bytes_per_boundary=1024,
                  required_cores=4, available_cores=2)
    for name in SCENARIO_NAMES:
        spec = ExperimentSpec("synthetic", name, workload_params=params)
        record = run_scenario(spec)
        assert isinstance(record, RunRecord)
        assert record.spec == spec and record.scenario == name


def test_result_label_formats_paper_style():
    w = PageRankWorkload()
    r = run_scenario(ExperimentSpec("pagerank", "ss_hybrid"))
    assert r.label(w.spec) == "SS 3 VM / 13 La"


#: PageRank's 13 Lambda slots against a concurrency cap of 2: 11 of them
#: fall back to VM cores, so 2 Lambda executors register.
THROTTLED_PAGERANK = ExperimentSpec(
    "pagerank", "ss_hybrid", seed=0,
    faults=[{"kind": "lambda_throttle", "at_s": 0.0, "limit": 2,
             "duration_s": 500.0}])


def test_label_counts_the_lambdas_a_throttled_launch_registered():
    record = run_spec(THROTTLED_PAGERANK)
    assert record.metrics["lambda_fallback_cores"] == 11
    assert record.metrics["unfilled_cores"] == 0
    assert record.tasks_by_kind["lambda"] > 0
    wspec = THROTTLED_PAGERANK.make_workload().spec
    assert record.label(wspec) == "SS 3 VM / 2 La"


# ---------------------------------------------------------------------------
# SparkPi (Figure 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sparkpi_results():
    return {name: run_scenario(ExperimentSpec("sparkpi", name))
            for name in SCENARIO_NAMES}


def test_sparkpi_under_provisioned_takes_more_than_twice(sparkpi_results):
    """Paper: 'the job has taken more than twice as long to complete'."""
    base = sparkpi_results["spark_R_vm"].duration_s
    assert sparkpi_results["spark_r_vm"].duration_s > 2 * base


def test_sparkpi_all_substrates_near_baseline(sparkpi_results):
    """Paper: Qubole and SS (all variants) perform similar to vanilla
    because there is no shuffle."""
    base = sparkpi_results["spark_R_vm"].duration_s
    for name in ("ss_R_vm", "ss_R_la", "ss_hybrid"):
        assert sparkpi_results[name].duration_s < 1.1 * base
    assert sparkpi_results["qubole_R_la"].duration_s < 1.4 * base


# ---------------------------------------------------------------------------
# K-means (Figure 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kmeans_results():
    return {name: run_scenario(ExperimentSpec("kmeans", name))
            for name in SCENARIO_NAMES}


def test_kmeans_baseline_meets_two_minute_slo(kmeans_results):
    assert kmeans_results["spark_R_vm"].duration_s < 120.0


def test_kmeans_under_provisioned_degrades_hard(kmeans_results):
    """Paper: ~10x degradation on r=4; we assert the thrash regime
    (well beyond the 4x core deficit)."""
    base = kmeans_results["spark_R_vm"].duration_s
    ratio = kmeans_results["spark_r_vm"].duration_s / base
    assert ratio > 5.0


def test_kmeans_autoscale_still_slow(kmeans_results):
    """Paper: 3.3x even with VM scaling (cache-cold executors)."""
    base = kmeans_results["spark_R_vm"].duration_s
    ratio = kmeans_results["spark_autoscale"].duration_s / base
    assert 2.2 < ratio < 4.5


def test_kmeans_ss_lambda_close_to_baseline(kmeans_results):
    """Paper: SS 16 La only ~11% worse than Spark 16 VM."""
    base = kmeans_results["spark_R_vm"].duration_s
    ratio = kmeans_results["ss_R_la"].duration_s / base
    assert ratio < 1.25


def test_kmeans_all_lambda_beats_hybrid_cost_story(kmeans_results):
    """Paper: for K-means an all-Lambda solution is the right choice —
    it massively beats autoscaling."""
    assert (kmeans_results["ss_R_la"].duration_s
            < 0.5 * kmeans_results["spark_autoscale"].duration_s)


def test_kmeans_qubole_worse_than_ss_lambda(kmeans_results):
    assert (kmeans_results["qubole_R_la"].duration_s
            > 1.3 * kmeans_results["ss_R_la"].duration_s)


# ---------------------------------------------------------------------------
# PageRank (Figure 6)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pagerank_results():
    return {name: run_scenario(ExperimentSpec("pagerank", name))
            for name in SCENARIO_NAMES}


def test_pagerank_under_provisioned_about_2x(pagerank_results):
    """Paper: r=3 degrades performance by around 2.1x."""
    base = pagerank_results["spark_R_vm"].duration_s
    ratio = pagerank_results["spark_r_vm"].duration_s / base
    assert 1.8 < ratio < 2.7


def test_pagerank_autoscale_about_2x(pagerank_results):
    """Paper: 'even with VM based scaling, total execution time is worse
    by as much as 2x'."""
    base = pagerank_results["spark_R_vm"].duration_s
    ratio = pagerank_results["spark_autoscale"].duration_s / base
    assert 1.6 < ratio < 2.4


def test_pagerank_qubole_more_than_half_over_baseline(pagerank_results):
    """Paper: Qubole's S3 shuffle adds more than 60%; ours lands close."""
    base = pagerank_results["spark_R_vm"].duration_s
    ratio = pagerank_results["qubole_R_la"].duration_s / base
    assert ratio > 1.45


def test_pagerank_ss_shuffle_overhead_about_27pct(pagerank_results):
    """Paper: SplitServe's HDFS shuffling increases time by only ~27%."""
    base = pagerank_results["spark_R_vm"].duration_s
    ratio = pagerank_results["ss_R_la"].duration_s / base
    assert 1.05 < ratio < 1.45


def test_pagerank_hybrid_beats_autoscale_by_about_a_third(pagerank_results):
    """Paper: joint VM+Lambda execution improves on VM scaling by ~32%."""
    autoscale = pagerank_results["spark_autoscale"].duration_s
    hybrid = pagerank_results["ss_hybrid"].duration_s
    improvement = 1 - hybrid / autoscale
    assert 0.2 < improvement < 0.55


def test_pagerank_segue_still_beats_autoscale(pagerank_results):
    """Paper: with segue, still a 24% improvement over VM scaling."""
    autoscale = pagerank_results["spark_autoscale"].duration_s
    segue = pagerank_results["ss_hybrid_segue"].duration_s
    improvement = 1 - segue / autoscale
    assert 0.1 < improvement < 0.5
    # Segue trades a little time for moving off Lambdas (cleanup).
    assert segue >= pagerank_results["ss_hybrid"].duration_s


def test_pagerank_segue_cuts_lambda_spend(pagerank_results):
    """Segueing decommissions Lambdas early: the Lambda line item must
    shrink vs the no-segue hybrid."""
    hybrid = pagerank_results["ss_hybrid"].cost_breakdown.get("lambda", 0)
    segue = pagerank_results["ss_hybrid_segue"].cost_breakdown.get("lambda", 0)
    assert segue < hybrid


# ---------------------------------------------------------------------------
# TPC-DS (Figure 5)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def q16_results():
    return {name: run_scenario(ExperimentSpec("tpcds-q16", name))
            for name in SCENARIO_NAMES}


def test_tpcds_baseline_in_paper_band(q16_results):
    """Paper: 'most of these queries finish under, or at about, 60s'."""
    assert q16_results["spark_R_vm"].duration_s < 75.0


def test_tpcds_under_provisioned_multiples(q16_results):
    base = q16_results["spark_R_vm"].duration_s
    assert q16_results["spark_r_vm"].duration_s > 2.3 * base


def test_tpcds_ss_vm_close_to_vanilla(q16_results):
    """Paper: 'SS 32 VM compares closely with Spark 32 VM ... only 1.6x
    poorer in the worst case'."""
    base = q16_results["spark_R_vm"].duration_s
    assert q16_results["ss_R_vm"].duration_s < 1.6 * base


def test_tpcds_ss_lambda_within_paper_worst_case(q16_results):
    """Paper: SS 32 La at worst ~2.3x poorer than Spark 32 VM."""
    base = q16_results["spark_R_vm"].duration_s
    assert q16_results["ss_R_la"].duration_s < 2.3 * base


def test_tpcds_hybrid_beats_autoscale_by_half(q16_results):
    """Paper: 'SS 8 VM / 24 La takes 55.2% less execution time compared
    to VM based autoscaling' (average)."""
    autoscale = q16_results["spark_autoscale"].duration_s
    hybrid = q16_results["ss_hybrid"].duration_s
    improvement = 1 - hybrid / autoscale
    assert 0.4 < improvement < 0.7


def test_tpcds_qubole_order_of_magnitude_slower(q16_results):
    """Paper: Qubole takes 21.7x more execution time on average."""
    base = q16_results["spark_R_vm"].duration_s
    assert q16_results["qubole_R_la"].duration_s > 10 * base


def test_tpcds_q5_fails_on_qubole():
    """Paper footnote 11: Qubole's prototype hits fatal errors on Q5."""
    result = run_scenario(ExperimentSpec("tpcds-q5", "qubole_R_la"))
    assert result.failed
    assert math.isnan(result.duration_s)
    assert "fatal error" in result.failure_reason


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------

def test_costs_are_positive_and_broken_down(pagerank_results):
    for name, result in pagerank_results.items():
        if result.failed:
            continue
        assert result.cost > 0
        assert result.cost == pytest.approx(
            sum(result.cost_breakdown.values()))


def test_lambda_scenarios_bill_lambdas(pagerank_results):
    for name in ("qubole_R_la", "ss_R_la", "ss_hybrid"):
        assert pagerank_results[name].cost_breakdown.get("lambda", 0) > 0


def test_vm_only_scenarios_have_no_lambda_cost(pagerank_results):
    for name in ("spark_r_vm", "spark_R_vm", "spark_autoscale", "ss_R_vm"):
        assert pagerank_results[name].cost_breakdown.get("lambda", 0) == 0


def test_qubole_pays_s3_request_costs(q16_results):
    assert q16_results["qubole_R_la"].cost_breakdown.get("storage:s3", 0) > 0


def test_deterministic_given_seed():
    a = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid", seed=11))
    b = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid", seed=11))
    assert a.duration_s == b.duration_s
    assert a.cost == b.cost


def test_seed_changes_durations():
    a = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid", seed=1))
    b = run_scenario(ExperimentSpec("sparkpi", "ss_hybrid", seed=2))
    assert a.duration_s != b.duration_s


def test_trace_kept_only_on_request():
    spec = ExperimentSpec("sparkpi", "ss_hybrid")
    with_trace = run_scenario(spec, keep_trace=True)
    without = run_scenario(spec, keep_trace=False)
    assert with_trace.trace is not None and len(with_trace.trace) > 0
    assert without.trace is None
