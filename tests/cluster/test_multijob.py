"""The multijob workload: arrival replay, metrics, and the determinism
gate — a multi-driver FAIR-pool run must be bit-identical whether specs
execute serially in-process or fanned out over worker processes."""

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.runner import run_spec
from repro.observability.metrics import percentile

BURST = {"mix": "sparkpi,pagerank-small", "n_jobs": 4,
         "mean_interarrival_s": 20.0, "pool_cores": 8, "mode": "fair",
         "max_concurrent": 2}


def _spec(seed=0, **overrides):
    return ExperimentSpec(workload="multijob", scenario="multijob",
                          seed=seed, extra={**BURST, **overrides})


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile([], 0.5) != percentile([], 0.5)  # NaN


def test_multijob_reports_cluster_metrics():
    record = run_spec(_spec())
    assert not record.failed and record.error is None
    m = record.metrics
    assert m["jobs"] == 4 and m["jobs_failed"] == 0
    assert 0 < m["p50_latency_s"] <= m["p95_latency_s"]
    assert m["p95_queueing_delay_s"] >= 0
    assert m["cost_per_job"] > 0
    assert record.cost == pytest.approx(4 * m["cost_per_job"])
    # Per-app cost attribution covers the whole bill.
    app_costs = [v for k, v in m.items()
                 if k.startswith("app.") and k.endswith(".cost")]
    assert len(app_costs) == 4
    assert sum(app_costs) == pytest.approx(record.cost)


def test_multijob_serial_and_parallel_runs_are_bit_identical():
    """The determinism gate for the shared pool: two multi-driver FAIR
    runs produce byte-identical records whether executed serially
    in-process or through ``--workers 2`` subprocess fan-out."""
    specs = [_spec(seed=0),
             _spec(seed=1, pool_style="hybrid_segue", lambda_cores=4)]
    serial = [run_spec(spec).canonical() for spec in specs]
    parallel = ExperimentRunner(workers=2, cache=False).run(specs)
    assert [r.canonical() for r in parallel] == serial


def test_multijob_repeated_run_is_deterministic():
    a = run_spec(_spec(seed=7)).canonical()
    b = run_spec(_spec(seed=7)).canonical()
    assert a == b


def test_hybrid_pool_absorbs_the_burst():
    vm = run_spec(_spec()).metrics
    hybrid = run_spec(_spec(pool_style="hybrid_segue",
                            lambda_cores=8)).metrics
    assert hybrid["p95_latency_s"] < vm["p95_latency_s"]


def test_multijob_parameter_validation():
    # run_spec captures harness errors on the record, one per bad knob.
    bad_mix = run_spec(_spec(mix=" , "))
    assert bad_mix.failed and "mix" in bad_mix.failure_reason
    bad_mode = run_spec(_spec(mode="lifo"))
    assert bad_mode.failed and "mode" in bad_mode.failure_reason
    bad_style = run_spec(_spec(pool_style="spot"))
    assert bad_style.failed and "pool_style" in bad_style.failure_reason
