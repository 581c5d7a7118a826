"""The Lambda billing rule, end to end: the provider bills each container
once, invocation → stop, whether its function returns (a drain or a
run's settlement) or the provider reaps it at the lifetime cap."""

from repro.cloud.constants import LAMBDA_LIFETIME_S
from repro.cloud.pricing import lambda_cost
from repro.cluster.runtime import ClusterRuntime
from repro.core.scenarios import run_split
from repro.experiments.runner import run_spec
from repro.experiments.spec import PLANNED_SCENARIO, ExperimentSpec


def test_reaped_lambda_of_a_split_run_is_billed_once():
    """K-means on one VM core and one Lambda core outlives the Lambda:
    the provider reaps it at 900 s, and that container is billed."""
    runtime = ClusterRuntime(0)
    result = run_split(runtime, ExperimentSpec("kmeans", PLANNED_SCENARIO),
                       vm_cores=1, lambda_cores=1)
    assert result.duration_s == 1417.8412755189954
    assert runtime.meter.intervals("lambda") == [
        ("lambda-0", 0.0, LAMBDA_LIFETIME_S)]
    assert runtime.meter.breakdown()["lambda"] == lambda_cost(
        1536, LAMBDA_LIFETIME_S)
    assert runtime.meter.breakdown()["lambda"] == 0.022500245


def test_pooled_lambdas_outliving_the_cap_are_billed_once():
    """A pooled replay whose segue comes after the 900 s cap: each of its
    four Lambdas is reaped, and billed once."""
    record = run_spec(ExperimentSpec(
        "multijob", "multijob", seed=0, segue_at_s=2000.0,
        extra={"n_jobs": 30, "mean_interarrival_s": 60.0,
               "pool_style": "hybrid_segue", "lambda_cores": 4,
               "pool_cores": 4}))
    assert record.duration_s == 3708.015869684815
    assert record.cost_breakdown["vm"] == 0.5070555555555556
    assert record.cost_breakdown["lambda"] == sum(
        [lambda_cost(1536, LAMBDA_LIFETIME_S)] * 4)
    assert record.cost_breakdown["lambda"] == 0.09000098


def test_drained_container_is_billed_at_its_drain():
    """A segue drains every Lambda executor; each container is billed
    once, at its executor's drain, right after the scheduler records
    it."""
    runtime = ClusterRuntime(3, trace_enabled=True)
    spec = ExperimentSpec("sparkpi", PLANNED_SCENARIO, seed=3)
    wspec = spec.make_workload().spec
    shortfall = wspec.shortfall_cores
    run_split(runtime, spec, vm_cores=wspec.available_cores,
              lambda_cores=shortfall, segue_cores=shortfall,
              segue_at_s=10.0)
    billed = [r for r in runtime.meter.records if r.kind == "lambda"]
    assert len(billed) == len({r.name for r in billed}) == shortfall
    first = billed[0]
    assert (first.name, first.start, first.end, first.cost) == (
        "lambda-30", 0.0, 23.900182248877694, 0.0006002012)
    rows = runtime.recorder.records
    at = next(i for i, row in enumerate(rows)
              if row.name == "executor_drained"
              and row.get("kind") == "lambda")
    assert rows[at].time == first.end
    returned = rows[at + 1]
    assert (returned.category, returned.name, returned.get("fn")) == (
        "lambda", "finished", "lambda-30")
