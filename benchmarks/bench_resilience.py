"""Resilience benches: fault injection against the §4.3 shuffle design.

Three experiments, all driven by declarative
:class:`~repro.simulation.faults.FaultSpec` plans on ExperimentSpecs:

1. **Rollback contrast** — kill one executor mid-reduce-stage under
   vanilla Spark (executor-local shuffle) and under SplitServe (HDFS
   shuffle). The local variant loses the dead host's map outputs and
   pays lineage rollback; the HDFS variant only re-runs the in-flight
   task (§4.3: "the map outputs survive executor loss").
2. **Spot-revocation sweep** — TR-Spark's problem framing: revoke a
   whole worker VM at points across the job and compare the recovery
   bill for the two shuffle designs.
3. **Throttle fallback** — cap Lambda concurrency at zero and show a
   hybrid job completes by degrading onto free VM cores instead of
   stalling (graceful degradation in the launching facility).
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.scenarios import run_scenario
from repro.experiments import ExperimentRunner, ExperimentSpec
from benchmarks.conftest import run_once

#: Two-stage synthetic job: maps finish ~20s, job ~42s on 8 cores.
SYN = dict(stages=2, core_seconds_per_stage=160.0,
           shuffle_bytes_per_boundary=64 * 1024 * 1024,
           required_cores=8, available_cores=6, worker_itype="m4.xlarge")

#: Mid-reduce-stage kill moment (after the map boundary at ~20s).
KILL_AT_S = 25.0
#: Revocation moments across the job for the sweep.
REVOKE_AT_SWEEP = (10.0, 25.0, 35.0)


def _spec(scenario, faults=(), seed=2):
    return ExperimentSpec(workload="synthetic", scenario=scenario,
                          seed=seed, workload_params=SYN, faults=faults)


# ---------------------------------------------------------------------------
# 1. Rollback contrast (§4.3)
# ---------------------------------------------------------------------------

def run_rollback_contrast():
    kill = (dict(kind="executor_kill", at_s=KILL_AT_S, target="any",
                 count=1),)
    out = {}
    for scenario in ("spark_R_vm", "ss_R_vm"):
        clean = run_scenario(_spec(scenario))
        faulted = run_scenario(_spec(scenario, faults=kill))
        out[scenario] = (clean, faulted)
    return out


def test_rollback_contrast(benchmark, emit):
    results = run_once(benchmark, run_rollback_contrast)
    rows = []
    for scenario, (clean, faulted) in results.items():
        rec = faulted.metrics
        rows.append([scenario, f"{clean.duration_s:.1f}s",
                     f"{faulted.duration_s:.1f}s",
                     f"{faulted.duration_s - clean.duration_s:+.1f}s",
                     f"{rec['rollback_recompute_s']:.1f}s",
                     f"{rec['time_to_recovery_max_s']:.1f}s"])
    emit("Resilience — executor kill mid-reduce: local vs HDFS shuffle",
         format_table(["scenario", "clean", "faulted", "added",
                       "rollback recompute", "time to recovery"], rows))

    spark_clean, spark_faulted = results["spark_R_vm"]
    ss_clean, ss_faulted = results["ss_R_vm"]
    added_spark = spark_faulted.duration_s - spark_clean.duration_s
    added_ss = ss_faulted.duration_s - ss_clean.duration_s
    # HDFS shuffle keeps the dead executor's map outputs: no lineage
    # rollback, strictly cheaper recovery than local shuffle.
    assert not spark_faulted.failed and not ss_faulted.failed
    assert added_ss < added_spark
    assert ss_faulted.metrics["rollback_recompute_s"] == 0.0
    assert spark_faulted.metrics["rollback_recompute_s"] > 0.0


# ---------------------------------------------------------------------------
# 2. Spot-revocation sweep (TR-Spark framing)
# ---------------------------------------------------------------------------

def run_revocation_sweep():
    out = {}
    for revoke_at in REVOKE_AT_SWEEP:
        revoke = (dict(kind="spot_revocation", at_s=revoke_at,
                       target="vm:vm-*", count=1),)
        out[revoke_at] = {scenario: run_scenario(_spec(scenario,
                                                       faults=revoke))
                          for scenario in ("spark_R_vm", "ss_R_vm")}
    return out


def test_spot_revocation_sweep(benchmark, emit):
    results = run_once(benchmark, run_revocation_sweep)
    rows = []
    for revoke_at, by_scenario in results.items():
        spark, ss = by_scenario["spark_R_vm"], by_scenario["ss_R_vm"]
        rows.append([f"t={revoke_at:.0f}s",
                     f"{spark.duration_s:.1f}s "
                     f"({spark.metrics['rollback_recompute_s']:.1f}s rb)",
                     f"{ss.duration_s:.1f}s "
                     f"({ss.metrics['rollback_recompute_s']:.1f}s rb)"])
    emit("Resilience — whole-VM revocation sweep",
         format_table(["revoked at", "local shuffle (vanilla)",
                       "HDFS shuffle (SplitServe)"], rows))

    for revoke_at, by_scenario in results.items():
        spark, ss = by_scenario["spark_R_vm"], by_scenario["ss_R_vm"]
        assert not spark.failed and not ss.failed
        assert spark.metrics["executors_lost"] >= 1
        assert ss.metrics["rollback_recompute_s"] == 0.0
    # Post-map revocations trigger rollback only under local shuffle,
    # so the HDFS design recovers faster.
    for revoke_at in (25.0, 35.0):
        spark = results[revoke_at]["spark_R_vm"]
        ss = results[revoke_at]["ss_R_vm"]
        assert spark.metrics["rollback_recompute_s"] > 0.0
        assert ss.duration_s < spark.duration_s


# ---------------------------------------------------------------------------
# 3. Throttle fallback (graceful degradation)
# ---------------------------------------------------------------------------

def run_throttled_hybrid():
    throttle = (dict(kind="lambda_throttle", at_s=0.0, duration_s=1e4,
                     limit=0),)
    return (run_scenario(_spec("ss_hybrid")),
            run_scenario(_spec("ss_hybrid", faults=throttle)))


def test_throttle_fallback(benchmark, emit):
    clean, throttled = run_once(benchmark, run_throttled_hybrid)
    rec = throttled.metrics
    emit("Resilience — hybrid job under a zero-concurrency Lambda cap",
         format_table(
             ["run", "time", "lambda tasks", "fallback cores", "unfilled"],
             [["clean", f"{clean.duration_s:.1f}s",
               clean.tasks_by_kind.get("lambda", 0), "-", "-"],
              ["throttled", f"{throttled.duration_s:.1f}s",
               throttled.tasks_by_kind.get("lambda", 0),
               rec["lambda_fallback_cores"], rec["unfilled_cores"]]]))

    # The throttled run must complete on VM cores, not fail or stall.
    assert not throttled.failed
    assert throttled.tasks_by_kind.get("lambda", 0) == 0
    assert rec["lambda_fallback_cores"] == 2  # the 2 free cluster cores
    assert rec["failed_lambda_invocations"] > 0
    # Clean hybrid actually uses Lambdas, so the contrast is real.
    assert clean.tasks_by_kind.get("lambda", 0) > 0


# ---------------------------------------------------------------------------
# Smoke
# ---------------------------------------------------------------------------

@pytest.mark.smoke
def test_smoke_one_faulted_run(tmp_path):
    spec = ExperimentSpec(
        workload="synthetic", scenario="ss_R_vm", seed=0,
        workload_params=dict(stages=2, core_seconds_per_stage=16.0,
                             shuffle_bytes_per_boundary=8 * 1024 * 1024,
                             required_cores=4, available_cores=2,
                             worker_itype="m4.xlarge"),
        faults=(dict(kind="executor_kill", at_s=3.0, target="any",
                     count=1),))
    runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path))
    [record] = runner.run([spec])
    assert record.error is None and not record.failed
    assert record.metrics["faults_injected"] == 1
    assert record.metrics["executors_lost"] == 1
