"""Figure 9: SparkPi (1e10 darts, 64 executors) across scenarios.

Paper's findings: with no shuffle to speak of, every substrate — vanilla,
Qubole, SS all-VM, SS all-Lambda, SS split — performs close to the
baseline; only the under-provisioned 4-core run suffers ("more than
twice as long", in fact a full work-serialization multiple).
"""

from repro.analysis.reporting import format_bar_chart, relative_to
from repro.core.scenarios import SCENARIO_NAMES, run_scenario
from repro.experiments import ExperimentSpec
from repro.workloads import SparkPiWorkload
from benchmarks.conftest import run_once


def run_fig9():
    return {name: run_scenario(ExperimentSpec("sparkpi", name))
            for name in SCENARIO_NAMES}


def test_fig9_sparkpi(benchmark, emit):
    results = run_once(benchmark, run_fig9)
    spec = SparkPiWorkload().spec
    base = results["spark_R_vm"].duration_s
    entries = [(results[name].label(spec), results[name].duration_s,
                relative_to(base, results[name].duration_s))
               for name in SCENARIO_NAMES]
    emit("Figure 9 — SparkPi across scenarios", format_bar_chart(entries))

    # "more than twice as long" for the under-provisioned run.
    assert results["spark_r_vm"].duration_s > 2 * base
    # All-substrate parity in the no-shuffle regime.
    for name in ("ss_R_vm", "ss_R_la", "ss_hybrid", "ss_hybrid_segue"):
        assert results[name].duration_s < 1.10 * base
    assert results["qubole_R_la"].duration_s < 1.4 * base
