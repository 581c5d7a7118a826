"""Figure 6: PageRank (850k pages) across the §5.1 scenarios.

Paper's findings at R=16, r=3 with the single HDFS node colocated with
the master on an m4.xlarge (750 Mbps EBS):
- r=3 degrades performance ~2.1x; VM autoscaling is still ~2x;
- Qubole's S3 shuffle adds >60%; SplitServe's HDFS shuffle only ~27%;
- hybrid VM+Lambda improves on VM scaling by ~32%;
- with segue, still ~24% faster than VM scaling, with Lambda spend cut.
"""

from repro.analysis.reporting import format_bar_chart, format_table, relative_to
from repro.core.scenarios import SCENARIO_NAMES, run_scenario
from repro.experiments import ExperimentSpec
from repro.workloads import PageRankWorkload
from benchmarks.conftest import run_once


def run_fig6():
    return {name: run_scenario(ExperimentSpec("pagerank", name))
            for name in SCENARIO_NAMES}


def test_fig6_pagerank(benchmark, emit):
    results = run_once(benchmark, run_fig6)
    spec = PageRankWorkload().spec
    base = results["spark_R_vm"].duration_s
    entries = [(results[name].label(spec), results[name].duration_s,
                relative_to(base, results[name].duration_s))
               for name in SCENARIO_NAMES]
    chart = format_bar_chart(entries)
    cost_rows = [[results[name].label(spec), f"${results[name].cost:.4f}",
                  f"${results[name].cost_breakdown.get('lambda', 0):.4f}"]
                 for name in SCENARIO_NAMES if not results[name].failed]
    costs = format_table(["scenario", "total cost", "lambda share"],
                         cost_rows, title="marginal cost per scenario")
    emit("Figure 6 — PageRank across scenarios", chart + "\n\n" + costs)

    assert 1.8 < results["spark_r_vm"].duration_s / base < 2.7
    assert 1.6 < results["spark_autoscale"].duration_s / base < 2.4
    assert results["qubole_R_la"].duration_s / base > 1.45
    assert 1.05 < results["ss_R_la"].duration_s / base < 1.45
    hybrid_gain = 1 - (results["ss_hybrid"].duration_s
                       / results["spark_autoscale"].duration_s)
    segue_gain = 1 - (results["ss_hybrid_segue"].duration_s
                      / results["spark_autoscale"].duration_s)
    assert hybrid_gain > 0.2
    assert segue_gain > 0.1
    # Segueing trims the Lambda bill relative to the no-segue hybrid.
    assert (results["ss_hybrid_segue"].cost_breakdown.get("lambda", 1)
            < results["ss_hybrid"].cost_breakdown.get("lambda", 0))
    print(f"\nhybrid improvement vs autoscale: {hybrid_gain:.1%} (paper: 32%)")
    print(f"segue improvement vs autoscale: {segue_gain:.1%} (paper: 24%)")
