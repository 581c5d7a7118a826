#!/usr/bin/env python3
"""Segueing in action: the Figure 7 story, rendered as ASCII timelines.

Runs PageRank three ways — all-VM vanilla Spark, SplitServe hybrid
(3 VM cores + 13 Lambdas), and hybrid with a segue to VM cores that
free up at 45 s — then prints each run's executor timeline so you can
watch the Lambdas drain onto the freed VM cores without a single task
failure.

Run:  python examples/pagerank_segue.py
"""

from repro.analysis.timeline import render_timeline
from repro.core import run_scenario
from repro.experiments import ExperimentSpec
from repro.observability.export import event_log_dicts
from repro.observability.spans import ROLE_SEGUE, run_spans, span_role


def main() -> None:
    setups = [
        ("spark_R_vm", "(i) Vanilla Spark on 16 VM cores"),
        ("ss_hybrid", "(ii) SplitServe: 3 VM cores + 13 Lambdas"),
        ("ss_hybrid_segue",
         "(iii) as (ii), segue to VM cores freed at 45 s"),
    ]
    for scenario, title in setups:
        result = run_scenario(ExperimentSpec("pagerank", scenario),
                              keep_trace=True)
        spans = run_spans(event_log_dicts(result.trace))
        print(f"\n{title} — finished in {result.duration_s:.1f}s, "
              f"cost ${result.cost:.4f}")
        print(render_timeline(spans, width=64))
        for segue in (s for s in spans if span_role(s) == ROLE_SEGUE):
            lambda_spend = result.cost_breakdown.get("lambda", 0.0)
            print(f"segue commenced at t={segue['start_s']:.1f}s; "
                  f"Lambda spend ${lambda_spend:.4f}")

    print("\nKey observation: in (iii) every Lambda finishes its current "
          "task and deregisters — no Failed tasks, no lineage rollback — "
          "exactly the graceful decommissioning of §4.3.")


if __name__ == "__main__":
    main()
