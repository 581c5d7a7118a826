"""Figure 7: PageRank execution timelines under three setups.

(i) vanilla Spark on 16 VM cores; (ii) SplitServe with 3 VM cores + 13
Lambdas; (iii) the same with a segue to VM cores that free up at 45 s.
The thin '+' marks are executor starts (the paper's thin red bars); 'S'
on the stage axis marks when the segue commences (the blue bar).
"""

import pytest

from repro.analysis.timeline import render_timeline
from repro.core.scenarios import run_scenario
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
from benchmarks.conftest import run_once


def run_fig7():
    scenarios = ["spark_R_vm", "ss_hybrid", "ss_hybrid_segue"]
    return {name: run_scenario(ExperimentSpec("pagerank", name),
                               keep_trace=True)
            for name in scenarios}


def _executors(spans, kind):
    return [s for s in spans if span_role(s) == ROLE_EXECUTOR
            and s["attrs"]["kind"] == kind]


def _of_role(spans, role):
    return [s for s in spans if span_role(s) == role]


@pytest.mark.smoke
def test_fig7_timelines(benchmark, emit):
    results = run_once(benchmark, run_fig7)
    blocks = []
    titles = {
        "spark_R_vm": "(i) Vanilla Spark, 16 VM cores",
        "ss_hybrid": "(ii) SplitServe, 3 VM cores + 13 Lambdas",
        "ss_hybrid_segue": "(iii) as (ii), segue to VM cores at 45 s",
    }
    spans = {}
    for name, result in results.items():
        spans[name] = run_spans(event_log_dicts(result.trace))
        blocks.append(titles[name] + f"  (total {result.duration_s:.1f}s)\n"
                      + render_timeline(spans[name], width=64))
    emit("Figure 7 — PageRank execution timelines", "\n\n".join(blocks))

    # (i): 16 VM executors, no Lambdas, 6 stages.
    vanilla = spans["spark_R_vm"]
    assert len(_executors(vanilla, "vm")) == 16
    assert len(_executors(vanilla, "lambda")) == 0
    assert len([s for s in _of_role(vanilla, ROLE_STAGE)
                if s["status"] == STATUS_OK]) == 6

    # (ii): 3 VM + 13 Lambda executors, no segue.
    hybrid = spans["ss_hybrid"]
    assert len(_executors(hybrid, "vm")) == 3
    assert len(_executors(hybrid, "lambda")) == 13
    assert _of_role(hybrid, ROLE_SEGUE) == []

    # (iii): segue commences shortly after the 45 s core availability.
    segue = spans["ss_hybrid_segue"]
    [mark] = _of_role(segue, ROLE_SEGUE)
    assert 40 < mark["start_s"] < 70
    # Replacement VM executors registered after the segue began.
    assert [e for e in _executors(segue, "vm") if e["start_s"] >= 44.0]
    # Lambdas stopped being used after draining: their last task ends
    # within a stage or two of the segue, well before the job's end.
    lambdas = {e["span_id"] for e in _executors(segue, "lambda")}
    lambda_ends = [t["end_s"] for t in _of_role(segue, ROLE_TASK)
                   if t["parent_span_id"] in lambdas]
    assert max(lambda_ends) < results["ss_hybrid_segue"].duration_s
