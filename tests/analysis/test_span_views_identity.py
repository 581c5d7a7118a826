"""Byte-identity pins for the views derived from a run's event stream.

Two text views are read off the events rather than off the RunRecord:
the Figure 7 executor timeline that ``repro run --timeline`` prints,
and the stage and executor-utilization tables that ``repro report``
prints for an ``--events-out`` log. This module pins the sha256 of both
stdouts for the three Figure 7 PageRank runs, a segued SparkPi run, and
the three faulted runs of ``tests/simulation/test_fault_identity.py``
(killed executors, lost tasks, revoked VMs).

The digests were taken before the three interval reconstructions those
views used were folded into one span model, and must not move: a change
to the simulated behaviour behind them, or to the text a view prints,
is the only reason to update them.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from tests.simulation.test_fault_identity import CASES as FAULT_CASES

#: (workload, scenario, seed, fault plan or None) per pinned run.
RUNS = {
    "pagerank-spark_R_vm-s0": ("pagerank", "spark_R_vm", 0, None),
    "pagerank-ss_hybrid-s0": ("pagerank", "ss_hybrid", 0, None),
    "pagerank-ss_hybrid_segue-s0": ("pagerank", "ss_hybrid_segue", 0, None),
    "sparkpi-ss_hybrid_segue-s3": ("sparkpi", "ss_hybrid_segue", 3, None),
    **FAULT_CASES,
}

#: sha256 of (timeline stdout, event-log report stdout) per run.
PINNED = {
    "kmeans-ss_R_vm-s0": (
        "e6664ee4f7994f5efa015965d856ea59cdba9590fe3a59a6c282ab8198927487",
        "fa4c3ba0f58af256547cbdc4d868762332ceaaf8e1187c8c4233a4811e4fca60"),
    "pagerank-small-ss_hybrid_segue-s2": (
        "25199445266f2ad52eacfd774ba7bbf820765b9f4fb14541f717594c1c11a9ad",
        "b5fe4e367284dbb1f14b1e9324a0c1a3fec806aa1ab9b94d079ff3b8863048e8"),
    "pagerank-spark_R_vm-s0": (
        "13b569c87ad5185ec8d1b2478385954519795f5cf5c85851d90196844d63124e",
        "29cbf6727732206f7716bbaf86483a2f37e9f2951a184794ec13df171b0d39a1"),
    "pagerank-ss_hybrid-s0": (
        "aa64b4bed2651e708a68422c5352932bc4a5c98c2144bdb2b722bc8f7a7908a5",
        "9c70b929441d5eb4338770350745aa182e40a709e23b6823a7668b0316a427a9"),
    "pagerank-ss_hybrid_segue-s0": (
        "3aac75591f0c09f811568b5bfa1734c2f3d01f316ab787de37882b3cd4c68657",
        "d59fe2ec164b00c9ced74a213646d152c2b84dfa6ebf4dcee3fe41992b7fd1a0"),
    # The table row's label reads "SS 4 VM / 55 La", as the timeline
    # header does: 5 of the 60 launch slots fell back to VM cores.
    "sparkpi-ss_hybrid-s1": (
        "61f0805433795f751a201fb07caeb8f37ce15109de9accb9e148ac04c1a4b772",
        "563adaf782f1203a3d544daf9de6eaa854015c7e04cb87d8b5ddb6fdeef1d876"),
    "sparkpi-ss_hybrid_segue-s3": (
        "ae4b6cb7991ae0b23d544fc7578b4d1ff11142f56088a1a5e9f1d6e06bc3a095",
        "b5a107e028322c4eb5a49014cc6e296a618e1423824359420cd9379445845cff"),
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _views(case):
    """(``run --timeline`` stdout, ``report <events>`` stdout)."""
    workload, scenario, seed, plan = RUNS[case]
    argv = ["run", "--workload", workload, "--scenario", scenario,
            "--seed", str(seed)]
    if plan is not None:
        argv += ["--faults", json.dumps(plan)]
    timeline = _stdout(argv + ["--timeline"])
    with tempfile.TemporaryDirectory() as tmp:
        events = str(pathlib.Path(tmp) / "events.jsonl")
        _stdout(argv + ["--events-out", events])
        report = _stdout(["report", events])
    return timeline, report


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(RUNS))
def test_span_views_match_pin(case):
    timeline, report = _views(case)
    assert "--- timeline:" in timeline
    assert "executor utilization:" in report
    timeline_pin, report_pin = PINNED[case]
    assert _sha256(timeline) == timeline_pin, (
        f"{case}: the --timeline output drifted from its pin")
    assert _sha256(report) == report_pin, (
        f"{case}: the event-log report drifted from its pin")
