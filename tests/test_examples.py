"""Smoke tests: every shipped example runs end to end and says what it
promises. These are the repo's user-facing entry points, so they get
executed, not just linted."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Spark 16 VM" in out
    assert "SS 3 VM / 13 La" in out
    assert "beats VM-based autoscaling" in out


def test_tpcds_burst():
    out = run_example("tpcds_burst.py")
    for query in ("q5", "q16", "q94", "q95"):
        assert query in out
    assert "55.2%" in out  # cites the paper's number


def test_pagerank_segue():
    out = run_example("pagerank_segue.py")
    assert out.count("finished in") == 3
    assert "segue commenced" in out
    assert "#" in out  # timelines rendered


def test_autoscaling_day():
    out = run_example("autoscaling_day.py")
    assert "m(t)" in out
    assert "Cost manager plan" in out


def test_kmeans_reference():
    out = run_example("kmeans_reference.py")
    assert "clustered" in out
    assert "JVM overhead factor" in out
    assert "SS 16 La" in out


def test_flink_style_stream():
    out = run_example("flink_style_stream.py")
    rows = {line.split("  ")[0]: line.split() for line in out.splitlines()
            if line.startswith(("vanilla (queue)", "SplitServe bridge"))}
    # The bridged pipeline stays on time; the vanilla one misses half.
    assert "100%" in rows["SplitServe bridge"]
    assert "50%" in rows["vanilla (queue)"]
