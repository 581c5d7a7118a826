"""Deterministic work counts for two multijob replays.

Wall time on a shared machine swings with the host's load, by up to
~1.7x between phases on a small cloud VM. The number of bytecodes the
replay executes does not swing: for a fixed spec and seed it is the
same on every run, and neither is the peak of the memory it allocates.
For each replay this script runs it once to warm up (imports, lazily
built tables), then runs it again under a ``sys.settrace`` opcode
counter, and, in a fresh interpreter that warms up the same way, once
more under ``tracemalloc``; it prints, per replay:

- ``bytecodes``: opcodes executed by Python frames during the replay;
- ``python_calls``: Python frame entries (generator resumptions count
  as entries, as ``sys.settrace`` reports them);
- ``events_processed``: simulated events the kernel dispatched;
- ``traced_peak_bytes``: the peak of the bytes the replay's live
  Python allocations held (``tracemalloc``, in its own pass, since the
  opcode counter allocates too).

The replays match two workloads in ``BENCHMARK.json``, at seed 0:

- ``replay-fair``: a 240-job mix of ``sparkpi`` and ``pagerank-small``,
  20 s mean gap, one 8-core FAIR VM pool, unlimited admission;
- ``replay-split``: one of its worlds, 40 jobs of the same mix at a
  90 s mean gap on 8 VM plus 8 Lambda cores (``hybrid_segue``, HDFS
  shuffle), admission 4, split by the ``planner`` policy.

A counted replay runs ~40x slower than an untraced one (a few minutes
for both)::

    PYTHONPATH=src python benchmarks/bench_work_counts.py

Run against two source trees, the counts say how much interpreter work a
change removed; ``events_processed`` must match for a pure speed change.
They leave out work done in C (builtins, allocation, garbage
collection), so they are a repeatable measure of Python-level work, not
the size of a wall-time change. Likewise ``traced_peak_bytes`` counts
the bytes Python asked for, not the process's resident memory
(``peak_rss_mb`` in perfbench), which also holds the interpreter, the
allocator's free pages and everything imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec

#: ``replay-fair``'s world: mix, gap, pool and admission.
REPLAY_FAIR = {"mix": "sparkpi,pagerank-small", "n_jobs": 240,
               "mean_interarrival_s": 20.0, "pool_cores": 8,
               "pool_style": "vm", "mode": "fair", "max_concurrent": 0}
#: A ``replay-split`` world: the same mix on a bridged and segued pool.
REPLAY_SPLIT = dict(REPLAY_FAIR, n_jobs=40, mean_interarrival_s=90.0,
                    pool_style="hybrid_segue", lambda_cores=8,
                    max_concurrent=4)
#: Counted replay -> (its extra, its policy).
REPLAYS = {"replay-fair": (REPLAY_FAIR, {}),
           "replay-split": (REPLAY_SPLIT, {"name": "planner"})}


def replay_spec(n_jobs: int = 240, replay: str = "replay-fair"
                ) -> ExperimentSpec:
    extra, policy = REPLAYS[replay]
    return ExperimentSpec(workload="multijob", scenario="multijob",
                          seed=0, extra=dict(extra, n_jobs=n_jobs),
                          policy=policy)


def counted_replay(spec: ExperimentSpec) -> dict:
    """Run ``spec`` once under the opcode counter; return its counts."""
    counts = [0, 0]

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return on_opcode

    def on_call(frame, event, arg):
        counts[1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        record = run_spec(spec)
    finally:
        sys.settrace(None)
    if record.error is not None or record.failed:
        raise RuntimeError(f"replay failed: {record.failure_reason}")
    return {"bytecodes": counts[0], "python_calls": counts[1],
            "events_processed": int(record.metrics["events_processed"])}


def traced_peak_bytes(n_jobs: int = 240, replay: str = "replay-fair") -> int:
    """The ``tracemalloc`` peak of one warmed replay, measured in a
    fresh interpreter with a fixed string-hash seed. Repeated in one
    process, the peak drifts by up to a few KB from pass to pass with
    the allocator state the earlier passes leave; across fresh
    interpreters with random hash seeds it varies too (one 240-job run
    in four read 8 KiB less). A fresh interpreter with a fixed seed
    repeats it to the byte."""
    code = (f"import runpy, sys; sys.path[:0] = {sys.path!r}; "
            f"print(runpy.run_path({__file__!r})"
            f"['_warm_traced_peak']({n_jobs}, {replay!r}))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def _warm_traced_peak(n_jobs: int, replay: str) -> int:
    spec = replay_spec(n_jobs, replay)
    run_spec(spec)
    tracemalloc.start()
    try:
        record = run_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if record.error is not None or record.failed:
        raise RuntimeError(f"replay failed: {record.failure_reason}")
    return peak


def work_counts(n_jobs: int = 240, replay: str = "replay-fair") -> dict:
    """One warm-up replay, then the counted one; then the memory pass."""
    spec = replay_spec(n_jobs, replay)
    run_spec(spec)
    counts = counted_replay(spec)
    counts["traced_peak_bytes"] = traced_peak_bytes(n_jobs, replay)
    return counts


@pytest.mark.smoke
@pytest.mark.parametrize("replay, n_jobs", [("replay-fair", 6),
                                            ("replay-split", 4)])
def test_smoke_work_counts_repeat_exactly(replay, n_jobs):
    first = work_counts(n_jobs, replay)
    again = counted_replay(replay_spec(n_jobs, replay))
    again["traced_peak_bytes"] = traced_peak_bytes(n_jobs, replay)
    assert first == again
    assert first["bytecodes"] > first["python_calls"] > 0
    assert first["events_processed"] > 1_000
    assert first["traced_peak_bytes"] > 0


def main() -> int:
    for replay, (extra, _policy) in REPLAYS.items():
        print(replay)
        for name, value in work_counts(extra["n_jobs"], replay).items():
            print(f"  {name:<18} {value:>14,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
