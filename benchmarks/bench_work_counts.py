"""Deterministic work counts for one multijob replay.

Wall time on a shared machine swings with the host's load, by up to
~1.7x between phases on a small cloud VM. The number of bytecodes the
replay executes does not swing: for a fixed spec and seed it is the
same on every run. This script runs one replay to warm up (imports,
lazily built tables), then runs the same replay again under a
``sys.settrace`` opcode counter and prints:

- ``bytecodes``: opcodes executed by Python frames during the replay;
- ``python_calls``: Python frame entries (generator resumptions count
  as entries, as ``sys.settrace`` reports them);
- ``events_processed``: simulated events the kernel dispatched.

The replay matches ``replay-fair`` in ``BENCHMARK.json``: a 240-job mix
of ``sparkpi`` and ``pagerank-small``, 20 s mean gap, one 8-core FAIR VM
pool, unlimited admission, seed 0. The counted replay runs ~40x slower
than an untraced one (a few minutes)::

    PYTHONPATH=src python benchmarks/bench_work_counts.py

Run against two source trees, the counts say how much interpreter work a
change removed; ``events_processed`` must match for a pure speed change.
They leave out work done in C (builtins, allocation, garbage
collection), so they are a repeatable measure of Python-level work, not
the size of a wall-time change.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec

#: ``replay-fair``'s world: mix, gap, pool and admission.
REPLAY_FAIR = {"mix": "sparkpi,pagerank-small", "n_jobs": 240,
               "mean_interarrival_s": 20.0, "pool_cores": 8,
               "pool_style": "vm", "mode": "fair", "max_concurrent": 0}


def replay_spec(n_jobs: int = 240) -> ExperimentSpec:
    return ExperimentSpec(workload="multijob", scenario="multijob",
                          seed=0, extra=dict(REPLAY_FAIR, n_jobs=n_jobs))


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


def work_counts(n_jobs: int = 240) -> dict:
    """One warm-up replay, then the counted one."""
    spec = replay_spec(n_jobs)
    run_spec(spec)
    return counted_replay(spec)


@pytest.mark.smoke
def test_smoke_work_counts_repeat_exactly():
    first = work_counts(n_jobs=6)
    again = counted_replay(replay_spec(n_jobs=6))
    assert first == again
    assert first["bytecodes"] > first["python_calls"] > 0
    assert first["events_processed"] > 1_000


def main() -> int:
    for name, value in work_counts().items():
        print(f"{name:<18} {value:>14,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
