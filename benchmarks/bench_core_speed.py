"""Core simulator throughput: how fast does simulated time run?

Every other bench measures *simulated* outcomes (latency in simulated
seconds, dollars). This one measures the harness itself: raw kernel
event throughput (simulated events dispatched per wall-clock second)
and end-to-end job throughput on the ``multijob`` scenario — the same
shared-pool machinery ``repro serve`` drives continuously, so this
number bounds how much cluster a single serve process can simulate.

Two configurations are measured and written to ``BENCH_core.json`` at
the repository root (committed, so regressions in kernel or scheduler
hot paths show up in review diffs):

- the headline 12-job arrival burst on an 8-core FAIR pool (the
  baseline config every PR's number is compared against), and
- a 10× larger 120-job burst against the same pool, so the bench also
  exercises deep admission queues and long scheduler scans.

Measurement protocol: each figure is the **minimum wall time over
``repeats`` replays in one process** (first replay discarded as cold —
its figure is kept alongside for transparency). A single cold run
conflates import/allocator warm-up and OS scheduling noise with kernel
cost; min-of-N is the standard way (pyperf, pytest-benchmark) to read
the steady-state cost on a shared machine. ``events_processed`` and
``simulated_s`` are seed-deterministic and identical across replays —
only wall time varies — so the min is a noise filter, not a different
workload. Wall-clock figures are machine-dependent; the committed file
records the reference machine's numbers.

Run standalone for one-off measurement::

    PYTHONPATH=src python benchmarks/bench_core_speed.py            # measure
    PYTHONPATH=src python benchmarks/bench_core_speed.py --large    # 120-job config
    PYTHONPATH=src python benchmarks/bench_core_speed.py --check-floor 45000

For where the wall time goes, layer by layer, run
``python perfbench/run.py --workload replay-fair --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro.analysis.reporting import format_table
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec

#: The measured workload: a 12-job burst of small mixed jobs against one
#: shared 8-core FAIR pool, bounded admission so the queue is exercised.
CORE_SPEC = {"mix": "sparkpi,pagerank-small", "n_jobs": 12,
             "mean_interarrival_s": 20.0, "pool_cores": 8,
             "pool_style": "vm", "mode": "fair", "max_concurrent": 4}

#: 10× the headline burst against the same 8-core pool: with admission
#: capped at 4 the queue runs ~100 jobs deep, so scheduler scans, pool
#: re-sorts, and admission bookkeeping dominate differently than in the
#: short burst.
LARGE_JOBS = 120

#: Replays per figure (min-of-N protocol; see module docstring).
DEFAULT_REPEATS = 5

OUT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_core.json")


def _spec(n_jobs: int = None, seed: int = 0) -> ExperimentSpec:
    extra = dict(CORE_SPEC)
    if n_jobs is not None:
        extra["n_jobs"] = n_jobs
    return ExperimentSpec(workload="multijob", scenario="multijob",
                          seed=seed, extra=extra)


def measure_core_speed(n_jobs: int = None, seed: int = 0,
                       repeats: int = DEFAULT_REPEATS) -> dict:
    """Timed multijob replays reduced to the throughput figures.

    Runs the same deterministic replay ``repeats`` times and reports
    throughput at the minimum wall time (plus the cold and median
    figures, so the noise band is visible in the artifact).
    """
    walls = []
    record = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        record = run_spec(_spec(n_jobs=n_jobs, seed=seed))
        walls.append(time.perf_counter() - started)
        assert record.error is None and not record.failed, record.error
    m = record.metrics
    events = int(m["events_processed"])
    jobs = int(m["jobs"])
    wall_s = min(walls)
    ordered = sorted(walls)
    return {
        "scenario": "multijob",
        "params": dict(CORE_SPEC, n_jobs=jobs, seed=seed),
        "jobs": jobs,
        "events_processed": events,
        "simulated_s": record.duration_s,
        "repeats": len(walls),
        "wall_s": wall_s,
        "wall_s_cold": walls[0],
        "wall_s_median": ordered[len(ordered) // 2],
        "events_per_sec": events / wall_s,
        "jobs_per_sec": jobs / wall_s,
        "sim_speedup": record.duration_s / wall_s,
    }


def run_core_bench(repeats: int = DEFAULT_REPEATS) -> dict:
    """The full artifact written to ``BENCH_core.json``: the headline
    config and the 10× config."""
    headline = measure_core_speed(repeats=repeats)
    large = measure_core_speed(n_jobs=LARGE_JOBS,
                               repeats=max(2, repeats - 2))
    result = dict(headline)
    result["protocol"] = (f"min wall over {headline['repeats']} in-process "
                          f"replays (cold + median recorded alongside)")
    result["large"] = large
    return result


def _emit_tables(result: dict, emit) -> None:
    def rows(figures):
        return [["events processed", figures["events_processed"]],
                ["simulated seconds", f"{figures['simulated_s']:.0f}"],
                ["wall seconds (min of "
                 f"{figures['repeats']})", f"{figures['wall_s']:.3f}"],
                ["wall seconds (cold)", f"{figures['wall_s_cold']:.3f}"],
                ["events/sec", f"{figures['events_per_sec']:,.0f}"],
                ["jobs/sec", f"{figures['jobs_per_sec']:.2f}"],
                ["sim-time speedup", f"{figures['sim_speedup']:,.0f}x"]]

    emit("Core simulator throughput (multijob, 12 jobs, 8-core FAIR pool)",
         format_table(["metric", "value"], rows(result)))
    emit(f"Core simulator throughput ({LARGE_JOBS} jobs, same pool)",
         format_table(["metric", "value"], rows(result["large"])))


def test_core_speed(benchmark, emit):
    from benchmarks.conftest import run_once

    result = run_once(benchmark, run_core_bench)
    _emit_tables(result, emit)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    # The kernel dispatches thousands of events per wall second even on
    # modest hardware; order-of-magnitude floors only, so the assertion
    # survives CI-grade machines. (The 12-job burst dispatches ~6.5k
    # events, deterministically per seed.)
    assert result["events_processed"] > 5_000
    assert result["events_per_sec"] > 5_000
    assert result["jobs_per_sec"] > 0.2
    assert result["sim_speedup"] > 10
    assert result["large"]["jobs"] == LARGE_JOBS
    assert result["large"]["events_processed"] > result["events_processed"]


# ---------------------------------------------------------------------------
# Smoke
# ---------------------------------------------------------------------------

@pytest.mark.smoke
def test_smoke_core_speed_counts_events():
    result = measure_core_speed(n_jobs=3, repeats=2)
    assert result["jobs"] == 3
    assert result["events_processed"] > 1_000
    assert result["events_per_sec"] > 0
    assert result["wall_s"] <= result["wall_s_cold"]
    # Same seed, same spec => the deterministic figures repeat exactly.
    again = measure_core_speed(n_jobs=3, repeats=1)
    assert again["events_processed"] == result["events_processed"]
    assert again["simulated_s"] == result["simulated_s"]


# ---------------------------------------------------------------------------
# Standalone CLI (used by `make bench-core` and the CI perf floor)
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="replays per figure (min-of-N protocol)")
    parser.add_argument("--large", action="store_true",
                        help=f"measure the {LARGE_JOBS}-job config instead")
    parser.add_argument("--write", action="store_true",
                        help=f"write the full artifact to {OUT_PATH}")
    parser.add_argument("--check-floor", type=float, metavar="EVENTS_PER_SEC",
                        help="exit non-zero if headline events/sec lands "
                             "below this floor (CI regression gate)")
    args = parser.parse_args(argv)

    if args.write:
        result = run_core_bench(repeats=args.repeats)
        with open(OUT_PATH, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {OUT_PATH}")
        figures = result
    else:
        figures = measure_core_speed(
            n_jobs=LARGE_JOBS if args.large else None, repeats=args.repeats)

    print(f"{figures['jobs']} jobs, {figures['events_processed']} events: "
          f"{figures['events_per_sec']:,.0f} events/sec "
          f"(min {figures['wall_s']:.3f}s over {figures['repeats']} replays; "
          f"cold {figures['wall_s_cold']:.3f}s)")

    if args.check_floor is not None:
        if figures["events_per_sec"] < args.check_floor:
            print(f"FAIL: {figures['events_per_sec']:,.0f} events/sec is "
                  f"below the floor of {args.check_floor:,.0f}")
            return 1
        print(f"floor ok: {figures['events_per_sec']:,.0f} >= "
              f"{args.check_floor:,.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
