"""Control-plane load: admission latency and throughput under fan-in.

An open-loop generator fires hundreds of submissions straight at
:meth:`~repro.api.service.ServeRuntime.submit` — the exact code path
behind ``POST /jobs`` minus socket framing — without waiting for
completions, the way real clients arrive. Jobs use a ``custom:``
scenario defined in this module (a short sleep) so the measurement
isolates the control plane: admission check, queue bookkeeping, and
event publication, not simulation horsepower (that's
``bench_core_speed.py``).

Reported: submissions/sec through admission, the full admission-latency
histogram (the same log-spaced buckets ``GET /metrics`` exposes, plus
p50/p95/p99), peak concurrently-running jobs, completed jobs/sec end to
end, and the 503 count once the bounded queue saturates. A second
measurement runs the same burst with the sampling profiler attached and
reports its p99 admission overhead. The headline run writes
``BENCH_serve.json`` at the repository root.

The load-bearing claims: the service sustains 100+ concurrently
running jobs, admission latency stays bounded (it never touches the
simulation lock), saturation rejects with backpressure rather than
queueing without bound, and the ``--profile`` sampler costs < 10% p99
admission latency when on (and exactly nothing when off — it is never
constructed then).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.api.service import BackpressureError, ServeConfig, ServeRuntime
from repro.observability.metrics import percentile
from repro.observability.serve_obs import RollingHistogram

#: Headline load shape: enough capacity to prove 100+ concurrent jobs,
#: a bounded queue so the tail of the burst draws 503s.
N_SUBMISSIONS = 400
MAX_CONCURRENT = 128
MAX_QUEUE = 200
#: Long enough that the whole burst lands while the first wave still
#: runs — saturation (and its 503s) is then deterministic, not a race
#: against job completions.
JOB_SLEEP_S = 2.0

OUT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_serve.json")


def sleeper_job(spec):
    """The ``custom:`` scenario body: hold a running slot briefly.

    ``spec.extra`` is frozen to a tuple of pairs by ``ExperimentSpec``.
    """
    time.sleep(float(dict(spec.extra).get("sleep_s", JOB_SLEEP_S)))
    return {"workload": "sleeper", "duration_s": 0.0, "cost": 0.0}


def _request(i: int, sleep_s: float) -> dict:
    return {"workload": "sleeper",
            "scenario": "custom:benchmarks.bench_serve_load:sleeper_job",
            "seed": i, "extra": {"sleep_s": sleep_s}}


def run_load(n: int = N_SUBMISSIONS, max_concurrent: int = MAX_CONCURRENT,
             max_queue: int = MAX_QUEUE,
             sleep_s: float = JOB_SLEEP_S,
             profile: bool = False) -> dict:
    """One open-loop burst against a fresh service; returns the stats."""
    service = ServeRuntime(ServeConfig(
        max_concurrent=max_concurrent, max_queue=max_queue,
        seed=0, profile=profile)).start()
    latencies, rejected = [], 0
    peak_running = 0
    started = time.perf_counter()
    try:
        for i in range(n):
            t0 = time.perf_counter()
            try:
                service.submit(_request(i, sleep_s))
            except BackpressureError:
                rejected += 1
            latencies.append(time.perf_counter() - t0)
            if i % 25 == 0:
                stats = service.admission_stats()
                peak_running = max(peak_running, stats["running"])
        submit_wall_s = time.perf_counter() - started
        assert service.drain(timeout=120.0), "jobs did not drain"
        total_wall_s = time.perf_counter() - started
        stats = service.admission_stats()
        peak_running = max(peak_running, stats["running"])
        failed_jobs = [status for status in service.jobs()
                       if status.error is not None]
    finally:
        service.close()

    accepted = n - rejected
    assert stats["finished"] == accepted
    # Job failures must never pass silently — a broken scenario would
    # otherwise drain instantly and fake great numbers.
    for status in failed_jobs:
        raise AssertionError(f"job {status.job_id} failed: {status.error}")
    # The full latency distribution, in the same log-spaced buckets the
    # serve plane's /metrics histogram exposes (window sized to hold
    # the whole burst, so nothing expires mid-report).
    hist = RollingHistogram(window_s=3600.0)
    for latency in latencies:
        hist.observe(latency)
    counts, _, _ = hist.window_counts()
    return {
        "submissions": n,
        "accepted": accepted,
        "rejected_503": rejected,
        "max_concurrent": max_concurrent,
        "max_queue": max_queue,
        "job_sleep_s": sleep_s,
        "peak_running": peak_running,
        "submit_wall_s": submit_wall_s,
        "total_wall_s": total_wall_s,
        "submissions_per_sec": n / submit_wall_s,
        "completed_jobs_per_sec": accepted / total_wall_s,
        "admission_p50_ms": percentile(latencies, 0.50) * 1e3,
        "admission_p99_ms": percentile(latencies, 0.99) * 1e3,
        "admission_max_ms": max(latencies) * 1e3,
        "profiled": profile,
        "admission_histogram": {
            "buckets": [{"le_s": bound, "count": count}
                        for bound, count in zip(hist.bounds, counts)],
            "overflow": counts[-1],
            "count": hist.total_count,
            "sum_s": hist.total_sum,
            "p50_s": hist.quantile(0.50),
            "p95_s": hist.quantile(0.95),
            "p99_s": hist.quantile(0.99),
        },
    }


def run_profiler_overhead(n: int = 150, max_concurrent: int = 32,
                          max_queue: int = 256,
                          sleep_s: float = 0.5) -> dict:
    """The same burst with the driver sampler off vs on.

    Off means *not constructed* (``ServeConfig.profile=False`` never
    builds a SamplingProfiler), so the disabled overhead is zero by
    construction; what this measures is the enabled cost."""
    base = run_load(n=n, max_concurrent=max_concurrent,
                    max_queue=max_queue, sleep_s=sleep_s, profile=False)
    profiled = run_load(n=n, max_concurrent=max_concurrent,
                        max_queue=max_queue, sleep_s=sleep_s, profile=True)
    base_p99 = base["admission_p99_ms"]
    return {
        "submissions": n,
        "base_p99_ms": base_p99,
        "profiled_p99_ms": profiled["admission_p99_ms"],
        "overhead_frac": ((profiled["admission_p99_ms"] - base_p99)
                          / base_p99 if base_p99 else 0.0),
    }


def test_serve_load(benchmark, emit):
    result = run_once(benchmark, run_load)
    overhead = run_profiler_overhead()
    result["profiler_overhead"] = overhead
    hist = result["admission_histogram"]
    emit(f"Serve admission under open-loop load "
         f"({N_SUBMISSIONS} submissions, {MAX_CONCURRENT} running slots)",
         format_table(
             ["metric", "value"],
             [["accepted / rejected (503)",
               f"{result['accepted']} / {result['rejected_503']}"],
              ["peak concurrently running", result["peak_running"]],
              ["submissions/sec",
               f"{result['submissions_per_sec']:,.0f}"],
              ["completed jobs/sec",
               f"{result['completed_jobs_per_sec']:,.1f}"],
              ["admission p50 / p99",
               f"{result['admission_p50_ms']:.2f} ms / "
               f"{result['admission_p99_ms']:.2f} ms"],
              ["histogram p50 / p95 / p99",
               f"{hist['p50_s'] * 1e3:.2f} / {hist['p95_s'] * 1e3:.2f} "
               f"/ {hist['p99_s'] * 1e3:.2f} ms (upper bound)"],
              ["profiler p99 overhead",
               f"{overhead['base_p99_ms']:.3f} -> "
               f"{overhead['profiled_p99_ms']:.3f} ms "
               f"({overhead['overhead_frac']:+.1%})"]]))
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    # The service must actually hold 100+ jobs running at once...
    assert result["peak_running"] >= 100
    # ...keep admission latency bounded (it holds only the admission
    # lock — generous ceilings so CI-grade machines pass)...
    assert result["admission_p99_ms"] < 250.0
    # ...and shed load structurally once running + queued saturate.
    assert result["accepted"] >= MAX_CONCURRENT + MAX_QUEUE
    assert result["rejected_503"] > 0
    # The histogram accounts for every submission, nothing lost in the
    # overflow bucket at these latencies.
    assert hist["count"] == N_SUBMISSIONS
    assert hist["overflow"] == 0
    # The sampler's acceptance bound: < 10% p99 admission overhead when
    # enabled (an absolute epsilon absorbs sub-ms scheduler noise).
    assert (overhead["profiled_p99_ms"]
            <= overhead["base_p99_ms"] * 1.10 + 0.25), overhead


# ---------------------------------------------------------------------------
# Smoke
# ---------------------------------------------------------------------------

@pytest.mark.smoke
def test_smoke_serve_load_small():
    result = run_load(n=60, max_concurrent=16, max_queue=20,
                      sleep_s=1.0)
    assert result["accepted"] + result["rejected_503"] == 60
    assert result["rejected_503"] > 0
    assert result["peak_running"] >= 10
    assert result["admission_p99_ms"] < 500.0
    assert result["admission_histogram"]["count"] == 60
