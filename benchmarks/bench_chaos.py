"""Chaos harness: service-plane recovery time and availability.

``bench_serve_load.py`` proves the control plane is fast when nothing
goes wrong; this bench proves it stays *correct* when everything does.
One :func:`repro.api.resilience.run_chaos` scenario drives a seeded
fault storm against a live :class:`~repro.api.service.ServeRuntime` —
Lambda throttle storms (the circuit breaker must open, degrade the pool
to VM-only admission, and recover to closed), worker-thread kills (the
bounded-retry layer must bring every crashed job to ``completed``), a
wedged sim driver (admission and job reads must keep answering), and a
kill-9 + restart (the JSONL journal must recover every queued job
exactly once). The harness *asserts* each invariant — a chaos run is a
test, not just a measurement — and the headline run writes
``BENCH_chaos.json`` at the repository root.

A second measurement guards the cost of all this: the resilience layer
(deadlines, retry bookkeeping, journal appends on the admission path)
must not regress p99 admission latency by more than 10% against a
bare-bones config, the acceptance bound from the robustness issue.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest

from benchmarks.bench_serve_load import sleeper_job  # noqa: F401 - scenario
from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.api.resilience import run_chaos
from repro.api.service import BackpressureError, ServeConfig, ServeRuntime
from repro.observability.metrics import percentile

#: Headline chaos shape: enough jobs that retries, rejections, and the
#: storm all overlap; the storm holds 2 s of host time.
N_JOBS = 24
KILL_WORKERS = 4
STORM_DURATION_S = 2.0

OUT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_chaos.json")


def run_headline_chaos() -> dict:
    """The committed ``BENCH_chaos.json`` payload (journal phase on)."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as tmp:
        return run_chaos(plan="throttle_storm", seed=0, n_jobs=N_JOBS,
                         kill_workers=KILL_WORKERS,
                         stall_driver_s=0.2, lambda_probes=8,
                         storm_duration_s=STORM_DURATION_S,
                         state_dir=tmp)


# ---------------------------------------------------------------------------
# Admission-latency overhead of the resilience layer
# ---------------------------------------------------------------------------

def _admission_p99_ms(config: ServeConfig, n: int = 300) -> float:
    """p99 submit latency for ``n`` instant spec jobs under ``config``."""
    service = ServeRuntime(config).start()
    latencies = []
    try:
        for i in range(n):
            payload = {
                "workload": "sleeper",
                "scenario": "custom:benchmarks.bench_serve_load:sleeper_job",
                "seed": i, "extra": {"sleep_s": 0.0}}
            t0 = time.perf_counter()
            try:
                service.submit(payload)
            except BackpressureError:
                pass
            latencies.append(time.perf_counter() - t0)
        assert service.drain(timeout=120.0), "jobs did not drain"
    finally:
        service.close()
    return percentile(latencies, 0.99) * 1e3


def run_overhead(n: int = 300) -> dict:
    """Bare admission vs the full resilience stack (deadline + retries
    + journal WAL append per accepted submission)."""
    bare = ServeConfig(max_concurrent=32, max_queue=512, seed=0,
                       max_attempts=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-overhead-") as tmp:
        resilient = ServeConfig(max_concurrent=32, max_queue=512, seed=0,
                                max_attempts=3, default_deadline_s=300.0,
                                state_dir=tmp)
        bare_p99_ms = _admission_p99_ms(bare, n=n)
        resilient_p99_ms = _admission_p99_ms(resilient, n=n)
    return {
        "submissions": n,
        "bare_p99_ms": bare_p99_ms,
        "resilient_p99_ms": resilient_p99_ms,
        "overhead_frac": (resilient_p99_ms - bare_p99_ms)
        / bare_p99_ms if bare_p99_ms else 0.0,
    }


def test_chaos_recovery(benchmark, emit):
    report = run_once(benchmark, run_headline_chaos)
    overhead = run_overhead()
    report["admission_overhead"] = overhead
    recovery = report["recovery"]
    emit(f"Chaos recovery ({N_JOBS} jobs, throttle storm, "
         f"{KILL_WORKERS} worker kills, kill-9 + restart)",
         format_table(
             ["metric", "value"],
             [["availability",
               f"{report['availability']:.1%}"],
              ["completed / failed",
               f"{report['completed']} / {report['failed']}"],
              ["retried jobs", report["retried_jobs"]],
              ["breaker recovery",
               f"{report['breaker_recovery_s']:.3f}s"],
              ["journal recovery",
               f"{recovery['recovered_jobs']}/"
               f"{recovery['journaled_jobs']} jobs "
               f"({recovery['finished_before_crash']} finished before "
               f"the crash), {recovery['duplicates']} duplicates, "
               f"{recovery['recovery_wall_s']:.2f}s"],
              ["admission p99 bare / resilient",
               f"{overhead['bare_p99_ms']:.3f} ms / "
               f"{overhead['resilient_p99_ms']:.3f} ms"],
              ["peak phase SLO burn",
               "; ".join(f"{p['name']} "
                         f"{max(p['slo_burn'].values()):.2f}x"
                         for p in report["phases"])]]))
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    # run_chaos already asserted the recovery invariants (terminal
    # states, breaker open→closed, no journal duplicates); here we pin
    # the headline numbers the report commits to.
    assert report["availability"] == 1.0
    assert report["failed"] == 0
    assert report["retried_jobs"] >= 1
    assert recovery["duplicates"] == 0
    assert (recovery["recovered_jobs"] + recovery["finished_before_crash"]
            == recovery["journaled_jobs"])
    # Every chaos phase reports its end-of-phase SLO burn rates. The
    # availability budget never burns — nothing is rejected and every
    # job completes; the latency burn merely has to be well-formed
    # (chaos deliberately drags admission, and CI machines vary).
    for phase in report["phases"]:
        assert set(phase["slo_burn"]) == {"availability", "latency"}, phase
        assert phase["slo_burn"]["availability"] == 0.0, phase
        assert phase["slo_burn"]["latency"] >= 0.0, phase
    # The resilience layer's admission cost: < 10% p99 regression (a
    # small absolute epsilon absorbs scheduler noise at the sub-ms
    # scale this path runs at).
    assert (overhead["resilient_p99_ms"]
            <= overhead["bare_p99_ms"] * 1.10 + 0.25), overhead


# ---------------------------------------------------------------------------
# Smoke
# ---------------------------------------------------------------------------

@pytest.mark.smoke
def test_smoke_chaos_small():
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        report = run_chaos(plan="throttle_storm", seed=0, n_jobs=6,
                           kill_workers=1, stall_driver_s=0.1,
                           lambda_probes=8, storm_duration_s=0.8,
                           state_dir=tmp)
    assert report["availability"] == 1.0
    assert report["completed"] == report["accepted"]
    assert report["breaker_recovery_s"] > 0
    assert report["recovery"]["duplicates"] == 0
    assert all("slo_burn" in phase for phase in report["phases"])
