"""Service-plane fault tolerance: retries, deadlines, circuit breaking.

The simulation has had a fault model since the resilience PR
(:mod:`repro.simulation.faults`), but the long-lived ``repro serve``
control plane itself used to fail open: a worker-thread crash lost the
job, a wedged sim driver hung every ``?wait=`` client, and nothing
bounded how long a job could sit in the system. This module is the
service-side counterpart — small, dependency-free mechanisms the
:class:`~repro.api.service.ServeRuntime` composes:

- :func:`deterministic_jitter` — seeded, hash-derived jitter so backoff
  and ``Retry-After`` spreading never touches ambient ``random`` (the
  replayability lint bans it) and never synchronizes client retry
  storms: the same key always yields the same offset, different keys
  spread uniformly.
- :class:`RetryPolicy` — bounded retries with exponential backoff plus
  that deterministic jitter, keyed by job id.
- :class:`CircuitBreaker` — the classic closed/open/half-open machine
  wrapped around the Lambda-bridge path: consecutive
  ``LambdaInvokeError``/``LambdaThrottledError`` failures open it, an
  open breaker fast-fails invocations (the pool degrades to VM-only
  admission), and after a cooldown a half-open probe decides whether to
  close again.
- Transient-error classification (:func:`is_transient`,
  :class:`TransientJobError`, :class:`WorkerCrashError`) shared by the
  retry path and the chaos harness.
- :func:`run_chaos` — the chaos harness behind ``repro chaos`` and
  ``benchmarks/bench_chaos.py``: drives seeded
  :class:`~repro.simulation.faults.FaultPlan` storms and service-level
  faults (worker-thread kills, sim-driver stalls) against a live
  :class:`~repro.api.service.ServeRuntime` and reports recovery-time
  and availability metrics.

Wall-clock note: the breaker cooldown, retry backoffs and chaos
timings are host-side quantities (this layer serves real HTTP
traffic), so this module is on the lint's wall-clock exemption list —
nothing here feeds simulated behavior, and every *random* quantity is
hash-derived, never drawn.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "deterministic_jitter", "RetryPolicy",
    "TransientJobError", "WorkerCrashError", "is_transient",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "CircuitBreaker", "run_chaos", "CHAOS_DEFAULTS",
]


# ---------------------------------------------------------------------------
# Deterministic jitter
# ---------------------------------------------------------------------------

def deterministic_jitter(key: str, salt: str = "") -> float:
    """A uniform-looking fraction in ``[0, 1)`` derived from ``key``.

    SHA-256 of ``key:salt`` — stable across processes and runs (unlike
    ``hash()``, which is salted per interpreter), so the same job id
    always backs off by the same amount while distinct ids spread out.
    """
    digest = hashlib.sha256(f"{key}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def retry_after_s(key: str, lo: float = 0.5, hi: float = 2.0) -> float:
    """A deterministic ``Retry-After`` for a shed submission.

    Derived from the submission's identity rather than ``random`` so
    that (a) the replayability lint holds and (b) a burst of rejected
    clients spreads its retries across ``[lo, hi)`` instead of
    stampeding back in lockstep after a constant hint.
    """
    return round(lo + deterministic_jitter(key, "retry-after")
                 * (hi - lo), 3)


# ---------------------------------------------------------------------------
# Transient-error classification
# ---------------------------------------------------------------------------

class TransientJobError(RuntimeError):
    """An error the service may retry (bounded by the job's policy)."""


class WorkerCrashError(TransientJobError):
    """A worker thread died mid-job (real crash or chaos-injected)."""


def is_transient(exc: BaseException) -> bool:
    """Should the service retry after this worker-boundary error?

    Transient: our own :class:`TransientJobError` family, the Lambda
    provider's invoke/throttle errors, and the host-level flakes a real
    worker pool sees (connection resets, timeouts, I/O hiccups).
    Anything else — a ``SchemaError``, a ``TypeError`` in a scenario
    body — is deterministic and retrying it would just burn a slot.
    """
    from repro.cloud.lambda_fn import LambdaInvokeError
    return isinstance(exc, (TransientJobError, LambdaInvokeError,
                            ConnectionError, TimeoutError, OSError))


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + deterministic jitter.

    ``max_attempts`` counts *executions* (1 = never retry). The backoff
    before attempt ``n+1`` is ``base * multiplier**(n-1)`` capped at
    ``max_backoff_s``, plus up to ``jitter_frac`` of itself derived
    from the job key — so two jobs failing at the same instant retry at
    different instants, reproducibly.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff bounds cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1.0, got {self.multiplier}")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}")

    def should_retry(self, attempts: int) -> bool:
        """May another execution follow ``attempts`` completed ones?"""
        return attempts < self.max_attempts

    def backoff_s(self, key: str, attempts: int) -> float:
        """Seconds to wait before the attempt after ``attempts``."""
        base = min(self.max_backoff_s,
                   self.base_backoff_s
                   * self.multiplier ** max(0, attempts - 1))
        jitter = (deterministic_jitter(key, f"retry-{attempts}")
                  * self.jitter_frac * base)
        return base + jitter


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed/open/half-open breaker with an injectable clock.

    Closed: calls flow; ``failure_threshold`` *consecutive* failures
    open it. Open: :meth:`allow` returns False (callers fast-fail —
    the serve runtime maps this to VM-only admission) until
    ``cooldown_s`` has elapsed, then the breaker turns half-open.
    Half-open: exactly one probe call is allowed in flight; its success
    closes the breaker, its failure re-opens it (restarting the
    cooldown).

    ``clock`` defaults to the host monotonic clock; tests inject a fake
    so the state machine is exercised deterministically.
    ``on_transition(old, new)`` fires outside the lock on every state
    change — the serve runtime uses it to emit breaker-state events and
    bump ``serve.breaker.*`` metrics.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[
                     Callable[[str, str], None]] = None) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        #: Lifetime transition counts (monotone; readable without lock).
        self.opens = 0
        self.closes = 0
        self.fast_fails = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        """Current state, promoting open → half-open once cooled."""
        if (self._state == BREAKER_OPEN
                and self._clock() - self._opened_at >= self.cooldown_s):
            self._transition_locked(BREAKER_HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May one call proceed right now?"""
        with self._lock:
            state = self._state_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_OPEN:
                self.fast_fails += 1
                return False
            # Half-open: one probe at a time.
            if self._probe_in_flight:
                self.fast_fails += 1
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state == BREAKER_HALF_OPEN:
                self._transition_locked(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            if self._state == BREAKER_HALF_OPEN:
                self._transition_locked(BREAKER_OPEN)
                return
            if self._state == BREAKER_CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._transition_locked(BREAKER_OPEN)

    def _transition_locked(self, new: str) -> None:
        old, self._state = self._state, new
        if new == BREAKER_OPEN:
            self.opens += 1
            self._opened_at = self._clock()
            self._consecutive_failures = 0
        elif new == BREAKER_CLOSED:
            self.closes += 1
            self._opened_at = None
        self._probe_in_flight = False
        if self._on_transition is not None and old != new:
            self._on_transition(old, new)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "opens": self.opens,
                "closes": self.closes,
                "fast_fails": self.fast_fails,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
            }


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------

#: Default shape of one chaos run (kept small enough for smoke runs to
#: finish in seconds; the headline bench scales n_jobs up).
CHAOS_DEFAULTS: Dict[str, Any] = {
    "plan": "throttle_storm",
    "seed": 0,
    "n_jobs": 12,
    "kill_workers": 2,
    "stall_driver_s": 0.2,
    "lambda_probes": 8,
    "storm_duration_s": 2.0,
}


@dataclass
class _Phase:
    """One timed chaos phase for the report."""

    name: str
    started_s: float
    finished_s: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)


def run_chaos(plan: str = "throttle_storm", seed: int = 0,
              n_jobs: int = 12, kill_workers: int = 2,
              stall_driver_s: float = 0.2, lambda_probes: int = 8,
              storm_duration_s: float = 2.0,
              state_dir: Optional[str] = None,
              config=None) -> Dict[str, Any]:
    """Drive one seeded chaos scenario against a live ServeRuntime.

    Phases (all wall-clock timed into the report):

    1. **Load** — submit ``n_jobs`` small spec jobs (deterministic
       sparkpi specs, seeds ``0..n-1``); every fourth is a pooled
       arrival on the shared cluster, whose executors the storm's
       faults target.
    2. **Storm** — arm the named chaos plan against the shared cluster
       (its faults apply and lift on host-clock windows) and hammer
       the Lambda bridge with ``lambda_probes`` scale requests; under a
       throttle storm the breaker must open (VM-only admission) and,
       once the storm lifts, recover to closed.
    3. **Kill** — mark ``kill_workers`` of the spec jobs for an
       injected :class:`WorkerCrashError` on their first execution;
       the retry layer must bring every one of them to ``completed``.
    4. **Stall** — hold the sim lock for ``stall_driver_s`` (a wedged
       driver); admission and ``/jobs`` reads must keep answering.
    5. **Settle** — drain; assert *every* submitted job reached a
       terminal state (the no-hangs invariant) and collect recovery
       and availability metrics.

    Returns the ``BENCH_chaos.json`` payload. Raises ``AssertionError``
    when a recovery invariant does not hold — chaos runs are tests, not
    just measurements.
    """
    from repro.api import schemas
    from repro.api.service import ServeConfig, ServeRuntime

    cfg = config or ServeConfig(
        max_concurrent=4, max_queue=max(16, n_jobs + 8), seed=seed,
        pool_cores=4, state_dir=state_dir,
        default_deadline_s=120.0, max_attempts=3,
        retry_base_backoff_s=0.02,
        breaker_failure_threshold=3, breaker_cooldown_s=0.15)
    service = ServeRuntime(cfg).start()
    t0 = time.monotonic()
    phases: List[_Phase] = []
    report: Dict[str, Any] = {
        "plan": plan, "seed": seed, "n_jobs": n_jobs,
        "kill_workers": kill_workers,
        "stall_driver_s": stall_driver_s,
        "lambda_probes": lambda_probes,
        "storm_duration_s": storm_duration_s,
    }

    def now() -> float:
        return round(time.monotonic() - t0, 6)

    def slo_burn() -> Dict[str, float]:
        # SLO burn rates sampled at each phase's end (rolling window) —
        # the per-phase error-budget spend the chaos report commits to.
        return {k: round(v, 6)
                for k, v in service.slo.burn_rates().items()}

    try:
        # -- phase 1: load --------------------------------------------------
        load = _Phase("load", now())
        statuses = []
        rejected = 0
        for i in range(n_jobs):
            payload = {"workload": "sparkpi", "scenario": "spark_R_vm",
                       "seed": i}
            if i % 4 == 3:
                payload = {"workload": "sparkpi", "mode": "pooled",
                           "seed": i}
            try:
                statuses.append(service.submit(payload))
            except Exception:  # noqa: BLE001 - backpressure is data here
                rejected += 1
        load.finished_s = now()
        load.detail = {"accepted": len(statuses), "rejected": rejected,
                       "slo_burn": slo_burn()}
        phases.append(load)

        # -- phase 2: throttle storm vs the breaker -------------------------
        storm = _Phase("storm", now())
        service.inject_chaos({"plan": plan, "start_s": 0.0,
                              "duration_s": storm_duration_s})
        opened_at = None
        closed_at = None
        deadline = time.monotonic() + max(30.0, storm_duration_s + 10.0)
        probes = 0
        while time.monotonic() < deadline:
            outcome = service.inject_chaos({"scale_lambda": 1})
            probes += 1
            state = outcome["breaker"]["state"]
            if state == BREAKER_OPEN and opened_at is None:
                opened_at = now()
            if opened_at is not None and state == BREAKER_CLOSED:
                closed_at = now()
                break
            if probes >= lambda_probes and opened_at is None:
                break  # plan without a throttle leg: nothing to open
            time.sleep(0.02)
        storm.finished_s = now()
        storm.detail = {
            "probes": probes,
            "breaker_opened": opened_at is not None,
            "breaker_recovered": closed_at is not None,
            "breaker": service.breaker.snapshot(),
            "slo_burn": slo_burn(),
        }
        phases.append(storm)
        if plan == "throttle_storm":
            assert opened_at is not None, \
                "breaker never opened under the throttle storm"
            assert closed_at is not None, \
                "breaker never recovered to closed after the storm"
            report["breaker_recovery_s"] = round(closed_at - opened_at, 6)

        # -- phase 3: worker kills ------------------------------------------
        # Armed *before* the submissions (and applied under the
        # admission lock) so the crash lands on each job's first
        # execution even when a free slot starts it instantly.
        kill = _Phase("kill", now())
        service.inject_chaos({"crash_next_submissions": kill_workers})
        crash_ids = []
        for i in range(kill_workers):
            status = service.submit(
                {"workload": "sparkpi", "scenario": "spark_R_vm",
                 "seed": 100 + i})
            crash_ids.append(status.job_id)
        kill.finished_s = now()
        kill.detail = {"crashed_jobs": crash_ids, "slo_burn": slo_burn()}
        phases.append(kill)

        # -- phase 4: sim-driver stall --------------------------------------
        stall = _Phase("stall", now())
        service.inject_chaos({"stall_driver_s": stall_driver_s})
        # Admission and reads must answer while the driver is wedged.
        t_read = time.monotonic()
        service.jobs()
        service.admission_stats()
        read_latency_s = time.monotonic() - t_read
        stall.finished_s = now()
        stall.detail = {"read_latency_s": round(read_latency_s, 6),
                        "slo_burn": slo_burn()}
        phases.append(stall)
        assert read_latency_s < max(1.0, stall_driver_s), \
            "admission reads blocked on the stalled sim driver"

        # -- phase 5: settle -------------------------------------------------
        settle = _Phase("settle", now())
        drained = service.drain(timeout=240.0)
        settle.finished_s = now()
        settle.detail = {"slo_burn": slo_burn()}
        phases.append(settle)
        assert drained, "jobs did not drain after chaos"

        finals = service.jobs()
        non_terminal = [s.job_id for s in finals
                        if s.state not in (schemas.JOB_COMPLETED,
                                           schemas.JOB_FAILED)]
        assert not non_terminal, \
            f"jobs stuck in non-terminal states after chaos: {non_terminal}"
        crashed_finals = [s for s in finals if s.job_id in crash_ids]
        for s in crashed_finals:
            assert s.state == schemas.JOB_COMPLETED, \
                f"crashed job {s.job_id} did not recover: {s.error}"
            assert s.attempts >= 2, \
                f"crashed job {s.job_id} was not retried"

        completed = sum(1 for s in finals
                        if s.state == schemas.JOB_COMPLETED)
        failed = sum(1 for s in finals if s.state == schemas.JOB_FAILED)
        submitted = len(finals) + rejected
        retried = sum(1 for s in finals if s.attempts > 1)
        recovery_times = [
            round(s.finished_at - s.started_at, 6) for s in crashed_finals
            if s.finished_at is not None and s.started_at is not None]
        report.update({
            "submitted": submitted,
            "accepted": len(finals),
            "rejected_503": rejected,
            "completed": completed,
            "failed": failed,
            "retried_jobs": retried,
            "availability": round(len(finals) / submitted, 6)
            if submitted else 1.0,
            "completion_rate": round(completed / len(finals), 6)
            if finals else 1.0,
            "crash_recovery_s": recovery_times,
            "metrics": service.cluster.metrics.snapshot(prefix="serve."),
            "phases": [{"name": p.name,
                        "duration_s": round(p.finished_s - p.started_s, 6),
                        **p.detail} for p in phases],
            "total_wall_s": now(),
        })
    finally:
        service.close()

    # -- optional phase 6: crash-restart journal recovery -------------------
    if state_dir is not None:
        report["recovery"] = _crash_restart_recovery(cfg, seed)
    return report


def _crash_restart_recovery(cfg, seed: int) -> Dict[str, Any]:
    """kill -9 + restart: the restart must run exactly the jobs the
    journal still owes, each once, and never one it journaled as
    finished. Returns recovery-time/count metrics for the report."""
    from repro.api import schemas
    from repro.api.journal import JOURNAL_NAME, _replay
    from repro.api.service import ServeRuntime

    def request(i: int) -> Dict[str, Any]:
        return {"workload": "sparkpi", "scenario": "spark_R_vm",
                "seed": 200 + seed + i}

    first = ServeRuntime(cfg).start()
    try:
        # One job journaled finished before the crash, then more jobs
        # than there are running slots, so some are still owed.
        done_id = first.submit(request(0)).job_id
        done = first.wait_for(done_id, timeout=120.0)
        assert done.state == schemas.JOB_COMPLETED, done.error
        ids = [done_id] + [first.submit(request(i)).job_id
                           for i in range(1, cfg.max_concurrent + 5)]
    finally:
        # As close to kill -9 as an in-process harness gets: no drain,
        # no checkpoint, journal handle dropped mid-flight.
        first.hard_stop()

    # What the journal owes, read without opening (and so compacting)
    # it: recovery of the next incarnation is what is under test.
    traces, _ = _replay(os.path.join(cfg.state_dir, JOURNAL_NAME))
    assert set(ids) <= set(traces), "an acknowledged job is not journaled"
    owed = [job_id for job_id in ids if not traces[job_id].finished]
    assert done_id not in owed, "the journal lost a finished job"
    assert owed, "every job finished before the crash; nothing to recover"

    t0 = time.monotonic()
    second = ServeRuntime(cfg).start()
    try:
        assert second.drain(timeout=240.0), "recovered jobs did not drain"
        recovery_wall_s = time.monotonic() - t0
        finals = second.jobs()
        # Exactly the owed jobs, each once; so never the finished one.
        assert [s.job_id for s in finals] == owed, (
            f"restart ran {[s.job_id for s in finals]}, "
            f"journal owed {owed}")
        terminal = [s for s in finals
                    if s.state in (schemas.JOB_COMPLETED,
                                   schemas.JOB_FAILED)]
        assert len(terminal) == len(owed), "recovered job left non-terminal"
        return {
            "journaled_jobs": len(ids),
            "finished_before_crash": len(ids) - len(owed),
            "recovered_jobs": len(finals),
            "duplicates": 0,
            "recovery_wall_s": round(recovery_wall_s, 6),
        }
    finally:
        second.close()
