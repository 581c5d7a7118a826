"""Units for the service-plane fault-tolerance primitives.

Everything here is deterministic by construction: jitter is
hash-derived (never ``random``), and the circuit breaker takes an
injectable clock so its state machine is exercised without sleeping.
"""

import pytest

from repro.api import resilience
from repro.api.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
    TransientJobError,
    WorkerCrashError,
    deterministic_jitter,
    is_transient,
    retry_after_s,
)
from repro.cloud.lambda_fn import LambdaInvokeError, LambdaThrottledError


# ---------------------------------------------------------------------------
# Deterministic jitter
# ---------------------------------------------------------------------------

def test_jitter_is_stable_and_in_range():
    values = [deterministic_jitter(f"job-{i:06d}") for i in range(200)]
    assert values == [deterministic_jitter(f"job-{i:06d}")
                      for i in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_jitter_spreads_distinct_keys():
    values = sorted(deterministic_jitter(f"job-{i:06d}")
                    for i in range(200))
    # Uniform-looking: both halves of [0, 1) are populated and there
    # are no mass collisions.
    assert values[0] < 0.25 and values[-1] > 0.75
    assert len(set(values)) == 200


def test_jitter_salt_decorrelates():
    assert (deterministic_jitter("job-000001", "retry-1")
            != deterministic_jitter("job-000001", "retry-2"))


def test_retry_after_bounds_and_determinism():
    values = {retry_after_s(f"k{i}") for i in range(100)}
    assert all(0.5 <= v < 2.0 for v in values)
    assert len(values) > 50  # spread, not a constant hint
    assert retry_after_s("k1") == retry_after_s("k1")


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="multiplier"):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError, match="jitter_frac"):
        RetryPolicy(jitter_frac=1.5)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(base_backoff_s=-1.0)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(max_attempts=10, base_backoff_s=0.1,
                         multiplier=2.0, max_backoff_s=0.5,
                         jitter_frac=0.0)
    waits = [policy.backoff_s("job-000001", n) for n in range(1, 6)]
    assert waits[0] == pytest.approx(0.1)
    assert waits[1] == pytest.approx(0.2)
    assert waits[2] == pytest.approx(0.4)
    assert waits[3] == pytest.approx(0.5)  # capped
    assert waits[4] == pytest.approx(0.5)


def test_backoff_jitter_is_deterministic_per_key():
    policy = RetryPolicy(base_backoff_s=0.1, jitter_frac=0.5)
    a1 = policy.backoff_s("job-000001", 1)
    a2 = policy.backoff_s("job-000001", 1)
    b = policy.backoff_s("job-000002", 1)
    assert a1 == a2
    assert a1 != b  # two jobs failing together retry apart
    assert 0.1 <= a1 <= 0.1 * 1.5


# ---------------------------------------------------------------------------
# Transient classification
# ---------------------------------------------------------------------------

def test_transient_classification():
    assert is_transient(TransientJobError("x"))
    assert is_transient(WorkerCrashError("x"))
    assert is_transient(LambdaInvokeError("x"))
    assert is_transient(LambdaThrottledError("x"))
    assert is_transient(ConnectionError("x"))
    assert is_transient(TimeoutError("x"))
    assert not is_transient(ValueError("deterministic"))
    assert not is_transient(TypeError("deterministic"))


# ---------------------------------------------------------------------------
# CircuitBreaker (fake clock — no sleeps)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _breaker(threshold=3, cooldown=10.0):
    clock = FakeClock()
    transitions = []
    breaker = CircuitBreaker(
        failure_threshold=threshold, cooldown_s=cooldown, clock=clock,
        on_transition=lambda old, new: transitions.append((old, new)))
    return breaker, clock, transitions


def test_breaker_validation():
    with pytest.raises(ValueError, match="failure_threshold"):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError, match="cooldown_s"):
        CircuitBreaker(cooldown_s=0.0)


def test_breaker_opens_after_consecutive_failures_only():
    breaker, _, transitions = _breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # success resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert transitions == [(BREAKER_CLOSED, BREAKER_OPEN)]
    assert breaker.opens == 1


def test_open_breaker_fast_fails_until_cooldown():
    breaker, clock, _ = _breaker(threshold=1, cooldown=10.0)
    breaker.record_failure()
    assert not breaker.allow()
    assert not breaker.allow()
    assert breaker.fast_fails == 2
    clock.advance(9.9)
    assert not breaker.allow()
    clock.advance(0.2)  # cooled: half-open, one probe allowed
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()


def test_half_open_allows_exactly_one_probe():
    breaker, clock, _ = _breaker(threshold=1, cooldown=1.0)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()       # the probe
    assert not breaker.allow()   # concurrent call fast-fails
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_half_open_probe_failure_reopens():
    breaker, clock, transitions = _breaker(threshold=1, cooldown=1.0)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    # The cooldown restarted at the re-open.
    assert not breaker.allow()
    clock.advance(1.5)
    assert breaker.state == BREAKER_HALF_OPEN
    assert transitions == [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
    ]


def test_breaker_snapshot_shape():
    breaker, _, _ = _breaker(threshold=2, cooldown=5.0)
    breaker.record_failure()
    snap = breaker.snapshot()
    assert snap == {
        "state": BREAKER_CLOSED, "consecutive_failures": 1,
        "opens": 0, "closes": 0, "fast_fails": 0,
        "failure_threshold": 2, "cooldown_s": 5.0,
    }


def test_chaos_defaults_cover_run_chaos_signature():
    import inspect
    params = inspect.signature(resilience.run_chaos).parameters
    for key in resilience.CHAOS_DEFAULTS:
        assert key in params, key
