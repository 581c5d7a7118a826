"""Unit tests for the RNG streams and the trace recorder."""

import pytest

from repro.simulation import RandomStreams, TraceRecord, TraceRecorder


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_streams_independent_by_name():
    rng = RandomStreams(0)
    a = rng.stream("alpha").random(3).tolist()
    b = rng.stream("beta").random(3).tolist()
    assert a != b


def test_stream_creation_order_does_not_matter():
    """The repeatability property everything else relies on: the same
    (seed, name) yields the same stream regardless of what else was
    created first."""
    first = RandomStreams(7)
    first.stream("noise").random(10)
    value_after = first.stream("target").random(1)[0]

    second = RandomStreams(7)
    value_direct = second.stream("target").random(1)[0]
    assert value_after == value_direct


def test_stream_is_cached():
    rng = RandomStreams(0)
    assert rng.stream("x") is rng.stream("x")


def test_lognormal_mean_approximately_right():
    rng = RandomStreams(3)
    samples = [rng.lognormal_around("t", 100.0, 0.2) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(100.0, rel=0.05)


def test_lognormal_zero_cv_is_exact():
    assert RandomStreams(0).lognormal_around("t", 42.0, 0.0) == 42.0


def test_lognormal_validation():
    rng = RandomStreams(0)
    with pytest.raises(ValueError):
        rng.lognormal_around("t", 0.0, 0.1)
    with pytest.raises(ValueError):
        rng.lognormal_around("t", 1.0, -0.1)


def test_uniform_jitter_bounds():
    rng = RandomStreams(1)
    for _ in range(200):
        value = rng.uniform_jitter("j", 100.0, 0.05)
        assert 95.0 <= value <= 105.0


def test_uniform_jitter_validation():
    with pytest.raises(ValueError):
        RandomStreams(0).uniform_jitter("j", 1.0, 1.0)


def test_exponential_positive_and_validated():
    rng = RandomStreams(2)
    assert rng.exponential("e", 10.0) > 0
    with pytest.raises(ValueError):
        rng.exponential("e", 0.0)


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------

def test_record_and_select():
    trace = TraceRecorder()
    trace.record(1.0, "vm", "launch", vm="a")
    trace.record(2.0, "vm", "terminate", vm="a")
    trace.record(3.0, "task", "launch", task="t1")
    assert len(trace) == 3
    assert len(trace.select(category="vm")) == 2
    assert len(trace.select(category="vm", name="launch")) == 1
    assert len(trace.select(predicate=lambda r: r.time > 1.5)) == 2


def test_disabled_recorder_drops_records():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "vm", "launch")
    assert len(trace) == 0


def test_record_fields_accessible():
    record = TraceRecord(1.0, "cat", "name", {"key": "value"})
    assert record.get("key") == "value"
    assert record.get("missing", 42) == 42


def test_clear():
    trace = TraceRecorder()
    trace.record(1.0, "x", "y")
    trace.clear()
    assert len(trace) == 0


def test_iteration_and_records_snapshot():
    trace = TraceRecorder()
    trace.record(1.0, "a", "b")
    assert [r.category for r in trace] == ["a"]
    snapshot = trace.records
    trace.record(2.0, "c", "d")
    assert len(snapshot) == 1  # snapshot unaffected
