"""Unit tests for the DES kernel: Environment, events, processes."""

import pytest

from repro.simulation import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(10)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [10]


def test_timeout_value_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_early():
    env = Environment()
    ticks = []

    def proc(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(proc(env))
    env.run(until=5)
    assert ticks == [1, 2, 3, 4]
    assert env.now == 5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 3


def test_run_until_event_raises_process_exception():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("boom")

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=p)


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("unwaited failure")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unwaited failure"):
        env.run()


def test_run_out_of_events_before_until_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(5)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2)
        log.append(("child-done", env.now))
        return 7

    def parent(env):
        result = yield env.process(child(env))
        log.append(("parent-resumed", env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [("child-done", 2), ("parent-resumed", 2, 7)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(4, "open")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("nope"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["nope"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    times = []

    def proc(env):
        t = env.timeout(1)
        yield env.timeout(5)  # t fires at 1, long before we wait on it
        value = yield t
        times.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert times == [(5, None)]


def test_allof_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        got = yield AllOf(env, [t1, t2])
        results.append((env.now, sorted(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(3, ["a", "b"])]


def test_empty_allof_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        got = yield AllOf(env, [])
        results.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert results == [(0, {})]


def test_condition_operators():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        yield t1 & t2
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [2]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def worker(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def killer(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="decommission")

    victim = env.process(worker(env))
    env.process(killer(env, victim))
    env.run()
    assert log == [(5, "decommission")]


def test_interrupt_detaches_old_target():
    """After an interrupt, the abandoned event must not resume the process."""
    env = Environment()
    log = []

    def worker(env):
        try:
            yield env.timeout(10)
            log.append("finished-first-wait")  # must NOT happen
        except Interrupt:
            yield env.timeout(100)
            log.append(("second-wait-done", env.now))

    def killer(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(worker(env))
    env.process(killer(env, victim))
    env.run()
    assert log == [("second-wait-done", 105)]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def worker(env):
        yield env.timeout(1)

    p = env.process(worker(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupt_raced_with_termination_is_dropped():
    """Interrupt scheduled at the same instant the victim finishes."""
    env = Environment()

    def worker(env):
        yield env.timeout(5)

    def killer(env, victim):
        yield env.timeout(5)
        if victim.is_alive:
            victim.interrupt()

    victim = env.process(worker(env))
    env.process(killer(env, victim))
    env.run()  # must not raise


def test_process_is_alive_lifecycle():
    env = Environment()

    def worker(env):
        yield env.timeout(5)

    p = env.process(worker(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_return_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1)
        return 123

    p = env.process(worker(env))
    env.run()
    assert p.value == 123


def test_yield_non_event_raises_in_process():
    env = Environment()

    def worker(env):
        yield 42

    p = env.process(worker(env))
    with pytest.raises(TypeError):
        env.run(until=p)


def test_nested_processes_three_deep():
    env = Environment()

    def leaf(env):
        yield env.timeout(1)
        return 1

    def middle(env):
        v = yield env.process(leaf(env))
        yield env.timeout(1)
        return v + 1

    def root(env):
        v = yield env.process(middle(env))
        return v + 1

    p = env.process(root(env))
    assert env.run(until=p) == 3
    assert env.now == 2


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7


def test_peek_empty_queue_is_inf():
    env = Environment()
    env.run()
    assert env.peek() == float("inf")
