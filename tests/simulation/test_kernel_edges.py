"""Edge-case tests for the simulation kernel's condition/interrupt paths."""

import pytest

from repro.simulation import AllOf, Environment, Interrupt


def test_allof_fails_if_any_constituent_fails():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        t = env.timeout(10)
        try:
            yield AllOf(env, [t, gate])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    def failer(env):
        yield env.timeout(2)
        gate.fail(ValueError("constituent died"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == [(2, "constituent died")]


def test_allof_late_failure_after_it_failed_is_defused():
    env = Environment()
    first, second = env.event(), env.event()
    caught = []

    def waiter(env):
        try:
            yield AllOf(env, [first, second])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    def failer(env):
        yield env.timeout(1)
        first.fail(ValueError("first"))
        yield env.timeout(4)
        second.fail(RuntimeError("too late to matter"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()  # the late failure must not crash the run
    assert caught == [(1, "first")]


def test_condition_rejects_cross_environment_events():
    env_a, env_b = Environment(), Environment()
    with pytest.raises(ValueError, match="different environments"):
        AllOf(env_a, [env_a.timeout(1), env_b.timeout(1)])


def test_interrupt_cause_can_be_any_object():
    env = Environment()
    causes = []

    def worker(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            causes.append(intr.cause)

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt(cause={"reason": "structured", "code": 7})

    victim = env.process(worker(env))
    env.process(interrupter(env, victim))
    env.run()
    assert causes == [{"reason": "structured", "code": 7}]


def test_process_cannot_interrupt_itself():
    env = Environment()

    def narcissist(env):
        process = env.active_process
        process.interrupt()
        yield env.timeout(1)

    p = env.process(narcissist(env))
    with pytest.raises(RuntimeError, match="cannot interrupt itself"):
        env.run(until=p)


def test_double_interrupt_delivers_both():
    env = Environment()
    seen = []

    def worker(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                seen.append(intr.cause)

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt(cause="first")
        victim.interrupt(cause="second")

    victim = env.process(worker(env))
    env.process(interrupter(env, victim))
    env.run(until=victim)
    assert seen == ["first", "second"]


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run(until=1)  # processes the event
    assert env.run(until=ev) == "early"


def test_process_exception_not_caught_propagates_from_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("child blew up")

    def parent(env):
        yield env.process(child(env))

    p = env.process(parent(env))
    with pytest.raises(KeyError):
        env.run(until=p)


def test_timeout_value_passthrough_in_conditions():
    env = Environment()
    out = []

    def waiter(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        got = yield AllOf(env, [t1, t2])
        out.append((got[t1], got[t2]))

    env.process(waiter(env))
    env.run()
    assert out == [("a", "b")]
