"""The numeric stop of ``run(until=t)`` and ``step_until(t)``.

Both advance the clock by draining the event heap below
``(t, NORMAL, seq)`` with one fresh sequence number. Comparing the two
with each other would be circular, since they share that code, so each
is checked against an independent reference: a real stop
:class:`~repro.simulation.events.Timeout` scheduled for ``t``, passed as
``run(until=env.timeout(t - env.now))``. The reference dispatches its
stop timeout as an event of its own, so it counts exactly one event more
per stop; everything else must match: dispatch order, clock, and the
next sequence number.

The generated worlds mix zero and equal delays, same-time URGENT
resumptions (process starts and interrupts), and failures defused by the
process waiting on them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import Environment, Interrupt

#: Binary fractions, so ``now + (t - now) == t`` exactly and the
#: reference's stop timeout lands on ``t`` itself. Zeros and repeats make
#: same-time events.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])

LEAF_STEPS = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("fail"), DELAYS),
)
STEPS = st.one_of(
    LEAF_STEPS,
    st.tuples(st.just("spawn"), st.lists(LEAF_STEPS, max_size=3)))
PROGRAMS = st.lists(st.lists(STEPS, max_size=5), min_size=1, max_size=4)


class World:
    """One environment running ``program``, a list of processes' steps.

    ``log`` records every process step with the clock and the sequence
    counter at that moment, so two worlds dispatched in the same order
    have equal logs.
    """

    def __init__(self, program) -> None:
        self.env = Environment()
        self.log = []
        self.procs = []
        #: Per process: waiting on a timeout, with no interrupt pending.
        #: Only such a process is interrupted, so every interrupt lands
        #: on a wait that catches it.
        self.interruptible = []
        for steps in program:
            self._start(steps)

    def _start(self, steps) -> None:
        idx = len(self.procs)
        self.interruptible.append(False)
        self.procs.append(self.env.process(self._worker(idx, steps)))

    def _note(self, *what) -> None:
        self.log.append((self.env.now, self.env._eid) + what)

    def _failing(self, delay):
        yield self.env.timeout(delay)
        raise ValueError("planned failure")

    def _worker(self, idx, steps):
        env = self.env
        self._note(idx, "start")
        for kind, arg in steps:
            if kind == "wait":
                self.interruptible[idx] = True
                try:
                    yield env.timeout(arg)
                except Interrupt as irq:
                    self._note(idx, "interrupted", irq.cause)
                self.interruptible[idx] = False
            elif kind == "interrupt":
                target = arg % len(self.procs)
                if self.interruptible[target]:
                    self.interruptible[target] = False
                    self.procs[target].interrupt(idx)
            elif kind == "fail":
                try:
                    yield env.process(self._failing(arg))
                except ValueError:
                    self._note(idx, "caught")
            else:
                self._start(arg)
            self._note(idx, kind)


def _stop_times(program):
    """Every time a probe world logs a step, the midpoints between those
    times, and a time after the probe's last event."""
    probe = World(program)
    probe.env.run()
    times = sorted({entry[0] for entry in probe.log})
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return times + between + [probe.env.now + 0.5]


@given(program=PROGRAMS, data=st.data())
@settings(max_examples=200, deadline=None)
def test_numeric_stop_matches_a_real_stop_timeout(program, data):
    stops = sorted(data.draw(
        st.lists(st.sampled_from(_stop_times(program)),
                 min_size=1, max_size=3), label="stops"))
    stepped, ran, reference = World(program), World(program), World(program)

    def check(stops_done):
        assert stepped.log == ran.log == reference.log
        assert stepped.env.now == ran.env.now == reference.env.now
        assert stepped.env._eid == ran.env._eid == reference.env._eid
        for world in (stepped, ran):
            assert (reference.env.events_processed
                    - world.env.events_processed) == stops_done

    for done, t in enumerate(stops, start=1):
        before = reference.env.events_processed
        dispatched = stepped.env.step_until(t)
        assert ran.env.run(until=t) is None
        reference.env.run(until=reference.env.timeout(t - reference.env.now))
        assert stepped.env.now == t
        assert dispatched == reference.env.events_processed - before - 1
        check(done)

    for world in (stepped, ran, reference):
        world.env.run()
    check(len(stops))


def test_step_until_into_the_past_is_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError, match="in the past"):
        env.step_until(5)
    assert env.now == 10
    assert env._eid == 0
