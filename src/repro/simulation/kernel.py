"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.simulation.events import NORMAL, Event, Process, Timeout


class SimulationError(RuntimeError):
    """Raised for kernel-level errors (e.g. an empty schedule in run())."""


#: Queue entries: (time, priority, sequence, event). The sequence number
#: makes ordering total and FIFO-stable for simultaneous events, and lets
#: boundary tuples (time, priority, seq) compare against queue heads
#: without ever reaching the Event element.
_QueueItem = Tuple[float, int, int, Event]

#: A boundary every queue entry sorts below, even one at time +inf.
_OPEN = (float("inf"), float("inf"), float("inf"))


class Environment:
    """Execution environment for a simulation.

    The environment owns the simulation clock (:attr:`now`) and the event
    queue. Time is a float in *seconds* by convention throughout this
    repository.

    :meth:`run` and :meth:`step_until` share one dispatch loop,
    :meth:`_drain`, bounded by a ``(time, priority, seq)`` tuple. It is
    deliberately monomorphic: the heap pop, the callback sweep, and the
    failure check are inlined with hoisted locals so the per-event cost
    is a handful of bytecodes, not a method call chain. The byte-identity
    goldens (``tests/goldens``) pin its pop order and clock updates.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time in seconds. A plain attribute, not a
        #: property: the hot paths (schedule, every emitter's ``env.now``
        #: read) touch it tens of thousands of times per run and the
        #: descriptor call was measurable. Read-only by convention —
        #: only the run methods below may assign it.
        self.now = float(initial_time)
        self._queue: List[_QueueItem] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Events popped and dispatched since construction — the
        #: denominator for simulated-events/sec kernel throughput
        #: (``benchmarks/bench_core_speed.py``).
        self.events_processed = 0

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> Event:
        """Condition that fires when all ``events`` have fired."""
        from repro.simulation.events import AllOf

        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert ``event`` into the queue ``delay`` seconds from now."""
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulation time, as :meth:`step_until` does), or
        an :class:`Event` (run until it fires, returning its value or
        raising its exception).
        """
        if until is None:
            self._drain(_OPEN)
            return None
        if not isinstance(until, Event):
            self._advance(until)
            return None
        if until.callbacks is None:
            # Already processed before run() was even called.
            if until._ok:
                return until._value
            raise until._value
        until.callbacks.append(_StopSimulation.callback)
        try:
            self._drain(_OPEN)
        except _StopSimulation:
            if until._ok:
                return until._value
            raise until._value
        raise SimulationError(
            "simulation ran out of events before the 'until' "
            "condition fired")

    def step_until(self, at: float) -> int:
        """Advance the clock to ``at``, dispatching all due events.

        The driver-facing batch API for real-time stepping (one Python
        call per tick, not one per event). Returns the number of events
        dispatched.
        """
        return self._advance(at)

    def _advance(self, at: float) -> int:
        """Dispatch everything due by ``at``, then set the clock to it.

        One sequence number is consumed and the heap drained below
        ``(at, NORMAL, seq)``: exactly the events a stop :class:`Timeout`
        scheduled now for ``at`` would let run first, and the same
        tie-breaking for events scheduled afterwards.
        """
        at = float(at)
        if at < self.now:
            raise ValueError(f"until={at} is in the past (now={self.now})")
        self._eid += 1
        processed = self._drain((at, NORMAL, self._eid))
        self.now = at
        return processed

    def _drain(self, boundary: Tuple[float, float, float]) -> int:
        """The dispatch loop: pop and fire events while the heap head
        sorts below ``boundary``; return how many ran.

        A failed event nobody waited on is raised here instead of being
        dropped (errors should never pass silently).
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while queue and queue[0] < boundary:
                self.now, _, _, event = pop(queue)
                processed += 1
                # Mark processed *before* running callbacks (as SimPy
                # does) so callbacks observe "this event is done".
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self.events_processed += processed
        return processed


class _StopSimulation(Exception):
    """Internal control flow: the ``until`` event of
    :meth:`Environment.run` fired."""

    @staticmethod
    def callback(event: Event) -> None:
        raise _StopSimulation
