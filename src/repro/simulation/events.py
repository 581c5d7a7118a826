"""Event primitives for the simulation kernel.

The design follows the classic process-interaction style: a
:class:`Process` wraps a Python generator; each value the generator yields
must be an :class:`Event`, and the process resumes when that event fires.
Events carry a value (delivered as the result of the ``yield``) or an
exception (raised at the ``yield`` site).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simulation.kernel import Environment

#: Sort priorities for events scheduled at the same simulation time.
#: Urgent events (process resumptions) run before normal ones so that, e.g.,
#: a resource release observed at time t is visible to requests at time t.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies an arbitrary ``cause`` describing why
    (for example, an executor being decommissioned mid-task).
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class _Pending:
    """Sentinel marking an event that has not been triggered yet."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* → *triggered* (has a value or exception and sits
    in the event queue) → *processed* (callbacks have run).

    Events are the single most-allocated object in any run, so the whole
    hierarchy carries ``__slots__``: no per-instance ``__dict__``, and
    attribute access in the kernel's step loop stays monomorphic.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        #: Set when a failed event's exception has been delivered to at
        #: least one waiter; undelivered failures are surfaced by the
        #: environment at the end of the run instead of passing silently.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (already fired) event.

        Used as a callback when chaining events.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self, priority=NORMAL)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Base Event.__init__ inlined (then _ok/_value overwritten there
        # would be dead stores): timeouts are the most-created event kind,
        # one per task service interval, so the extra call was measurable.
        self.env = env
        self.callbacks = []
        self._defused = False
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """Internal event that starts a process when it is processed."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event succeeds, its value is sent into the generator; when it fails,
    the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return self._value is PENDING

    @property
    def name(self) -> str:
        """Best-effort name of the wrapped generator function."""
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        twice before it resumes delivers both interrupts in order.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env.schedule(self, priority=NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env.schedule(self, priority=NORMAL)
                break

            if not isinstance(next_event, Event):
                self._generator.throw(
                    TypeError(f"process {self.name} yielded a non-event: {next_event!r}"))
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: resume immediately with its outcome.
            event = next_event
        self.env._active_process = None


class _Interruption(Event):
    """Delivers an :class:`Interrupt` into a waiting process.

    Delivery is deferred to the event queue (URGENT priority) so that
    interrupts are serialized with other events at the current time. At
    delivery time the interruption detaches the process from whatever
    event it was waiting on; the abandoned event may still fire later but
    will no longer resume this process for that wait.
    """

    __slots__ = ("process",)

    def __init__(self, process: Process, cause: Any) -> None:
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        self.env.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        if not self.process.is_alive:
            return  # the process terminated before delivery; drop silently
        target = self.process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self.process._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self.process._resume(self)


class AllOf(Event):
    """Fires when all of ``events`` have fired successfully, and fails
    with the first constituent that fails.

    The value is a dict mapping each *fired* constituent event to its
    value, preserving creation order.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._value is not PENDING
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                # Late failure after the condition already fired: mark it
                # delivered so it does not crash the run.
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed(self._collect())
