"""The typed event bus every instrumented component publishes to.

Historically components wrote straight into a
:class:`~repro.simulation.tracing.TraceRecorder` — the recorder *was*
the observability API, so anything else that wanted the event stream
(metrics, exporters, live listeners) had to post-process the trace.
The :class:`EventBus` inverts that: components publish through the same
``record(time, category, name, **fields)`` duck-typed signature, and the
recorder becomes one subscriber among several.

Subscribers are either:

- a :class:`ListenerInterface` implementation — known (category, name)
  pairs dispatch to typed callbacks (``on_task_start`` ...), and every
  event reaches the generic ``on_event`` hook; or
- anything exposing ``record(time, category, name, **fields)`` (e.g. a
  ``TraceRecorder``), which receives the raw stream unchanged.

Publishing is synchronous and in subscription order, so delivery is as
deterministic as the simulation itself.

``record()`` is on the simulation's per-task hot path, so dispatch is
*compiled*: the first event of each ``(category, name)`` builds a flat
call plan — the validation verdict, the typed-callback/`on_event` bound
methods of every subscriber that actually overrides them, in
subscription order — and every later occurrence is one dict lookup plus
direct calls. Subscription changes invalidate the plans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.observability.categories import (
    CAT_DAG,
    CAT_EXECUTOR,
    CAT_FAULT,
    CAT_SCHEDULER,
    CAT_SEGUE,
    EV_DEAD,
    EV_EXECUTOR_DRAINED,
    EV_REGISTERED,
    EV_SEGUE_TRIGGERED,
    EV_STAGE_COMPLETE,
    EV_STAGE_SUBMITTED,
    EV_TASK_END,
    EV_TASK_START,
    EVENTS,
    validate_event,
)


class ListenerInterface:
    """Typed subscriber callbacks. Override any subset.

    Typed callbacks receive ``(time, fields)``; ``fields`` is the
    emitter's payload dict (shared, do not mutate). Every event — typed
    or not — additionally reaches :meth:`on_event`.
    """

    def on_task_start(self, time: float, fields: Dict[str, Any]) -> None:
        """A task attempt began running on an executor."""

    def on_task_end(self, time: float, fields: Dict[str, Any]) -> None:
        """A task attempt finished/failed/was killed on an executor."""

    def on_stage_submitted(self, time: float, fields: Dict[str, Any]) -> None:
        """The DAG scheduler submitted a stage's task set."""

    def on_stage_completed(self, time: float, fields: Dict[str, Any]) -> None:
        """A stage's outputs are complete."""

    def on_executor_added(self, time: float, fields: Dict[str, Any]) -> None:
        """An executor registered (fields carry ``executor``, ``kind``)."""

    def on_executor_removed(self, time: float, fields: Dict[str, Any]) -> None:
        """An executor left the cluster — drained gracefully or died."""

    def on_segue_triggered(self, time: float, fields: Dict[str, Any]) -> None:
        """The segueing facility began a Lambda→VM hand-off round."""

    def on_fault_injected(self, time: float, fields: Dict[str, Any]) -> None:
        """The fault injector fired one fault (any kind)."""

    def on_event(self, time: float, category: str, name: str,
                 fields: Dict[str, Any]) -> None:
        """Generic hook: called for every published event."""


#: (category, name) -> ListenerInterface method name. Fault injections
#: are category-wide (every FaultInjector emission except the
#: ``recovered`` milestone), handled separately below.
TYPED_DISPATCH: Dict[Tuple[str, str], str] = {
    (CAT_EXECUTOR, EV_TASK_START): "on_task_start",
    (CAT_EXECUTOR, EV_TASK_END): "on_task_end",
    (CAT_DAG, EV_STAGE_SUBMITTED): "on_stage_submitted",
    (CAT_DAG, EV_STAGE_COMPLETE): "on_stage_completed",
    (CAT_EXECUTOR, EV_REGISTERED): "on_executor_added",
    (CAT_EXECUTOR, EV_DEAD): "on_executor_removed",
    (CAT_SCHEDULER, EV_EXECUTOR_DRAINED): "on_executor_removed",
    (CAT_SEGUE, EV_SEGUE_TRIGGERED): "on_segue_triggered",
}

#: Fault-category names that count as injections (everything but the
#: post-hoc "recovered" milestone).
_FAULT_INJECTED_NAMES = EVENTS[CAT_FAULT] - {"recovered"}


def dispatch_method(category: str, name: str) -> Optional[str]:
    """The typed ListenerInterface method for ``(category, name)``, or
    None for events with only the generic ``on_event`` hook. Single
    source of truth for the compiled plans and any reference
    implementation (the identity tests compare against one)."""
    method = TYPED_DISPATCH.get((category, name))
    if method is None and category == CAT_FAULT \
            and name in _FAULT_INJECTED_NAMES:
        method = "on_fault_injected"
    return method


class _RecorderSubscriber(ListenerInterface):
    """Adapter: feeds the raw stream into a TraceRecorder-like sink.

    A sink disabled at subscription time is compiled *out* of the call
    plans entirely (see :meth:`EventBus._compile`) —
    :class:`~repro.simulation.tracing.TraceRecorder` sets ``enabled``
    once at construction, so the verdict is stable for a run's lifetime.
    Sinks without an ``enabled`` flag always receive the stream.
    """

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder

    def on_event(self, time: float, category: str, name: str,
                 fields: Dict[str, Any]) -> None:
        self.recorder.record(time, category, name, **fields)


def _overridden(sub: ListenerInterface, method: str):
    """``sub``'s bound ``method`` if it overrides the ListenerInterface
    no-op, else None (base no-ops are skipped at compile time, not
    called per event). Instance-level overrides (monkeypatched
    callables) are detected too: only a bound method whose underlying
    function *is* the base-class no-op is dropped."""
    fn = getattr(sub, method)
    if getattr(fn, "__func__", None) is getattr(ListenerInterface, method):
        return None
    return fn


class EventBus:
    """Fan-out hub with the ``TraceRecorder.record`` signature.

    It rejects events not registered in
    :mod:`repro.observability.categories` — the runtime half of the
    taxonomy lint.
    """

    def __init__(self) -> None:
        self._subscribers: List[ListenerInterface] = []
        self._context: Optional[Dict[str, Any]] = None
        #: (category, name) -> tuple of (typed_bound_or_None,
        #: on_event_bound_or_None) per subscriber that handles the
        #: event, in subscription order. Compiled lazily; cleared on any
        #: subscription change. An empty tuple is the cached no-op
        #: verdict (zero interested subscribers).
        self._plans: Dict[Tuple[str, str], tuple] = {}

    def set_context(self, fields: Optional[Dict[str, Any]]) -> None:
        """Ambient fields merged into every published event until
        cleared with ``set_context(None)``.

        The serve driver uses this to stamp the trace ids of in-flight
        pooled jobs onto the sim's CAT_* events while it advances the
        shared simulation, linking wall-clock spans to sim-time events
        without the emitters knowing about tracing. Explicit event
        fields win on key collision. Batch runs never set a context,
        so single-run event logs (and their golden files) are
        untouched.
        """
        self._context = dict(fields) if fields else None

    def subscribe(self, listener: Any) -> Any:
        """Add a subscriber; returns ``listener`` for chaining.

        A non-``ListenerInterface`` object exposing ``record(...)`` is
        wrapped so it receives the raw stream.
        """
        if isinstance(listener, ListenerInterface):
            self._subscribers.append(listener)
        elif callable(getattr(listener, "record", None)):
            self._subscribers.append(_RecorderSubscriber(listener))
        else:
            raise TypeError(
                f"subscriber must be a ListenerInterface or expose "
                f"record(time, category, name, **fields); got {listener!r}")
        self._plans.clear()
        return listener

    def unsubscribe(self, listener: Any) -> None:
        """Remove a subscriber added via :meth:`subscribe` (no-op if
        absent). Removes in place — no list copy — so SSE-churn
        subscribe/unsubscribe cycles stay allocation-free."""
        subs = self._subscribers
        removed = False
        for i in range(len(subs) - 1, -1, -1):
            sub = subs[i]
            if sub is listener or (isinstance(sub, _RecorderSubscriber)
                                   and sub.recorder is listener):
                del subs[i]
                removed = True
        if removed:
            self._plans.clear()

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def _compile(self, category: str, name: str) -> tuple:
        """Build, cache, and return the call plan for one event type.

        Validation runs here — once per (category, name) — and an
        invalid event raises *without* caching, so every publish of a
        bad event keeps raising exactly as per-call validation did.
        """
        validate_event(category, name)
        method = dispatch_method(category, name)
        plan = []
        for sub in self._subscribers:
            if (isinstance(sub, _RecorderSubscriber)
                    and not getattr(sub.recorder, "enabled", True)):
                # TraceRecorder.enabled is fixed at construction, so a
                # disabled sink drops out of the plan instead of
                # no-opping per event.
                continue
            typed = _overridden(sub, method) if method is not None else None
            generic = _overridden(sub, "on_event")
            if typed is not None or generic is not None:
                plan.append((typed, generic))
        compiled = tuple(plan)
        self._plans[(category, name)] = compiled
        return compiled

    def record(self, time: float, category: str, name: str,
               **fields: Any) -> None:
        """Publish one event to every subscriber (TraceRecorder-compatible
        signature, so emitters accept a bus anywhere they accept a
        recorder)."""
        self.record_packed(time, category, name, fields)

    def record_packed(self, time: float, category: str, name: str,
                      fields: Dict[str, Any]) -> None:
        """:meth:`record` taking the payload as an already-built dict.

        Hot emitters with a precomputed base payload (e.g. the executor's
        identity fields) merge once and pass the dict straight through,
        skipping a kwargs repack per event. Ownership transfers to the
        bus: the caller must pass a fresh dict and never mutate it after
        the call (subscribers may retain references).
        """
        plan = self._plans.get((category, name))
        if plan is None:
            plan = self._compile(category, name)
        if not plan:
            return
        context = self._context
        if context is not None:
            fields = {**context, **fields}
        for typed, generic in plan:
            if typed is not None:
                typed(time, fields)
            if generic is not None:
                generic(time, category, name, fields)
