"""Tests for the typed EventBus and its subscriber contract."""

import pytest

from repro.observability.bus import EventBus, ListenerInterface
from repro.observability.categories import (
    CAT_DAG,
    CAT_EXECUTOR,
    CAT_FAULT,
    CAT_SCHEDULER,
    CAT_SEGUE,
    EV_DEAD,
    EV_EXECUTOR_DRAINED,
    EV_EXECUTOR_KILLED,
    EV_RECOVERED,
    EV_REGISTERED,
    EV_SEGUE_TRIGGERED,
    EV_STAGE_COMPLETE,
    EV_STAGE_SUBMITTED,
    EV_TASK_END,
    EV_TASK_START,
)
from repro.simulation import TraceRecorder


class SpyListener(ListenerInterface):
    def __init__(self):
        self.calls = []

    def on_task_start(self, time, fields):
        self.calls.append(("on_task_start", time, fields))

    def on_task_end(self, time, fields):
        self.calls.append(("on_task_end", time, fields))

    def on_stage_submitted(self, time, fields):
        self.calls.append(("on_stage_submitted", time, fields))

    def on_stage_completed(self, time, fields):
        self.calls.append(("on_stage_completed", time, fields))

    def on_executor_added(self, time, fields):
        self.calls.append(("on_executor_added", time, fields))

    def on_executor_removed(self, time, fields):
        self.calls.append(("on_executor_removed", time, fields))

    def on_segue_triggered(self, time, fields):
        self.calls.append(("on_segue_triggered", time, fields))

    def on_fault_injected(self, time, fields):
        self.calls.append(("on_fault_injected", time, fields))

    def on_event(self, time, category, name, fields):
        self.calls.append(("on_event", time, category, name))

    def typed(self):
        return [c for c in self.calls if c[0] != "on_event"]


def test_typed_dispatch_routes_known_events():
    bus = EventBus()
    spy = bus.subscribe(SpyListener())
    bus.record(1.0, CAT_EXECUTOR, EV_TASK_START, executor="e0", task="t")
    bus.record(2.0, CAT_EXECUTOR, EV_TASK_END, executor="e0", task="t",
               duration=1.0)
    bus.record(3.0, CAT_DAG, EV_STAGE_SUBMITTED, stage_id=0)
    bus.record(4.0, CAT_DAG, EV_STAGE_COMPLETE, stage_id=0)
    bus.record(5.0, CAT_EXECUTOR, EV_REGISTERED, executor="e1", kind="vm")
    bus.record(6.0, CAT_EXECUTOR, EV_DEAD, executor="e1")
    bus.record(7.0, CAT_SCHEDULER, EV_EXECUTOR_DRAINED, executor="e0")
    bus.record(8.0, CAT_SEGUE, EV_SEGUE_TRIGGERED, vm="vm1")
    assert [c[0] for c in spy.typed()] == [
        "on_task_start", "on_task_end", "on_stage_submitted",
        "on_stage_completed", "on_executor_added", "on_executor_removed",
        "on_executor_removed", "on_segue_triggered"]
    # The generic hook sees everything, typed or not.
    assert len([c for c in spy.calls if c[0] == "on_event"]) == 8


def test_fault_category_dispatches_on_fault_injected():
    bus = EventBus()
    spy = bus.subscribe(SpyListener())
    bus.record(1.0, CAT_FAULT, EV_EXECUTOR_KILLED, executor="e0")
    assert spy.typed() == [
        ("on_fault_injected", 1.0, {"executor": "e0"})]


def test_recovered_milestone_is_not_an_injection():
    bus = EventBus()
    spy = bus.subscribe(SpyListener())
    bus.record(1.0, CAT_FAULT, EV_RECOVERED, kind="executor_kill")
    assert spy.typed() == []
    assert ("on_event", 1.0, CAT_FAULT, EV_RECOVERED) in spy.calls


def test_trace_recorder_subscribes_as_raw_sink():
    bus = EventBus()
    trace = bus.subscribe(TraceRecorder())
    bus.record(1.5, CAT_EXECUTOR, EV_REGISTERED, executor="e0", kind="vm")
    assert len(trace) == 1
    rec = trace.records[0]
    assert (rec.time, rec.category, rec.name) == (
        1.5, CAT_EXECUTOR, EV_REGISTERED)
    assert rec.get("executor") == "e0"


def test_subscribe_rejects_non_subscriber():
    with pytest.raises(TypeError):
        EventBus().subscribe(object())


def test_unsubscribe_listener_and_wrapped_recorder():
    bus = EventBus()
    spy = bus.subscribe(SpyListener())
    trace = bus.subscribe(TraceRecorder())
    assert bus.subscriber_count == 2
    bus.unsubscribe(trace)
    bus.unsubscribe(spy)
    assert bus.subscriber_count == 0
    bus.record(1.0, CAT_EXECUTOR, EV_TASK_START, executor="e0")
    assert spy.calls == []
    assert len(trace) == 0
    bus.unsubscribe(spy)  # removing again is a no-op


def test_validation_rejects_unknown_events():
    bus = EventBus()
    with pytest.raises(ValueError):
        bus.record(0.0, "not-a-category", "boom")
    with pytest.raises(ValueError):
        bus.record(0.0, CAT_EXECUTOR, "not-an-event")


def test_delivery_is_in_subscription_order():
    order = []

    class Tagged(ListenerInterface):
        def __init__(self, tag):
            self.tag = tag

        def on_event(self, time, category, name, fields):
            order.append(self.tag)

    bus = EventBus()
    bus.subscribe(Tagged("first"))
    bus.subscribe(Tagged("second"))
    bus.record(0.0, CAT_EXECUTOR, EV_TASK_START)
    assert order == ["first", "second"]
