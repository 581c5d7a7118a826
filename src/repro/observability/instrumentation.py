"""Bus-driven metrics: one subscriber that turns events into registry
updates.

The cloud layer increments provider-side counters directly (warm
starts, throttles — data the events do not always carry); everything
derivable from the event stream itself lands here, so any component
publishing to the bus is automatically measured. Each metric has exactly
one source — either direct instrumentation or this listener — so counts
are never doubled.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.observability.bus import ListenerInterface
from repro.observability.categories import (
    CAT_LAMBDA,
    CAT_LAUNCHING,
    CAT_SCHEDULER,
    CAT_VM,
    EV_DEGRADED_TO_VM_CORE,
    EV_INVOKED,
    EV_REQUESTED,
    EV_RUNNING,
    EV_SLOT_UNFILLED,
    EV_SPECULATIVE_LAUNCH,
)
from repro.observability.metrics import MetricsRegistry


class MetricsListener(ListenerInterface):
    """Populates a :class:`MetricsRegistry` from the event stream.

    Call :meth:`finalize` once at end of run (with the run's end time)
    to close per-executor lifetimes and derive idle seconds.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: vm name -> request time (for boot-delay histograms).
        self._vm_requested: Dict[str, float] = {}
        #: executor id -> (registered_at, kind).
        self._executor_opened: Dict[str, Tuple[float, str]] = {}
        #: executor id -> removal time.
        self._executor_closed: Dict[str, float] = {}
        self._finalized = False
        # Bound-metric caches for the per-task callbacks: resolve the
        # f-string metric name + registry lookup once per distinct
        # state/kind, then every task is a dict hit + direct call.
        # Populated lazily so metric families appear in the registry in
        # exactly the order (and only when) events demand them.
        self._task_launched_inc = None
        self._task_state_inc: Dict[str, Any] = {}
        self._busy_add: Dict[str, Any] = {}
        # Per-task updates are *batched*: the hot callbacks only bump
        # plain Python ints / append floats, and the buffered updates
        # drain into the registry at observation points (the registry
        # calls the flush hook before any read-side view renders, and
        # finalize drains explicitly). Replay preserves exact update
        # order per metric, so values are bit-identical to unbatched
        # per-event updates: n counter incs of 1 fold to one inc of n
        # (integer-exact), and per-kind busy-seconds additions replay
        # left-to-right in arrival order.
        self._launched_pending = 0
        self._state_pending: Dict[str, int] = {}
        self._busy_pending: Dict[str, list] = {}
        registry.add_flush_hook(self.flush)

    # -- typed callbacks ----------------------------------------------

    def on_task_start(self, time: float, fields: Dict[str, Any]) -> None:
        if self._task_launched_inc is None:
            self._task_launched_inc = self.registry.counter(
                "scheduler.tasks.launched").inc
        self._launched_pending += 1

    def on_task_end(self, time: float, fields: Dict[str, Any]) -> None:
        state = fields.get("state", "finished")
        pending = self._state_pending.get(state)
        if pending is None:
            # First sighting: create the family now so registration
            # order matches unbatched instrumentation exactly.
            self._task_state_inc[state] = self.registry.counter(
                f"scheduler.tasks.{state}").inc
            pending = 0
        self._state_pending[state] = pending + 1
        kind = fields.get("kind", "vm")
        durations = self._busy_pending.get(kind)
        if durations is None:
            self._busy_add[kind] = self.registry.gauge(
                f"executor.{kind}.busy_seconds").add
            durations = self._busy_pending[kind] = []
        durations.append(fields.get("duration", 0.0))

    def flush(self) -> None:
        """Drain the batched per-task updates into the registry."""
        if self._launched_pending:
            self._task_launched_inc(float(self._launched_pending))
            self._launched_pending = 0
        for state, count in self._state_pending.items():
            if count:
                self._task_state_inc[state](float(count))
        self._state_pending = {}
        for kind, durations in self._busy_pending.items():
            if durations:
                add = self._busy_add[kind]
                for duration in durations:
                    add(float(duration))
                del durations[:]

    def on_stage_submitted(self, time: float, fields: Dict[str, Any]) -> None:
        self.registry.counter("dag.stages.submitted").inc()

    def on_stage_completed(self, time: float, fields: Dict[str, Any]) -> None:
        self.registry.counter("dag.stages.completed").inc()

    def on_executor_added(self, time: float, fields: Dict[str, Any]) -> None:
        kind = fields.get("kind", "vm")
        self.registry.counter(f"executor.{kind}.added").inc()
        executor = fields.get("executor")
        if executor is not None and executor not in self._executor_opened:
            self._executor_opened[executor] = (time, kind)

    def on_executor_removed(self, time: float, fields: Dict[str, Any]) -> None:
        executor = fields.get("executor")
        if executor is not None and executor not in self._executor_closed:
            self._executor_closed[executor] = time

    def on_segue_triggered(self, time: float, fields: Dict[str, Any]) -> None:
        self.registry.counter("segue.triggered").inc()
        self.registry.counter("segue.lambdas_drained").inc(
            float(fields.get("drained", 0)))

    def on_fault_injected(self, time: float, fields: Dict[str, Any]) -> None:
        self.registry.counter("faults.injected").inc()

    # -- generic hook -------------------------------------------------

    def on_event(self, time: float, category: str, name: str,
                 fields: Dict[str, Any]) -> None:
        if category == CAT_VM:
            if name == EV_REQUESTED:
                vm = fields.get("vm")
                if vm is not None:
                    self._vm_requested[vm] = time
            elif name == EV_RUNNING:
                if fields.get("pre_provisioned"):
                    self.registry.counter("cloud.vm.pre_provisioned").inc()
                else:
                    requested_at = self._vm_requested.pop(
                        fields.get("vm"), None)
                    self.registry.counter("cloud.vm.provisioned").inc()
                    if requested_at is not None:
                        self.registry.histogram(
                            "cloud.vm.boot_seconds").observe(
                                time - requested_at)
        elif category == CAT_LAMBDA and name == EV_INVOKED:
            self.registry.histogram(
                "cloud.lambda.start_delay_seconds").observe(
                    float(fields.get("start_delay", 0.0)))
        elif category == CAT_LAUNCHING:
            if name == EV_DEGRADED_TO_VM_CORE:
                self.registry.counter("launching.degraded_slots").inc()
            elif name == EV_SLOT_UNFILLED:
                self.registry.counter("launching.unfilled_slots").inc(
                    float(fields.get("cores", 1)))
        elif category == CAT_SCHEDULER and name == EV_SPECULATIVE_LAUNCH:
            self.registry.counter("scheduler.speculative_launches").inc()

    # -- end of run ---------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close open executor lifetimes at ``now`` and derive
        ``executor.<kind>.lifetime_seconds`` / ``.idle_seconds``.
        Idempotent per run (second call is a no-op)."""
        if self._finalized:
            return
        self._finalized = True
        self.flush()
        lifetimes: Dict[str, float] = {}
        for executor, (opened, kind) in self._executor_opened.items():
            closed = self._executor_closed.get(executor, now)
            lifetimes[kind] = lifetimes.get(kind, 0.0) + max(
                0.0, closed - opened)
        for kind in sorted(lifetimes):
            lifetime = lifetimes[kind]
            busy = 0.0
            busy_name = f"executor.{kind}.busy_seconds"
            if busy_name in self.registry:
                busy = self.registry.gauge(busy_name).value
            self.registry.gauge(f"executor.{kind}.lifetime_seconds").set(
                lifetime)
            self.registry.gauge(f"executor.{kind}.idle_seconds").set(
                max(0.0, lifetime - busy))


def attribute_costs(registry: MetricsRegistry, total: float,
                    breakdown: Dict[str, float]) -> None:
    """Record the run's dollar split as ``cost.*`` gauges.

    ``breakdown`` is :meth:`BillingMeter.breakdown` output — ``vm`` /
    ``lambda`` / ``storage:<svc>`` keys summing to ``total``.
    """
    registry.gauge("cost.total").set(total)
    registry.gauge("cost.iaas").set(breakdown.get("vm", 0.0))
    registry.gauge("cost.faas").set(breakdown.get("lambda", 0.0))
    for key, value in breakdown.items():
        if key.startswith("storage:"):
            registry.gauge(f"cost.storage.{key.split(':', 1)[1]}").set(value)
