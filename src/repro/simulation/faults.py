"""Declarative, seeded fault injection (the robustness harness).

SplitServe's central robustness claim (§2, §4.3) is about *degradation*:
external HDFS shuffle turns executor loss from a full lineage rollback
into a cheap re-dispatch, and the Lambda pool's failure modes (invoke
errors, account-level concurrency throttling, the 15-minute reaper) must
degrade a job, not kill it. This module makes those failure modes a
first-class, replayable experiment input:

- :class:`FaultSpec` — one declarative fault: a *kind*, a *trigger*
  (simulation time, a counted scheduler event, or a probability drawn
  from a named :class:`~repro.simulation.rng.RandomStreams` stream), and
  a *target selector* choosing the victims.
- :class:`FaultPlan` — an ordered, hashable tuple of fault specs; the
  value that rides on :class:`~repro.experiments.spec.ExperimentSpec`.
- :class:`FaultInjector` — arms a plan against a live simulation
  (scheduler + provider + storage services) and fires the faults through
  the event kernel.
- :class:`RecoveryAccounting` — a scheduler observer tallying what the
  failures cost: wasted work seconds, rollback recompute time, and
  time-to-recovery per lost partition.

Determinism guarantee: every random choice (victim selection,
per-invocation failure draws) flows through named ``RandomStreams``
streams, and every timer runs on the simulation clock — so the same seed
plus the same plan yields bit-identical schedules, records, and traces,
across any number of runner processes.

This module deliberately imports nothing from the cloud/spark layers at
module scope (it lives in the simulation substrate those layers build
on); injected objects are driven through their public duck-typed surface.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.observability.categories import (
    CAT_FAULT,
    EV_BROWNOUT_END,
    EV_BROWNOUT_START,
    EV_EXECUTOR_KILLED,
    EV_INVOKE_FAILED,
    EV_RECOVERED,
    EV_STRAGGLER_END,
    EV_STRAGGLER_START,
    EV_THROTTLE_END,
    EV_THROTTLE_START,
    EV_VM_REVOKED,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder

# -- fault vocabulary -------------------------------------------------------

KIND_EXECUTOR_KILL = "executor_kill"
KIND_SPOT_REVOCATION = "spot_revocation"
KIND_LAMBDA_INVOKE_FAILURE = "lambda_invoke_failure"
KIND_LAMBDA_THROTTLE = "lambda_throttle"
KIND_STORAGE_BROWNOUT = "storage_brownout"
KIND_STRAGGLER = "straggler"

FAULT_KINDS = (
    KIND_EXECUTOR_KILL,
    KIND_SPOT_REVOCATION,
    KIND_LAMBDA_INVOKE_FAILURE,
    KIND_LAMBDA_THROTTLE,
    KIND_STORAGE_BROWNOUT,
    KIND_STRAGGLER,
)

#: Scheduler counters an ``on_event`` trigger may reference, as
#: ``"<counter>:<n>"`` — the fault fires when the counter reaches n.
EVENT_COUNTERS = ("tasks_finished", "taskset_complete", "executor_lost")

#: Kinds whose effect has a victim multiplicity (``count``).
_COUNTED_KINDS = (KIND_EXECUTOR_KILL, KIND_SPOT_REVOCATION, KIND_STRAGGLER)
#: Kinds that need a slowdown ``factor``.
_FACTOR_KINDS = (KIND_STORAGE_BROWNOUT, KIND_STRAGGLER)

#: RNG stream used to pick victims among matching candidates.
SELECT_STREAM = "fault.select"
#: RNG stream for per-invocation Lambda failure draws.
INVOKE_STREAM = "fault.lambda.invoke"


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Triggers (exactly one, except ``lambda_invoke_failure`` which is
    probabilistic and optionally windowed by ``at_s``/``duration_s``):

    - ``at_s`` — fire at this simulation time;
    - ``on_event`` — fire when a scheduler counter reaches a value,
      written ``"tasks_finished:4"`` (see :data:`EVENT_COUNTERS`);
    - ``probability`` — per-Lambda-invocation failure probability drawn
      from the seeded :data:`INVOKE_STREAM` stream.

    Target selectors (``target``): ``"any"``/``"*"``; ``"vm"`` /
    ``"lambda"`` (executor host kind); ``"executor:<glob>"`` on executor
    ids; ``"vm:<glob>"`` on VM names; ``"spot"`` (spot instances only);
    ``"storage:<glob>"`` on storage-service names.

    Effect parameters: ``count`` victims for kills/revocations/
    stragglers; ``duration_s`` windows for throttles, brownouts and
    stragglers (None = until the end of the run); ``factor`` is the
    latency multiplier of a brownout or the slow-down multiplier of a
    straggler; ``limit`` is the account concurrency cap of a
    ``lambda_throttle``.
    """

    kind: str
    at_s: Optional[float] = None
    on_event: Optional[str] = None
    probability: Optional[float] = None
    target: str = "any"
    count: int = 1
    duration_s: Optional[float] = None
    factor: Optional[float] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {list(FAULT_KINDS)}")
        if self.at_s is not None and self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.on_event is not None:
            self._validate_on_event()
        if self.kind == KIND_LAMBDA_INVOKE_FAILURE:
            if self.on_event is not None:
                raise ValueError(
                    "lambda_invoke_failure is probabilistic; it takes an "
                    "optional at_s/duration_s window, not on_event")
            if self.probability is None or not 0.0 < self.probability <= 1.0:
                raise ValueError(
                    "lambda_invoke_failure needs probability in (0, 1], "
                    f"got {self.probability}")
        else:
            if self.probability is not None:
                raise ValueError(
                    f"probability only applies to lambda_invoke_failure, "
                    f"not {self.kind}")
            if (self.at_s is None) == (self.on_event is None):
                raise ValueError(
                    f"{self.kind} needs exactly one trigger: at_s or "
                    f"on_event")
        if self.kind in _FACTOR_KINDS:
            if self.factor is None or self.factor < 1.0:
                raise ValueError(
                    f"{self.kind} needs factor >= 1.0, got {self.factor}")
        elif self.factor is not None:
            raise ValueError(f"factor does not apply to {self.kind}")
        if self.kind == KIND_LAMBDA_THROTTLE:
            if self.limit is None or self.limit < 0:
                raise ValueError(
                    f"lambda_throttle needs limit >= 0, got {self.limit}")
        elif self.limit is not None:
            raise ValueError(f"limit only applies to lambda_throttle")
        if self.count != 1 and self.kind not in _COUNTED_KINDS:
            raise ValueError(f"count only applies to {_COUNTED_KINDS}")

    def _validate_on_event(self) -> None:
        counter, sep, raw = str(self.on_event).partition(":")
        ok = bool(sep) and counter in EVENT_COUNTERS
        if ok:
            try:
                ok = int(raw) >= 1
            except ValueError:
                ok = False
        if not ok:
            raise ValueError(
                f"on_event must look like '<counter>:<n>' with counter in "
                f"{list(EVENT_COUNTERS)} and n >= 1, got {self.on_event!r}")

    # -- serialization (JSON scalars only: cache/CLI-safe) -----------------

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}")
        if "kind" not in data:
            raise ValueError("a fault spec needs a 'kind'")
        kwargs = dict(data)
        if kwargs.get("count") is None:
            kwargs["count"] = 1
        if kwargs.get("target") is None:
            kwargs["target"] = "any"
        return cls(**kwargs)


FaultsInput = Union["FaultPlan", Iterable[Union[FaultSpec, Mapping]], None]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults — the unit a run is armed with."""

    faults: Tuple[FaultSpec, ...] = ()

    @classmethod
    def coerce(cls, obj: FaultsInput) -> "FaultPlan":
        """Normalize None / a plan / an iterable of specs-or-dicts."""
        if obj is None:
            return cls()
        if isinstance(obj, FaultPlan):
            return obj
        specs = []
        for item in obj:
            if isinstance(item, FaultSpec):
                specs.append(item)
            elif isinstance(item, Mapping):
                specs.append(FaultSpec.from_dict(item))
            else:
                raise TypeError(
                    f"fault entries must be FaultSpec or mapping, "
                    f"got {type(item).__name__}")
        return cls(tuple(specs))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


# -- named chaos plans --------------------------------------------------------

def _plan_throttle_storm(duration_s: float = 20.0) -> FaultPlan:
    """Lambda concurrency slammed to zero, then lifted: the breaker's
    bread and butter (consecutive throttles open it; the lift lets the
    half-open probe close it again)."""
    return FaultPlan((
        FaultSpec(KIND_LAMBDA_THROTTLE, at_s=0.0, limit=0,
                  duration_s=duration_s),
    ))


def _plan_spot_storm(duration_s: float = 30.0) -> FaultPlan:
    """A spot-revocation wave plus a concurrency squeeze — the
    SplitServe worst case: IaaS capacity vanishing exactly while the
    FaaS escape hatch is throttled."""
    return FaultPlan((
        FaultSpec(KIND_SPOT_REVOCATION, at_s=0.0, target="spot", count=2),
        FaultSpec(KIND_LAMBDA_THROTTLE, at_s=1.0, limit=1,
                  duration_s=duration_s),
        FaultSpec(KIND_EXECUTOR_KILL, at_s=duration_s / 2, count=1),
    ))


def _plan_brownout(duration_s: float = 15.0,
                   factor: float = 4.0) -> FaultPlan:
    """Every storage service degraded by ``factor`` for a window."""
    return FaultPlan((
        FaultSpec(KIND_STORAGE_BROWNOUT, at_s=0.0, factor=factor,
                  duration_s=duration_s),
    ))


def _plan_straggler_wave(duration_s: float = 20.0,
                         factor: float = 8.0) -> FaultPlan:
    """Two stragglers plus a flaky Lambda bridge (10% invoke failure)."""
    return FaultPlan((
        FaultSpec(KIND_STRAGGLER, at_s=0.0, count=2, factor=factor,
                  duration_s=duration_s),
        FaultSpec(KIND_LAMBDA_INVOKE_FAILURE, probability=0.1, at_s=0.0,
                  duration_s=duration_s),
    ))


#: Named chaos plans the serve layer (``repro chaos`` / ``POST /chaos``)
#: arms by name. Builders take only scalar kwargs so plans stay
#: CLI/JSON-addressable.
CHAOS_PLANS = {
    "throttle_storm": _plan_throttle_storm,
    "spot_storm": _plan_spot_storm,
    "brownout": _plan_brownout,
    "straggler_wave": _plan_straggler_wave,
}


def chaos_plan(name: str, **kwargs: Any) -> FaultPlan:
    """Build a named chaos plan (see :data:`CHAOS_PLANS`)."""
    try:
        builder = CHAOS_PLANS[name]
    except KeyError:
        raise ValueError(f"unknown chaos plan {name!r}; "
                         f"known: {sorted(CHAOS_PLANS)}") from None
    return builder(**kwargs)


# -- target selectors -------------------------------------------------------

def _executor_kind(executor) -> str:
    kind = getattr(executor, "kind", None)
    return getattr(kind, "value", str(kind))


def match_executor(target: str, executor) -> bool:
    """Does ``target`` select this executor?"""
    if target in ("any", "*"):
        return True
    kind = _executor_kind(executor)
    if target in ("vm", "lambda"):
        return kind == target
    if target.startswith("executor:"):
        return fnmatch.fnmatchcase(executor.executor_id,
                                   target[len("executor:"):])
    if target.startswith("vm:"):
        vm = getattr(executor, "vm", None)
        return (kind == "vm" and vm is not None
                and fnmatch.fnmatchcase(vm.name, target[len("vm:"):]))
    return False


def match_vm(target: str, vm) -> bool:
    """Does ``target`` select this VM (for revocation waves)?"""
    if target in ("any", "*"):
        return True
    if target == "spot":
        return hasattr(vm, "mean_revocation_s")
    if target.startswith("vm:"):
        return fnmatch.fnmatchcase(vm.name, target[len("vm:"):])
    return False


def match_storage(target: str, service) -> bool:
    if target in ("any", "*"):
        return True
    if target.startswith("storage:"):
        return fnmatch.fnmatchcase(service.name, target[len("storage:"):])
    return False


# -- the injector -----------------------------------------------------------

class FaultInjector:
    """Arms a :class:`FaultPlan` against one live simulation.

    ``attach`` wires the injector to the run's task scheduler (executor
    targeting, plus an observer registration when a fault waits on an
    event-count trigger), cloud provider (throttles and invoke
    failures) and storage services (brownouts), then starts a kernel
    process per time trigger. Every fired fault is appended to
    :attr:`injected` and recorded under the ``"fault"`` trace category.
    :meth:`apply` is the one interpreter of a fault's effect, shared by
    batch runs and the live serve plane's host-clock chaos windows.
    """

    def __init__(self, env: "Environment", rng: "RandomStreams",
                 plan: FaultsInput, trace: Optional["TraceRecorder"] = None):
        self.env = env
        self.rng = rng
        self.plan = FaultPlan.coerce(plan)
        self.trace = trace
        self.scheduler = None
        self.provider = None
        self.storages: List = []
        #: Chronological log of fired fault effects (dicts of scalars).
        self.injected: List[Dict[str, Any]] = []
        self._counters = {name: 0 for name in EVENT_COUNTERS}
        self._event_armed: List[FaultSpec] = []

    def attach(self, scheduler=None, provider=None,
               storages: Sequence = ()) -> "FaultInjector":
        self.scheduler = scheduler
        self.provider = provider
        self.storages = list(storages)
        invoke_faults = [f for f in self.plan
                         if f.kind == KIND_LAMBDA_INVOKE_FAILURE]
        if invoke_faults and provider is not None:
            provider.invoke_fault = self._make_invoke_gate(invoke_faults)
        for fault in self.plan:
            if fault.kind == KIND_LAMBDA_INVOKE_FAILURE:
                continue
            if fault.at_s is not None:
                self.env.process(self._fire_later(fault))
            else:
                self._event_armed.append(fault)
        if (self._event_armed and scheduler is not None
                and self not in scheduler.observers):
            scheduler.observers.append(self)
        return self

    # -- scheduler-observer callbacks (event-count triggers) ---------------

    def on_task_finished(self, attempt) -> None:
        self._bump("tasks_finished")

    def on_taskset_complete(self, taskset) -> None:
        self._bump("taskset_complete")

    def on_executor_lost(self, executor, reason: str) -> None:
        self._bump("executor_lost")

    def _bump(self, counter: str) -> None:
        self._counters[counter] += 1
        if not self._event_armed:
            return
        due = [f for f in self._event_armed if self._event_met(f.on_event)]
        for fault in due:
            self._event_armed.remove(fault)
            self._fire(fault)

    def _event_met(self, on_event: str) -> bool:
        counter, _, raw = on_event.partition(":")
        return self._counters[counter] >= int(raw)

    # -- firing ------------------------------------------------------------

    def _fire_later(self, fault: FaultSpec):
        delay = max(0.0, fault.at_s - self.env.now)
        if delay > 0:
            yield self.env.timeout(delay)
        self._fire(fault)

    def _fire(self, fault: FaultSpec) -> None:
        lift = self.apply(fault)
        if lift is not None and fault.duration_s is not None:
            self.env.process(self._lift_later(fault.duration_s, lift))

    def _lift_later(self, delay: float, lift: Callable):
        yield self.env.timeout(delay)
        lift()

    def apply(self, fault: FaultSpec) -> Optional[Callable]:
        """Put one fault's effect in force now; return the callable
        that lifts it, or None when there is nothing to lift. Invoke
        failures are per-invocation draws armed by :meth:`attach`, so
        applying one does nothing."""
        handler = {
            KIND_EXECUTOR_KILL: self._kill_executors,
            KIND_SPOT_REVOCATION: self._revoke_vms,
            KIND_LAMBDA_THROTTLE: self._throttle_lambdas,
            KIND_STORAGE_BROWNOUT: self._brownout,
            KIND_STRAGGLER: self._slow_down,
        }.get(fault.kind)
        return handler(fault) if handler is not None else None

    def _pick(self, candidates: List, count: int) -> List:
        """Seeded victim choice among matching candidates (order kept)."""
        if count >= len(candidates):
            return list(candidates)
        chosen = self.rng.stream(SELECT_STREAM).permutation(
            len(candidates))[:count]
        return [candidates[i] for i in sorted(int(i) for i in chosen)]

    def _kill_executors(self, fault: FaultSpec) -> None:
        if self.scheduler is None:
            return
        candidates = [ex for ex in self.scheduler.registered_executors
                      if match_executor(fault.target, ex)]
        for executor in self._pick(candidates, fault.count):
            self._log(fault, EV_EXECUTOR_KILLED,
                      executor=executor.executor_id)
            self.scheduler.decommission_executor(
                executor, graceful=False, reason="fault: executor_kill")

    def _revoke_vms(self, fault: FaultSpec) -> None:
        if self.provider is None:
            return
        candidates = [vm for vm in self.provider.running_vms
                      if match_vm(fault.target, vm)]
        for vm in self._pick(candidates, fault.count):
            self._log(fault, EV_VM_REVOKED, vm=vm.name)
            vm.terminate()

    def _throttle_lambdas(self, fault: FaultSpec) -> Optional[Callable]:
        provider = self.provider
        if provider is None:
            return None
        previous = provider.concurrency_limit
        provider.concurrency_limit = fault.limit
        self._log(fault, EV_THROTTLE_START, limit=fault.limit)

        def lift() -> None:
            provider.concurrency_limit = previous
            self._log(fault, EV_THROTTLE_END)
        return lift

    def _brownout(self, fault: FaultSpec) -> Optional[Callable]:
        targets = [s for s in self.storages
                   if match_storage(fault.target, s)]
        for service in targets:
            service.degrade(fault.factor)
            self._log(fault, EV_BROWNOUT_START, storage=service.name,
                      factor=fault.factor)
        if not targets:
            return None

        def lift() -> None:
            for service in targets:
                service.restore()
                self._log(fault, EV_BROWNOUT_END, storage=service.name)
        return lift

    def _slow_down(self, fault: FaultSpec) -> Optional[Callable]:
        if self.scheduler is None:
            return None
        candidates = [ex for ex in self.scheduler.registered_executors
                      if match_executor(fault.target, ex)]
        victims = self._pick(candidates, fault.count)
        for executor in victims:
            executor.cpu_slowdown = fault.factor
            self._log(fault, EV_STRAGGLER_START,
                      executor=executor.executor_id, factor=fault.factor)
        if not victims:
            return None

        def lift() -> None:
            for executor in victims:
                executor.cpu_slowdown = 1.0
                self._log(fault, EV_STRAGGLER_END,
                          executor=executor.executor_id)
        return lift

    def _make_invoke_gate(self, faults: List[FaultSpec]):
        """Build the provider's per-invocation failure hook."""
        def gate() -> Optional[BaseException]:
            from repro.cloud.lambda_fn import LambdaInvokeError
            for fault in faults:
                if fault.at_s is not None:
                    if self.env.now < fault.at_s:
                        continue
                    if (fault.duration_s is not None
                            and self.env.now >= fault.at_s + fault.duration_s):
                        continue
                draw = float(self.rng.stream(INVOKE_STREAM).random())
                if draw < fault.probability:
                    self._log(fault, EV_INVOKE_FAILED)
                    return LambdaInvokeError("injected invoke failure")
            return None
        return gate

    def _log(self, fault: FaultSpec, event: str, **fields) -> None:
        self.injected.append(
            {"t": self.env.now, "kind": fault.kind, "event": event,
             **fields})
        if self.trace is not None:
            self.trace.record(self.env.now, CAT_FAULT, event,
                              kind=fault.kind, **fields)


# -- recovery accounting ----------------------------------------------------

class RecoveryAccounting:
    """Scheduler observer that prices failures and recovery.

    - ``wasted_work_s`` — wall seconds spent by attempts that failed or
      were killed (speculation losers excluded: losing a race is not a
      failure).
    - ``rollback_recompute_s`` — seconds spent re-running partitions
      that had already succeeded once (the lineage-rollback cost of a
      local shuffle backend; zero when outputs survive executor loss).
    - ``recovery_times`` — per in-flight partition lost with its
      executor, the time until that partition finally succeeded.
    """

    def __init__(self, env: "Environment",
                 trace: Optional["TraceRecorder"] = None) -> None:
        self.env = env
        self.trace = trace
        self.wasted_work_s = 0.0
        self.rollback_recompute_s = 0.0
        self.executors_lost = 0
        self.recovery_times: List[float] = []
        self._succeeded: Set[Tuple[int, int]] = set()
        self._lost_at: Dict[Tuple[int, int], float] = {}

    def on_task_failed(self, attempt) -> None:
        self.wasted_work_s += max(0.0, attempt.metrics.duration)

    def on_executor_lost(self, executor, reason: str) -> None:
        self.executors_lost += 1
        # Interrupt delivery is deferred through the event queue, so the
        # executor's in-flight attempt is still observable here.
        attempt = executor.current
        if attempt is not None:
            key = (attempt.spec.stage_id, attempt.spec.partition)
            self._lost_at.setdefault(key, self.env.now)

    def on_task_finished(self, attempt) -> None:
        key = (attempt.spec.stage_id, attempt.spec.partition)
        lost_at = self._lost_at.pop(key, None)
        if lost_at is not None:
            elapsed = self.env.now - lost_at
            self.recovery_times.append(elapsed)
            if self.trace is not None:
                self.trace.record(self.env.now, CAT_FAULT, EV_RECOVERED,
                                  task=attempt.spec.describe(),
                                  after_s=elapsed)
        if key in self._succeeded:
            self.rollback_recompute_s += attempt.metrics.duration
        else:
            self._succeeded.add(key)

    def metrics(self) -> Dict[str, float]:
        """The recovery block merged into ``RunRecord.metrics``."""
        times = self.recovery_times
        return {
            "wasted_work_s": self.wasted_work_s,
            "rollback_recompute_s": self.rollback_recompute_s,
            "executors_lost": self.executors_lost,
            "recoveries": len(times),
            "time_to_recovery_total_s": sum(times),
            "time_to_recovery_max_s": max(times) if times else 0.0,
        }
