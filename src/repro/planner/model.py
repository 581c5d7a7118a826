"""The planner's performance model: probes in, runtime predictions out.

Calibration runs two cheap probe simulations per workload — ``ss_R_vm``
(all slots VM-backed) and ``ss_R_la`` (all slots Lambda-backed) — and
reads each stage's task count, total task occupancy, and wall span out
of the probe records' dotted stage metrics. From those it builds a
:class:`WorkloadProfile` whose per-stage, per-executor-kind task times
already embody everything the simulator charges differently per kind:
shuffle through HDFS instead of local disk, Lambda network ceilings,
input re-reads. Per-kind overhead terms absorb whatever happens outside
the stage spans (startup, driver gaps), chosen so the model reproduces
the two probe endpoints *exactly* — hybrid predictions are then
interpolations between calibrated truths rather than free-floating
estimates.

Prediction itself is a tiny stage-sequential occupancy model:
each stage processes ``tasks`` units of work at a rate set by how many
VM and Lambda slots it can use and how fast each kind runs that stage's
tasks, plus a straggler tail measured at the probe. A split that
changes mid-job (segue to procured VMs, background scale-out) is
handled piecewise: work done before the changeover proceeds at the old
rate, the remainder at the new one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.experiments.records import RunRecord
    from repro.experiments.spec import ExperimentSpec

#: Per-stage metric fields that count toward a task's slot occupancy.
#: ``run_seconds`` is fetch + input + compute + write; GC, deserialize
#: and spill are tracked separately but still hold the slot. Scheduler
#: delay is queue wait — time *without* a slot — and stays out.
_OCCUPANCY_FIELDS = ("run_seconds", "deserialize_seconds", "gc_seconds",
                     "spill_seconds")


@dataclass(frozen=True)
class StageProfile:
    """One stage's measured shape under each executor kind.

    VM task times are measured at two concurrency endpoints — the
    R-slot and the r-slot probe — and interpolated linearly in the
    stage's effective concurrency between them. That one empirical line
    captures the simulator's concurrency-dependent effects without
    naming them: shared-storage contention (more readers, slower
    fetches) pushes it one way, executor cache capacity (fewer
    executors, thrashing evictions and re-ingest) the other. Lambda
    task times have a single probe (all-R), so their storage-I/O share
    scales with concurrency explicitly instead.
    """

    stage_id: int
    tasks: int
    #: Concurrency the R-slot probes measured the stage at: min(R, n).
    probe_slots: int
    #: Concurrency of the r-slot VM probe: min(r, n).
    probe_avail_slots: int
    #: Mean per-task VM slot seconds at each probed concurrency.
    vm_task_full_s: float
    vm_task_avail_s: float
    #: Mean per-task Lambda seconds at probe_slots, split into compute
    #: (concurrency-independent) and storage I/O (scales with readers).
    lambda_compute_task_s: float
    lambda_io_task_s: float
    #: Straggler overhang: measured stage span minus the ideal
    #: (occupancy / slots) packing. Dominated by the last wave's
    #: slowest task, so it scales with the task time, not wave count.
    vm_tail_full_s: float
    vm_tail_avail_s: float
    lambda_tail_s: float

    def _interp(self, lo: float, hi: float, concurrency: int) -> float:
        c = max(1, min(concurrency, self.tasks))
        c_lo, c_hi = self.probe_avail_slots, self.probe_slots
        if c_hi <= c_lo:
            return hi
        frac = (c - c_lo) / (c_hi - c_lo)
        return lo + (hi - lo) * frac

    def vm_task_s(self, concurrency: int) -> float:
        """Mean per-task VM slot time at ``concurrency`` simultaneous
        tasks (interpolated between the two probed endpoints)."""
        return max(1e-9, self._interp(self.vm_task_avail_s,
                                      self.vm_task_full_s, concurrency))

    def vm_tail_s(self, concurrency: int) -> float:
        return max(0.0, self._interp(self.vm_tail_avail_s,
                                     self.vm_tail_full_s, concurrency))

    def lambda_task_s(self, concurrency: int = None) -> float:
        if concurrency is None:
            return self.lambda_compute_task_s + self.lambda_io_task_s
        scale = max(1, min(concurrency, self.tasks)) / self.probe_slots
        return max(1e-9,
                   self.lambda_compute_task_s + self.lambda_io_task_s * scale)


@dataclass(frozen=True)
class SplitCandidate:
    """One executable split decision: the planner's unit of search."""

    name: str
    #: Pre-provisioned VM slots available from t=0.
    vm_cores: int
    #: Lambda slots invoked at t=0.
    lambda_cores: int
    #: VM cores procured in the background (0 = no background VMs).
    segue_cores: int = 0
    #: When the procured cores become usable; required if segue_cores>0.
    segue_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.vm_cores < 0 or self.lambda_cores < 0 or self.segue_cores < 0:
            raise ValueError("core counts must be non-negative")
        if self.vm_cores + self.lambda_cores <= 0:
            raise ValueError("a split needs at least one slot at t=0")
        if self.segue_cores > 0 and self.segue_at_s is None:
            raise ValueError("segue_cores>0 needs segue_at_s")

    def to_policy(self) -> Dict[str, object]:
        """The ``ExperimentSpec.policy`` payload enforcing this split."""
        return {
            "candidate": self.name,
            "vm_cores": self.vm_cores,
            "lambda_cores": self.lambda_cores,
            "segue_cores": self.segue_cores,
            "segue_at_s": self.segue_at_s,
        }

    @classmethod
    def from_policy(cls, policy: Mapping[str, object]) -> "SplitCandidate":
        return cls(name=str(policy.get("candidate", "planned")),
                   vm_cores=int(policy["vm_cores"]),
                   lambda_cores=int(policy["lambda_cores"]),
                   segue_cores=int(policy.get("segue_cores", 0) or 0),
                   segue_at_s=policy.get("segue_at_s"))


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything the planner knows about one workload, post-probes."""

    workload: str
    seed: int
    workload_params: Tuple[Tuple[str, object], ...]
    required_cores: int
    available_cores: int
    worker_itype: str
    slo_seconds: float
    vm_ready_delay_s: float
    segue_available_s: Optional[float]
    stages: Tuple[StageProfile, ...]
    #: Calibrated out-of-stage time per kind (startup, driver gaps);
    #: probe duration minus the sum of predicted stage spans, so probe
    #: configurations predict exactly. The VM overhead has one value
    #: per probed concurrency endpoint.
    vm_overhead_s: float
    vm_overhead_avail_s: float
    lambda_overhead_s: float
    #: Probe ground truth, kept for cost calibration and reporting.
    probe_vm_duration_s: float
    probe_vm_avail_duration_s: float
    probe_lambda_duration_s: float
    probe_vm_cost: float
    probe_vm_avail_cost: float
    probe_lambda_cost: float

    @property
    def shortfall_cores(self) -> int:
        return self.required_cores - self.available_cores

    @property
    def segue_ready_s(self) -> float:
        """When segue/scale-out VM cores become usable (matches
        :func:`repro.core.scenarios.run_split`'s default delay)."""
        if self.segue_available_s is not None:
            return self.segue_available_s
        return self.vm_ready_delay_s

    @property
    def mean_lambda_task_s(self) -> float:
        work = sum(s.lambda_task_s() * s.tasks for s in self.stages)
        tasks = sum(s.tasks for s in self.stages)
        return work / tasks if tasks else 0.0


class ProfileError(RuntimeError):
    """A probe run failed or produced no stage metrics."""


def _stage_ids(metrics: Mapping[str, object]) -> list:
    return sorted({int(key.split(".")[1]) for key in metrics
                   if key.startswith("stage.") and key.endswith(".tasks")})


def _occupancy(metrics: Mapping[str, object], sid: int) -> float:
    return sum(float(metrics.get(f"stage.{sid}.{f}", 0.0))
               for f in _OCCUPANCY_FIELDS)


def _io_seconds(metrics: Mapping[str, object], sid: int) -> float:
    """Storage-bound seconds of one stage: shuffle fetch + write as
    tracked per stage, plus the job's input-read seconds apportioned by
    each stage's share of input bytes (input time is only tracked
    job-wide)."""
    io = (float(metrics.get(f"stage.{sid}.shuffle_read_seconds", 0.0))
          + float(metrics.get(f"stage.{sid}.shuffle_write_seconds", 0.0)))
    total_in = sum(float(v) for k, v in metrics.items()
                   if k.startswith("stage.") and k.endswith(".input_bytes"))
    stage_in = float(metrics.get(f"stage.{sid}.input_bytes", 0.0))
    if total_in > 0 and stage_in > 0:
        io += (float(metrics.get("input_seconds_total", 0.0))
               * stage_in / total_in)
    return io


def _stage_profiles(vm_metrics: Mapping[str, object],
                    la_metrics: Mapping[str, object],
                    avail_metrics: Mapping[str, object],
                    probe_slots: int,
                    avail_slots: int) -> Tuple[StageProfile, ...]:
    ids = _stage_ids(vm_metrics)
    if not ids:
        raise ProfileError("probe record has no stage metrics")
    profiles = []
    for sid in ids:
        tasks = int(vm_metrics[f"stage.{sid}.tasks"])
        if tasks <= 0:
            continue
        w_vm = _occupancy(vm_metrics, sid)
        # A stage can be absent from a secondary probe only if the run
        # diverged structurally; fall back to the full-VM shape then.
        w_la = _occupancy(la_metrics, sid) or w_vm
        w_avail = _occupancy(avail_metrics, sid) or w_vm
        io_la = min(_io_seconds(la_metrics, sid) or
                    _io_seconds(vm_metrics, sid), w_la)
        span_vm = float(vm_metrics[f"stage.{sid}.duration_seconds"])
        span_la = float(la_metrics.get(f"stage.{sid}.duration_seconds",
                                       span_vm))
        span_avail = float(avail_metrics.get(
            f"stage.{sid}.duration_seconds", span_vm))
        slots = min(tasks, probe_slots)
        slots_avail = min(tasks, avail_slots)
        profiles.append(StageProfile(
            stage_id=sid, tasks=tasks,
            probe_slots=slots, probe_avail_slots=slots_avail,
            vm_task_full_s=w_vm / tasks,
            vm_task_avail_s=w_avail / tasks,
            lambda_compute_task_s=(w_la - io_la) / tasks,
            lambda_io_task_s=io_la / tasks,
            vm_tail_full_s=max(0.0, span_vm - w_vm / slots),
            vm_tail_avail_s=max(0.0, span_avail - w_avail / slots_avail),
            lambda_tail_s=max(0.0, span_la - w_la / slots),
        ))
    if not profiles:
        raise ProfileError("probe record has no non-empty stages")
    return tuple(profiles)


def _probe_avail(vm_probe: "ExperimentSpec", available_cores: int
                 ) -> "RunRecord":
    """The r-slot pure-VM probe: the one calibration corner the eight
    fixed scenarios do not cover with SplitServe billing, run through
    :func:`repro.core.scenarios.run_split` on its own runtime for the
    ``ss_R_vm`` probe's spec."""
    from repro.cluster.runtime import ClusterRuntime
    from repro.core.scenarios import run_split
    from repro.experiments.spec import PLANNED_SCENARIO
    spec = vm_probe.with_(scenario=PLANNED_SCENARIO)
    return run_split(ClusterRuntime(spec.seed), spec,
                     vm_cores=available_cores, lambda_cores=0)


def build_profile(workload: str, seed: int = 0,
                  workload_params: Optional[Mapping[str, object]] = None
                  ) -> WorkloadProfile:
    """Run the three probe simulations and fit a :class:`WorkloadProfile`.

    Probes — ``ss_R_vm``, ``ss_R_la``, and a pure-VM run at the r
    available cores — execute in-process through :func:`run_spec` /
    :func:`~repro.core.scenarios.run_split` (never the disk cache), so
    profile construction is deterministic for (workload, params, seed)
    and safe inside parallel experiment workers.
    """
    from repro.experiments.runner import run_spec
    from repro.experiments.spec import ExperimentSpec
    params = dict(workload_params or {})
    records = {}
    for scenario in ("ss_R_vm", "ss_R_la"):
        record = run_spec(ExperimentSpec(workload, scenario, seed=seed,
                                         workload_params=params))
        if record.failed or record.error:
            raise ProfileError(
                f"probe {scenario} failed for {workload!r}: "
                f"{record.failure_reason or record.error}")
        records[scenario] = record
    vm_rec, la_rec = records["ss_R_vm"], records["ss_R_la"]
    spec = vm_rec.spec.make_workload().spec
    if spec.available_cores < spec.required_cores:
        avail = _probe_avail(vm_rec.spec, spec.available_cores)
        if avail.failed:
            raise ProfileError(
                f"r-core probe failed for {workload!r}: "
                f"{avail.failure_reason}")
        avail_metrics = avail.metrics
        avail_duration, avail_cost = avail.duration_s, avail.cost
    else:
        # r == R: the full-VM probe already is the r-core corner.
        avail_metrics = vm_rec.metrics
        avail_duration, avail_cost = vm_rec.duration_s, vm_rec.cost
    stages = _stage_profiles(vm_rec.metrics, la_rec.metrics, avail_metrics,
                             probe_slots=spec.required_cores,
                             avail_slots=spec.available_cores)
    profile = WorkloadProfile(
        workload=workload, seed=seed,
        workload_params=tuple(sorted(params.items())),
        required_cores=spec.required_cores,
        available_cores=spec.available_cores,
        worker_itype=spec.worker_itype,
        slo_seconds=spec.slo_seconds,
        vm_ready_delay_s=spec.vm_ready_delay_s,
        segue_available_s=spec.segue_available_s,
        stages=stages,
        vm_overhead_s=0.0, vm_overhead_avail_s=0.0, lambda_overhead_s=0.0,
        probe_vm_duration_s=vm_rec.duration_s,
        probe_vm_avail_duration_s=avail_duration,
        probe_lambda_duration_s=la_rec.duration_s,
        probe_vm_cost=vm_rec.cost,
        probe_vm_avail_cost=avail_cost,
        probe_lambda_cost=la_rec.cost,
    )
    # Calibrate the out-of-stage overheads so all three probe corners
    # predict exactly (zero error there by construction).
    model = PerformanceModel(profile)
    raw_vm = model._stage_total(spec.required_cores, 0, None)
    raw_avail = model._stage_total(spec.available_cores, 0, None)
    raw_la = model._stage_total(0, spec.required_cores, None)
    return dataclasses.replace(
        profile,
        vm_overhead_s=vm_rec.duration_s - raw_vm,
        vm_overhead_avail_s=avail_duration - raw_avail,
        lambda_overhead_s=la_rec.duration_s - raw_la)


@dataclass
class PerformanceModel:
    """Analytical runtime predictor over one :class:`WorkloadProfile`."""

    profile: WorkloadProfile

    def predict_runtime(self, candidate: SplitCandidate) -> float:
        """Predicted job duration (seconds) under ``candidate``."""
        total = self._stage_total(candidate.vm_cores,
                                  candidate.lambda_cores,
                                  self._changeover(candidate))
        return total + self._overhead(candidate)

    # -- internals --------------------------------------------------------

    def _changeover(self, candidate: SplitCandidate
                    ) -> Optional[Tuple[float, int, int]]:
        """(time, vm_cores', lambda_cores') once segue VMs are ready.

        Segueing converts Lambda slots one-for-one into the procured VM
        cores (``segue_to_vm`` drains as many Lambdas as cores it
        adds); with no Lambdas running it is plain scale-out.
        """
        if candidate.segue_cores <= 0:
            return None
        converted = min(candidate.lambda_cores, candidate.segue_cores)
        return (float(candidate.segue_at_s),
                candidate.vm_cores + candidate.segue_cores,
                candidate.lambda_cores - converted)

    def _stage_time(self, stage: StageProfile, vm: int, la: int) -> float:
        """Span of one stage with ``vm``+``la`` slots (no changeover)."""
        n = stage.tasks
        vm_used = min(vm, n)
        la_used = min(la, max(0, n - vm_used))
        concurrency = vm_used + la_used
        if concurrency <= 0:
            return math.inf
        tau_vm = stage.vm_task_s(concurrency)
        tau_la = stage.lambda_task_s(concurrency)
        rate = vm_used / tau_vm + la_used / tau_la
        if rate <= 0.0:
            return math.inf
        # The straggler tail tracks the task-time scale: slower tasks
        # leave a proportionally larger last-wave overhang. VM tails
        # interpolate between their probed endpoints; the Lambda tail
        # scales with its task time.
        tail = vm_used * stage.vm_tail_s(concurrency)
        la_probe = stage.lambda_task_s()
        if la_probe > 0:
            tail += la_used * stage.lambda_tail_s * tau_la / la_probe
        return n / rate + tail / concurrency

    def _stage_total(self, vm: int, la: int,
                     changeover: Optional[Tuple[float, int, int]]) -> float:
        """Sum of stage spans, piecewise across the changeover point."""
        t = 0.0
        for stage in self.profile.stages:
            before = self._stage_time(stage, vm, la)
            if changeover is None:
                t += before
                continue
            at, vm2, la2 = changeover
            if t >= at:
                t += self._stage_time(stage, vm2, la2)
            elif t + before <= at or not math.isfinite(before):
                t += before
            else:
                # Stage straddles the changeover: the fraction of its
                # work finished by then ran at the old rate, the rest
                # runs at the new one.
                done = (at - t) / before
                t = at + (1.0 - done) * self._stage_time(stage, vm2, la2)
        return t

    def _overhead(self, candidate: SplitCandidate) -> float:
        """Out-of-stage time, blended by the initial slot mix (the VM
        term interpolated between the r- and R-core probe values)."""
        p = self.profile
        vm, la = candidate.vm_cores, candidate.lambda_cores
        lo, hi = p.available_cores, p.required_cores
        if hi > lo:
            frac = min(1.0, max(0.0, (vm + la - lo) / (hi - lo)))
            ov_vm = (p.vm_overhead_avail_s
                     + (p.vm_overhead_s - p.vm_overhead_avail_s) * frac)
        else:
            ov_vm = p.vm_overhead_s
        return (vm * ov_vm + la * p.lambda_overhead_s) / (vm + la)
