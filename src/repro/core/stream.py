"""The two-time-scale system of §4.1, end to end.

The paper frames SplitServe as the *intra-job* half of a larger
autoscaling system: an inter-job manager sizes the VM fleet from demand
predictions (Figure 2's m(t)+kσ(t) policies) while SplitServe makes each
arriving job fit whatever is free, bridging shortfalls with Lambdas.

:class:`JobStreamSimulator` runs that whole loop: a diurnal demand trace
drives Poisson job arrivals; a fleet-manager process tracks the policy's
core target (paying real VM boot delays on the way up); every arriving
job claims free cores and — depending on ``bridge`` — covers the rest
with Lambdas (SplitServe), or queues for cores (vanilla). The report
answers the question §4.1 poses: how lean can the policy go before SLOs
break, and what does the day cost?
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.cloud.instance_types import instance_type
from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.core.autoscaler import DemandPoint, ProvisioningPolicy
from repro.spark.application import SparkDriver
from repro.spark.config import SparkConf
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS
from repro.workloads.generators import SyntheticWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.vm import VirtualMachine

#: Every job of the stream: the cores it asks for, its mean duration at
#: that parallelism, and its latency SLO.
JOB_CORES = 8
JOB_MEAN_DURATION_S = 60.0
JOB_SLO_S = 120.0
#: The fleet's instance type, and how often its manager re-targets it.
FLEET_ITYPE = "m4.xlarge"
CONTROL_INTERVAL_S = 60.0


@dataclass
class JobRecord:
    """One job's fate in the stream."""

    job_id: int
    arrival_s: float
    required_cores: int
    vm_cores: int
    lambda_cores: int
    start_s: float
    finish_s: Optional[float] = None
    slo_s: float = 0.0

    @property
    def duration(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def met_slo(self) -> Optional[bool]:
        if self.duration is None:
            return None
        return self.duration <= self.slo_s


@dataclass
class StreamReport:
    """Aggregate outcome of one simulated stream."""

    policy_label: str
    bridge: str
    jobs: List[JobRecord] = field(default_factory=list)
    vm_cost: float = 0.0
    lambda_cost: float = 0.0

    @property
    def completed(self) -> List[JobRecord]:
        return [j for j in self.jobs if j.finish_s is not None]

    @property
    def slo_attainment(self) -> float:
        done = self.completed
        if not done:
            return float("nan")
        return sum(1 for j in done if j.met_slo) / len(done)

    @property
    def mean_duration(self) -> float:
        done = self.completed
        if not done:
            return float("nan")
        return sum(j.duration for j in done) / len(done)

    @property
    def lambda_bridged_jobs(self) -> int:
        return sum(1 for j in self.jobs if j.lambda_cores > 0)

    @property
    def total_cost(self) -> float:
        return self.vm_cost + self.lambda_cost


class JobStreamSimulator:
    """Replays a day's job stream under one policy + bridging mode."""

    def __init__(
        self,
        demand: List[DemandPoint],
        policy: ProvisioningPolicy,
        bridge: str = "lambda",
        seed: int = 0,
    ) -> None:
        if bridge not in ("lambda", "none"):
            raise ValueError(f"bridge must be 'lambda' or 'none', got {bridge!r}")
        if len(demand) < 2:
            raise ValueError("demand trace needs at least two samples")
        self.demand = demand
        self.policy = policy
        self.bridge = bridge
        self.seed = seed
        self.fleet_itype = instance_type(FLEET_ITYPE)

        runtime = self._runtime = ClusterRuntime(seed)
        self.env, self.rng = runtime.env, runtime.rng
        self.meter, self.provider = runtime.meter, runtime.provider
        self._master = self.provider.request_vm("m4.xlarge", name="master",
                                                already_running=True)
        self._master.allocate_cores(self._master.itype.vcpus)
        self._hdfs = HDFS(self.env, self._master, self.rng, self.meter)
        self._fleet: List["VirtualMachine"] = []
        self._job_ids = itertools.count()
        self._records: List[JobRecord] = []

    # ------------------------------------------------------------------
    # Demand interpolation
    # ------------------------------------------------------------------

    def _demand_at(self, t: float) -> DemandPoint:
        for point in reversed(self.demand):
            if point.time_s <= t:
                return point
        return self.demand[0]

    # ------------------------------------------------------------------
    # Fleet management (inter-job)
    # ------------------------------------------------------------------

    @property
    def fleet_cores(self) -> int:
        return sum(vm.total_cores for vm in self._fleet if vm.is_running)

    def _fleet_manager(self):
        """Track the policy's core target: boot VMs up (with the real
        delay), retire fully idle VMs down."""
        per_vm = self.fleet_itype.vcpus
        while True:
            target = self.policy.cores_at(self._demand_at(self.env.now))
            pending = sum(self.fleet_itype.vcpus for vm in self._fleet
                          if not vm.is_running
                          and vm.terminate_time is None)
            have = self.fleet_cores + pending
            while have < target:
                vm = self.provider.request_vm(self.fleet_itype)
                self._fleet.append(vm)
                have += per_vm
            excess = have - target
            for vm in list(self._fleet):
                if excess < per_vm:
                    break
                if vm.is_running and vm.allocated_cores == 0:
                    vm.terminate()
                    self._fleet.remove(vm)
                    excess -= per_vm
            yield self.env.timeout(CONTROL_INTERVAL_S)

    # ------------------------------------------------------------------
    # Job arrivals and execution (intra-job)
    # ------------------------------------------------------------------

    def _arrival_process(self, horizon_s: float):
        while self.env.now < horizon_s:
            point = self._demand_at(self.env.now)
            # Little's law: busy cores ~ rate * duration * cores_per_job.
            rate = max(1e-6, point.actual
                       / (JOB_CORES * JOB_MEAN_DURATION_S))
            gap = self.rng.exponential("stream.arrivals", 1.0 / rate)
            yield self.env.timeout(gap)
            if self.env.now >= horizon_s:
                return
            self.env.process(self._run_job())

    def _claim_free_cores(self, wanted: int):
        claims = []
        for vm in self._fleet:
            if not vm.is_running:
                continue
            take = min(wanted, vm.free_cores)
            if take > 0:
                vm.allocate_cores(take)
                claims.append((vm, take))
                wanted -= take
            if wanted == 0:
                break
        return claims, wanted

    def _run_job(self):
        record = JobRecord(
            job_id=next(self._job_ids), arrival_s=self.env.now,
            required_cores=JOB_CORES, vm_cores=0, lambda_cores=0,
            start_s=self.env.now, slo_s=JOB_SLO_S)
        self._records.append(record)

        claims, shortfall = self._claim_free_cores(JOB_CORES)
        if self.bridge == "none":
            # Vanilla: wait until enough cores free up.
            while shortfall > 0:
                yield self.env.timeout(1.0)
                more, shortfall = self._claim_free_cores(shortfall)
                claims.extend(more)
        record.vm_cores = sum(take for _vm, take in claims)
        record.lambda_cores = JOB_CORES - record.vm_cores
        record.start_s = self.env.now

        backend = ExternalShuffleBackend(self._hdfs)
        driver = SparkDriver(self.env, SparkConf(), self.rng, backend)
        for vm, take in claims:
            vm.release_cores(take)  # the driver re-claims them per core
            for _ in range(take):
                driver.add_vm_executor(vm)
        lambdas = []
        invoke_lambda_executors(self._runtime, driver, record.lambda_cores,
                                lambdas)

        workload = SyntheticWorkload(
            stages=2,
            core_seconds_per_stage=(JOB_MEAN_DURATION_S * JOB_CORES
                                    * 0.85 / 2),
            shuffle_bytes_per_boundary=32 * 1024 * 1024,
            required_cores=JOB_CORES,
            available_cores=max(1, record.vm_cores or 1),
            label=f"stream-job-{record.job_id}")
        job = driver.submit(workload.build(self._runtime.lineage,
                                           JOB_CORES))
        yield job.done
        record.finish_s = self.env.now
        for vm, take in claims:
            vm.release_cores(take)
        for fn in lambdas:
            fn.finish()

    # ------------------------------------------------------------------

    def run(self, horizon_s: float) -> StreamReport:
        """Simulate ``horizon_s`` seconds of the stream."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.env.process(self._fleet_manager())
        self.env.process(self._arrival_process(horizon_s))
        # Run past the horizon so in-flight jobs finish.
        self.env.run(until=horizon_s + 20 * JOB_MEAN_DURATION_S)

        report = StreamReport(policy_label=self.policy.label,
                              bridge=self.bridge, jobs=self._records)
        end = self.env.now
        for vm in self.provider.vms:
            if vm is self._master:
                continue
            start = vm.running_time
            if start is None:
                continue
            stop = vm.terminate_time if vm.terminate_time is not None else end
            report.vm_cost += self.meter.bill_vm(vm.name, vm.itype,
                                                 start, stop)
        report.lambda_cost = self.meter.breakdown().get("lambda", 0.0)
        return report
