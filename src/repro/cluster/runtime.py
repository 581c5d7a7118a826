"""The cluster runtime: one object owning a simulated world's state for
its whole lifetime.

The same plumbing backs a single §5.1 scenario run, a long-lived
multi-application cluster (admission queue + scheduler pools), the
stream simulators, profiling, and the ablation benches. Construction
order is load-bearing: the Environment, RandomStreams, bus subscribers,
meter, and provider must come up in exactly this sequence for fixed-seed
runs to stay byte-identical.

This module is the only place allowed to construct a world's
``Environment``, ``RandomStreams``, ``BillingMeter``,
``MetricsRegistry``, ``CloudProvider`` and ``RDDBuilder`` (enforced by
an AST lint test); everything else receives them through a
ClusterRuntime, so a run never depends on what ran before it.
"""

from __future__ import annotations

import math
from typing import List

from repro.cloud.instance_types import instance_type
from repro.cloud.pricing import BillingMeter
from repro.cloud.provisioner import CloudProvider
from repro.observability.bus import EventBus
from repro.observability.instrumentation import MetricsListener
from repro.observability.metrics import MetricsRegistry
from repro.simulation import Environment, RandomStreams, TraceRecorder
from repro.simulation.faults import FaultPlan, FaultsInput
from repro.spark.rdd import RDDBuilder


class ClusterRuntime:
    """Shared plumbing for one simulated cluster.

    Owns the pieces every component needs a handle on — the event
    kernel, seeded random streams, the provider, billing, telemetry, the
    lineage builder that numbers RDDs and shuffles — and the
    marginal-cost billing helpers of §5.1. Scenario runs build one per
    execution; the multi-application cluster keeps one alive across
    many admitted jobs, whose lineages all come from its one builder.
    """

    def __init__(self, seed: int, trace_enabled: bool = False,
                 faults: FaultsInput = ()) -> None:
        self.env = Environment()
        self.rng = RandomStreams(seed)
        #: Raw record store — one bus subscriber among others.
        self.recorder = TraceRecorder(enabled=trace_enabled)
        self.metrics = MetricsRegistry()
        self.listener = MetricsListener(self.metrics)
        #: What every component receives as its ``trace=``: same
        #: ``record()`` signature, fanned out to all subscribers.
        self.bus = EventBus()
        self.bus.subscribe(self.recorder)
        self.bus.subscribe(self.listener)
        self.trace = self.bus
        self.meter = BillingMeter()
        self.provider = CloudProvider(self.env, self.rng, self.meter,
                                      self.metrics, trace=self.bus)
        #: Mints every RDD and shuffle id of this world's jobs.
        self.lineage = RDDBuilder()
        self.fault_plan = FaultPlan.coerce(faults)
        self.injector = None
        self.recovery = None

    def arm_faults(self, driver, storages=(), scheduler=None) -> None:
        """Wire the run's fault plan (if any) into the freshly built
        driver/provider/storage stack, plus recovery accounting.

        ``scheduler`` overrides the target task scheduler (the pooled
        cluster arms its shared scheduler rather than any one driver's).
        """
        if not self.fault_plan:
            return
        from repro.simulation.faults import FaultInjector, RecoveryAccounting
        if scheduler is None:
            scheduler = driver.task_scheduler
        self.recovery = RecoveryAccounting(self.env, trace=self.trace)
        scheduler.observers.append(self.recovery)
        self.injector = FaultInjector(self.env, self.rng, self.fault_plan,
                                      trace=self.trace)
        self.injector.attach(scheduler=scheduler,
                             provider=self.provider, storages=storages)

    def provision_worker_cores(self, cores: int, itype_name: str) -> List:
        """Pre-provisioned (already running) capacity holding ``cores``."""
        itype = instance_type(itype_name)
        return [self.provider.request_vm(itype, already_running=True)
                for _ in range(math.ceil(cores / itype.vcpus))]

    def bill_shared_cores(self, vm, cores_used: int, start: float,
                          end: float) -> None:
        """Bill a job's share of a pre-provisioned instance."""
        if cores_used <= 0:
            return
        fraction = min(1.0, cores_used / vm.itype.vcpus)
        self.meter.bill_vm(vm.name, vm.itype, start, end, fraction)

    def bill_dedicated_vm(self, vm, end: float) -> None:
        """Bill a VM procured for this job, from readiness to job end."""
        if vm.running_time is None:
            return  # never became ready before the job finished
        self.meter.bill_vm(vm.name, vm.itype, vm.running_time, end)
