"""The executor-pool layer: one home for executor-attachment plumbing.

The VM-attach loop, background scale-out, the invoke-then-attach Lambda
step, Qubole's Lambda respawn and the pick of drainable Lambda
executors, shared by the scenarios, profiling, the stream simulators,
the ablation benches, the segueing facility and :class:`ExecutorPool` —
the cluster-owned capacity that concurrently admitted applications
share through a :class:`~repro.cluster.pools.PooledTaskScheduler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cloud.instance_types import InstanceType, fewest_instances_for_cores
from repro.spark.application import ExecutorFactory
from repro.spark.executor import Executor, ExecutorState, HostKind
from repro.spark.shuffle import ExternalShuffleBackend, LocalShuffleBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.lambda_fn import LambdaConfig, LambdaInstance
    from repro.cloud.vm import VirtualMachine
    from repro.cluster.pools import SchedulerPools
    from repro.cluster.runtime import ClusterRuntime
    from repro.spark.config import SparkConf
    from repro.spark.task_scheduler import TaskScheduler
    from repro.storage.base import StorageService


def add_executors_on_vms(target, vms, cores: int) -> List[Executor]:
    """Place ``cores`` single-core executors onto the given VMs' free
    cores. ``target`` is anything with ``add_vm_executor`` (a
    :class:`~repro.spark.application.SparkDriver` or an
    :class:`~repro.spark.application.ExecutorFactory`)."""
    executors = []
    for vm in vms:
        while cores > 0 and vm.free_cores > 0:
            executors.append(target.add_vm_executor(vm))
            cores -= 1
        if cores == 0:
            break
    if cores > 0:
        raise RuntimeError(f"not enough VM capacity: {cores} cores short")
    return executors


def registered_lambda_executors(
        scheduler: "TaskScheduler") -> List[Executor]:
    """The scheduler's registered (drainable) Lambda executors, oldest
    registration first — its registry's dict order."""
    return [ex for ex in scheduler.executors.values()
            if ex.kind is HostKind.LAMBDA
            and ex.state is ExecutorState.REGISTERED]


def _once_ready(instance, then: Callable, *args):
    """Process body: wait for a VM or Lambda to be usable, then act."""
    yield instance.ready
    then(*args)


def request_cores(runtime: "ClusterRuntime", cores: int,
                  boot_delay: Callable[[InstanceType], float],
                  on_ready: Callable[["VirtualMachine", int], None],
                  vms_out: List["VirtualMachine"]) -> None:
    """Procure VMs totalling ``cores`` and run ``on_ready(vm, take)`` as
    each becomes usable. ``boot_delay`` is called once per instance (so
    seeded per-VM boot jitter draws in a stable order)."""
    remaining = cores
    for itype in fewest_instances_for_cores(cores):
        vm = runtime.provider.request_vm(itype,
                                         boot_delay_s=boot_delay(itype))
        vms_out.append(vm)
        take = min(remaining, itype.vcpus)
        remaining -= take
        runtime.env.process(_once_ready(vm, on_ready, vm, take))


def scale_out_after(runtime: "ClusterRuntime", detect_delay: Optional[float],
                    cores: int,
                    boot_delay: Callable[[InstanceType], float],
                    on_ready: Callable[["VirtualMachine", int], None],
                    vms_out: List["VirtualMachine"]) -> None:
    """Background scale-out: after ``detect_delay`` (None = immediately
    at process start), procure ``cores`` and attach as VMs come up.
    Covers both the autoscaler's detect-then-procure and the segue
    facility's procure-now shapes."""

    def scale_out(env):
        if detect_delay is not None:
            yield env.timeout(detect_delay)
        request_cores(runtime, cores, boot_delay, on_ready, vms_out)

    runtime.env.process(scale_out(runtime.env))


def invoke_lambda_executors(runtime: "ClusterRuntime", target, count: int,
                            lambdas: List["LambdaInstance"],
                            config: Optional["LambdaConfig"] = None) -> int:
    """Invoke ``count`` Lambda containers, appending each to ``lambdas``;
    each registers an executor with ``target`` (anything with
    ``add_lambda_executor``) once warm. A throttled or failed invocation
    drops its slot; returns how many were dropped."""
    from repro.cloud.lambda_fn import LambdaInvokeError
    failed = 0
    for _ in range(count):
        try:
            fn = runtime.provider.invoke_lambda(config)
        except LambdaInvokeError:
            failed += 1
            continue
        lambdas.append(fn)
        runtime.env.process(_once_ready(fn, target.add_lambda_executor, fn))
    return failed


def attach_lambda_with_respawn(runtime: "ClusterRuntime", driver,
                               fn: "LambdaInstance",
                               lambdas: List["LambdaInstance"],
                               job_holder: List):
    """Qubole-style Lambda attachment: register the executor when the
    container is up, and replace the container when the provider reaps
    it at the lifetime cap (while the job is still running)."""
    yield fn.ready
    driver.add_lambda_executor(fn)
    # Qubole's provisioner replaces containers the provider reaps at
    # the 15-minute cap, so long jobs keep their parallelism (at the
    # price of fresh invocations and lost in-flight tasks).
    yield fn.expired
    if job_holder and job_holder[0].finish_time is None:
        from repro.cloud.lambda_fn import LambdaInvokeError
        try:
            replacement = runtime.provider.invoke_lambda()
        except LambdaInvokeError:
            return  # throttled: the job degrades to fewer executors
        lambdas.append(replacement)
        runtime.env.process(attach_lambda_with_respawn(
            runtime, driver, replacement, lambdas, job_holder))


class ExecutorPool:
    """Cluster-owned executor capacity shared by all admitted apps.

    Owns the shared :class:`~repro.cluster.pools.PooledTaskScheduler`
    (ordering offers by ``pools``) and the
    :class:`~repro.spark.application.ExecutorFactory` that mints
    executors onto it. Each application's DAG scheduler hears only its
    own task sets. Shuffle outputs stay on the executors that wrote
    them, unless a ``shuffle_storage`` service is mounted: then every
    map output goes to it as one consolidated file (§4.3), and
    :attr:`storages` lists it for fault injection.
    """

    def __init__(
        self,
        runtime: "ClusterRuntime",
        conf: "SparkConf",
        pools: "SchedulerPools",
        shuffle_storage: Optional["StorageService"] = None,
    ) -> None:
        from repro.cluster.pools import PooledTaskScheduler
        self.runtime = runtime
        self.conf = conf
        self.pools = pools
        #: The storage services the pool mounts (its shuffle storage).
        self.storages: List["StorageService"] = []
        if shuffle_storage is None:
            backend = LocalShuffleBackend()
        else:
            backend = ExternalShuffleBackend(shuffle_storage,
                                             per_pair_objects=False)
            self.storages.append(shuffle_storage)
        self.scheduler = PooledTaskScheduler(
            runtime.env, conf, runtime.rng, backend, pools,
            trace=runtime.trace)
        self.factory = ExecutorFactory(
            runtime.env, conf, runtime.rng, self.scheduler,
            trace=runtime.trace, id_prefix="pool:")
        #: Pre-provisioned instances and the cores the pool uses on each
        #: (billed as a per-core share at settlement).
        self.shared_vms: List["VirtualMachine"] = []
        self._shared_cores: Dict[str, int] = {}
        #: Instances procured *by* the pool (segue targets), billed
        #: whole from readiness.
        self.dedicated_vms: List["VirtualMachine"] = []
        #: Live Lambda containers backing pool executors.
        self.lambdas: List["LambdaInstance"] = []
        self.failed_invocations = 0

    @property
    def vm_capacity(self) -> int:
        """Pre-provisioned VM slots (the capacity an admission-time
        split policy divides between applications)."""
        return sum(self._shared_cores.values())

    @property
    def live_lambda_executors(self) -> int:
        """Registered (drainable) Lambda-backed executors right now."""
        return len(registered_lambda_executors(self.scheduler))

    def executor_infos(self) -> List[Dict[str, object]]:
        """Live executor snapshot (id, kind, state, host, running
        tasks), stably ordered by executor id. Serves
        ``GET /executors``."""
        infos = []
        for executor in self.scheduler.executors.values():
            infos.append({
                "executor_id": executor.executor_id,
                "kind": executor.kind.value,
                "state": executor.state.value,
                "host": executor.host_name,
                "running_tasks": executor.running_tasks,
            })
        infos.sort(key=lambda info: info["executor_id"])
        return infos

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def provision_vm_cores(self, cores: int, itype_name: str) -> None:
        """Stand up ``cores`` executors on pre-provisioned VMs."""
        vms = self.runtime.provision_worker_cores(cores, itype_name)
        self.shared_vms.extend(vms)
        remaining = cores
        for vm in vms:
            take = min(remaining, vm.itype.vcpus)
            self._shared_cores[vm.name] = (
                self._shared_cores.get(vm.name, 0) + take)
            remaining -= take
        add_executors_on_vms(self.factory, vms, cores)

    def invoke_lambda_executors(self, count: int) -> None:
        """:func:`invoke_lambda_executors` onto the pool, counting the
        dropped slots (the pool degrades to fewer executors)."""
        self.failed_invocations += invoke_lambda_executors(
            self.runtime, self.factory, count, self.lambdas)

    def segue_to_vms(self, cores: int, boot_delay_s: float) -> None:
        """Procure ``cores`` of VM capacity in the background; as each
        VM becomes ready, move that many slots off Lambdas: add VM
        executors and gracefully drain the oldest Lambda executors."""
        scale_out_after(self.runtime, None, cores,
                        lambda itype: boot_delay_s, self._segue_ready,
                        self.dedicated_vms)

    def _segue_ready(self, vm: "VirtualMachine", take: int) -> None:
        add_executors_on_vms(self.factory, [vm], take)
        self.drain_lambda_executors(take)

    def drain_lambda_executors(self, count: int) -> int:
        """Gracefully decommission up to ``count`` registered
        Lambda-backed executors, oldest first (each finishes its
        in-flight task; the scheduler then returns its container).
        Returns how many were told to drain — fewer than ``count`` when
        the pool holds fewer live Lambda executors."""
        drained = registered_lambda_executors(self.scheduler)[:count]
        for executor in drained:
            self.scheduler.decommission_executor(executor, graceful=True)
        return len(drained)

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def settle(self, end: float) -> None:
        """Marginal-cost billing at end of run: shared instances at
        their per-core share, pool-procured instances whole from
        readiness; the functions on the pool's Lambdas return (the
        provider bills each container once, at its stop)."""
        for vm in self.shared_vms:
            self.runtime.bill_shared_cores(
                vm, self._shared_cores.get(vm.name, 0), 0.0, end)
        for vm in self.dedicated_vms:
            self.runtime.bill_dedicated_vm(vm, end)
        for fn in self.lambdas:
            fn.finish()
