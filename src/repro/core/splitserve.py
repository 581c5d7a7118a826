"""The SplitServe facade: one object wiring all three facilities.

Mirrors §4.2's example flow: a job arrives needing R cores; the launching
facility claims the r free VM cores and invokes Δ = R − r Lambdas; when
replacement VM cores come up, the segueing facility drains the Lambdas
onto them; shuffle flows through HDFS reachable by both executor kinds
(§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.launching import LaunchingFacility, LaunchOutcome
from repro.core.segue import SegueingFacility
from repro.spark.application import JobResult, SparkDriver
from repro.spark.config import SparkConf
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.provisioner import CloudProvider
    from repro.cloud.vm import VirtualMachine
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.dag_scheduler import Job
    from repro.spark.rdd import RDD


@dataclass
class SplitServeRun:
    """Handle for one in-flight SplitServe job."""

    job: "Job"
    launch: LaunchOutcome


class SplitServe:
    """SplitServe = enhanced master (driver) + the three facilities.

    ``master_vm`` is the world's master instance (a VM, paper footnote
    3); the shuffle goes through the single HDFS node colocated on it.
    """

    def __init__(
        self,
        env: "Environment",
        provider: "CloudProvider",
        rng: "RandomStreams",
        master_vm: "VirtualMachine",
        conf: Optional[SparkConf] = None,
        trace: Optional["TraceRecorder"] = None,
        lambda_memory_mb: int = 1536,
    ) -> None:
        self.env = env
        self.conf = conf if conf is not None else SparkConf()
        self.master_vm = master_vm
        self.shuffle_storage = HDFS(env, master_vm, rng, provider.meter)

        backend = ExternalShuffleBackend(self.shuffle_storage,
                                         per_pair_objects=False)
        self.driver = SparkDriver(env, self.conf, rng, backend, trace=trace)
        self.launching = LaunchingFacility(
            env, provider, self.driver,
            lambda_memory_mb=lambda_memory_mb, trace=trace)
        self.segueing = SegueingFacility(env, self.driver, trace=trace)

    # ------------------------------------------------------------------

    def submit_job(
        self,
        final_rdd: "RDD",
        required_cores: int,
        max_vm_cores: Optional[int] = None,
    ) -> SplitServeRun:
        """Launch executors per §4.2 and submit the job."""
        launch = self.launching.acquire(required_cores,
                                        max_vm_cores=max_vm_cores)
        job = self.driver.submit(final_rdd)
        return SplitServeRun(job=job, launch=launch)

    def run_job(self, final_rdd: "RDD", required_cores: int,
                **kwargs) -> JobResult:
        """Submit, run to completion, return the Lambda containers."""
        run = self.submit_job(final_rdd, required_cores, **kwargs)
        self.env.run(until=run.job.done)
        self.finish_run(run)
        return JobResult.from_job(run.job)

    def finish_run(self, run: SplitServeRun) -> None:
        """Post-job cleanup: the functions on the job's Lambdas return
        (the provider bills each container once, so one already drained
        or reaped is left as it is), and the claimed VM cores are freed
        (the VMs stay up — inter-job policy decides their fate)."""
        for executor in run.launch.lambda_executors:
            executor.lambda_instance.finish()
        for executor in (run.launch.vm_executors
                         + run.launch.fallback_vm_executors):
            if executor.vm.is_running and executor.vm.allocated_cores > 0:
                executor.vm.release_cores(1)
