"""Tests for SplitServe facade options and LaunchOutcome details."""

from repro.cluster.runtime import ClusterRuntime
from repro.core import SplitServe
from repro.spark.rdd import RDDBuilder


def make(lambda_memory_mb=1536, worker_cores=0):
    runtime = ClusterRuntime(0)
    env, provider = runtime.env, runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    master.allocate_cores(master.itype.vcpus)
    ss = SplitServe(env, provider, runtime.rng, master_vm=master,
                    lambda_memory_mb=lambda_memory_mb)
    if worker_cores:
        vm = provider.request_vm("m4.4xlarge", already_running=True)
        vm.allocate_cores(vm.itype.vcpus - worker_cores)
    return env, provider, ss


def job(tasks=4, seconds=2.0):
    return RDDBuilder().source("work", partitions=tasks,
                               compute_seconds=seconds)


def test_lambda_memory_option_flows_to_containers():
    env, provider, ss = make(lambda_memory_mb=3008)
    outcome = ss.launching.acquire(2)
    env.run(until=outcome.all_registered)
    assert all(fn.config.memory_mb == 3008 for fn in provider.lambdas)
    # And the executors inherit the doubled CPU share.
    assert all(ex.cpu_speed > 1.5 for ex in outcome.lambda_executors)


def test_shuffle_storage_is_hdfs_on_the_master():
    _env, _provider, ss = make()
    assert ss.master_vm.name == "master"
    assert ss.master_vm.is_running
    assert ss.shuffle_storage.datanode is ss.master_vm


def test_launch_outcome_counts():
    env, provider, ss = make(worker_cores=3)
    outcome = ss.launching.acquire(8)
    env.run(until=outcome.all_registered)
    assert outcome.requested_cores == 8
    assert outcome.vm_cores == 3
    assert outcome.lambda_cores == 5


def test_run_job_releases_vm_cores_after():
    env, provider, ss = make(worker_cores=4)
    worker = [vm for vm in provider.vms if vm.name != "master"][0]
    before = worker.free_cores
    ss.run_job(job(tasks=4), required_cores=4)
    assert worker.free_cores == before


def test_timeout_knob_drained_lambdas_are_billed_once():
    from repro.spark import SparkConf

    runtime = ClusterRuntime(0)
    provider = runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    master.allocate_cores(master.itype.vcpus)
    worker = provider.request_vm("m4.xlarge", already_running=True)
    worker.allocate_cores(2)
    conf = SparkConf({"spark.lambda.executor.timeout": 10.0})
    ss = SplitServe(runtime.env, provider, runtime.rng, conf=conf,
                    master_vm=master)
    ss.run_job(job(tasks=12, seconds=5.0), required_cores=4,
               max_vm_cores=2)
    # Two Lambdas were drained by the knob mid-job and later finish_run
    # must not double-bill them: one billing record per container.
    lambda_records = [r for r in provider.meter.records
                      if r.kind == "lambda"]
    names = [r.name for r in lambda_records]
    assert len(names) == len(set(names))
    assert len(names) == len(provider.lambdas)
