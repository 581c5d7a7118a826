"""Tests for VM and Lambda lifecycles and the provider facade."""

import pytest

from repro.cloud import (
    LambdaConfig,
    LambdaState,
    VMState,
    instance_type,
)
from repro.cloud.constants import LAMBDA_LIFETIME_S
from repro.cloud.instance_types import fewest_instances_for_cores
from repro.cluster.runtime import ClusterRuntime


def make_provider(seed=0):
    runtime = ClusterRuntime(seed)
    return runtime.env, runtime.provider


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------

def test_catalogue_lookup_and_error():
    m4 = instance_type("m4.xlarge")
    assert m4.vcpus == 4
    with pytest.raises(KeyError, match="unknown instance type"):
        instance_type("m5.mega")


def test_fewest_instances_single():
    assert [t.name for t in fewest_instances_for_cores(8)] == ["m4.2xlarge"]
    assert [t.name for t in fewest_instances_for_cores(16)] == ["m4.4xlarge"]
    assert [t.name for t in fewest_instances_for_cores(32)] == ["m4.10xlarge"]


def test_fewest_instances_multiple_for_128_cores():
    types = [t.name for t in fewest_instances_for_cores(128)]
    assert types == ["m4.16xlarge", "m4.16xlarge"]


def test_fewest_instances_rejects_nonpositive():
    with pytest.raises(ValueError):
        fewest_instances_for_cores(0)


def test_price_per_vcpu():
    m4_large = instance_type("m4.large")
    assert m4_large.price_per_vcpu_hour == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# VM lifecycle
# ---------------------------------------------------------------------------

def test_vm_boot_takes_roughly_two_minutes():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge")
    assert vm.state in (VMState.REQUESTED, VMState.PROVISIONING)
    env.run(until=vm.ready)
    assert vm.is_running
    assert 60 < env.now < 240  # lognormal around 120s


def test_vm_fixed_boot_delay():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge", boot_delay_s=100.0)
    env.run(until=vm.ready)
    assert env.now == pytest.approx(100.0)


def test_already_running_vm_is_ready_immediately():
    env, provider = make_provider()
    vm = provider.request_vm("m4.4xlarge", already_running=True)
    assert vm.is_running
    assert vm.ready.triggered


def test_vm_core_accounting():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge", already_running=True)
    assert vm.free_cores == 4
    vm.allocate_cores(3)
    assert vm.free_cores == 1
    with pytest.raises(RuntimeError, match="only 1 free"):
        vm.allocate_cores(2)
    vm.release_cores(3)
    assert vm.free_cores == 4
    with pytest.raises(RuntimeError):
        vm.release_cores(1)


def test_vm_cannot_allocate_before_running():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge")
    with pytest.raises(RuntimeError, match="not running"):
        vm.allocate_cores(1)


def test_vm_terminate_and_uptime():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge", already_running=True)

    def stop(env):
        yield env.timeout(300)
        vm.terminate()

    env.process(stop(env))
    env.run()
    assert vm.state is VMState.TERMINATED
    assert vm.uptime == pytest.approx(300)
    vm.terminate()  # idempotent


def test_vm_terminated_while_provisioning_never_runs():
    env, provider = make_provider()
    vm = provider.request_vm("m4.xlarge", boot_delay_s=100.0)

    def cancel(env):
        yield env.timeout(50)
        vm.terminate()

    env.process(cancel(env))
    env.run()
    assert vm.state is VMState.TERMINATED
    assert not vm.ready.triggered


# ---------------------------------------------------------------------------
# Lambda lifecycle
# ---------------------------------------------------------------------------

def test_lambda_config_validation():
    with pytest.raises(ValueError):
        LambdaConfig(memory_mb=64)
    with pytest.raises(ValueError):
        LambdaConfig(memory_mb=4096)
    with pytest.raises(ValueError):
        LambdaConfig(lifetime_s=0)


def test_lambda_cpu_share_scales_with_memory():
    assert LambdaConfig(memory_mb=1536).cpu_share == pytest.approx(1.0)
    assert LambdaConfig(memory_mb=768).cpu_share == pytest.approx(0.5)
    assert LambdaConfig(memory_mb=3008).cpu_share == pytest.approx(3008 / 1536)


def test_lambda_warm_start_is_fast():
    env, provider = make_provider()
    fn = provider.invoke_lambda()
    env.run(until=fn.ready)
    assert env.now < 1.0  # ~100ms warm
    assert fn.warm_start


def test_lambda_cold_start_is_slow():
    env, provider = make_provider()
    fn = provider.invoke_lambda(force_cold=True)
    env.run(until=fn.ready)
    assert 2.0 < env.now < 30.0
    assert not fn.warm_start


def test_lambda_expires_at_lifetime_cap():
    env, provider = make_provider()
    fn = provider.invoke_lambda()
    env.run(until=fn.expired)
    assert fn.state is LambdaState.EXPIRED
    assert env.now == pytest.approx(LAMBDA_LIFETIME_S, abs=1.0)


def test_lambda_finish_prevents_expiry():
    env, provider = make_provider()
    fn = provider.invoke_lambda()

    def work(env):
        yield fn.ready
        yield env.timeout(30)
        fn.finish()

    env.process(work(env))
    env.run()
    assert fn.state is LambdaState.FINISHED
    assert not fn.expired.triggered
    [(name, start, end)] = provider.meter.intervals("lambda")
    assert name == fn.name
    assert end - start == pytest.approx(30, abs=1.0)


def test_lambda_network_bandwidth_proportional_to_memory():
    env, provider = make_provider()
    small = provider.invoke_lambda(LambdaConfig(memory_mb=512))
    large = provider.invoke_lambda(LambdaConfig(memory_mb=3008))
    ratio = (large.net_link.capacity_bytes_per_s
             / small.net_link.capacity_bytes_per_s)
    assert ratio == pytest.approx(3008 / 512)


# ---------------------------------------------------------------------------
# Warm pool
# ---------------------------------------------------------------------------

def test_warm_pool_reuse_after_release():
    env, provider = make_provider()
    provider._initial_warm = 0  # force cold starts until a release happens
    first = provider.invoke_lambda()
    assert not first.warm_start

    def cycle(env):
        yield first.ready
        first.finish()
        second = provider.invoke_lambda()
        assert second.warm_start

    env.process(cycle(env))
    env.run()


def test_warm_pool_sized_entries_do_not_cross_memory_classes():
    env, provider = make_provider()
    provider._initial_warm = 0
    fn = provider.invoke_lambda(LambdaConfig(memory_mb=1024))

    def cycle(env):
        yield fn.ready
        fn.finish()
        other = provider.invoke_lambda(LambdaConfig(memory_mb=2048))
        assert not other.warm_start  # different size class: cold

    env.process(cycle(env))
    env.run()


def test_billing_helpers():
    runtime = ClusterRuntime(0)
    env, provider = runtime.env, runtime.provider
    vm = provider.request_vm("m4.large", already_running=True)
    fn = provider.invoke_lambda()

    def run(env):
        yield env.timeout(90)
        fn.finish()
        vm.terminate()

    env.process(run(env))
    env.run()
    runtime.bill_dedicated_vm(vm, env.now)
    vm_cost = provider.meter.breakdown()["vm"]
    la_cost = provider.meter.breakdown()["lambda"]
    assert vm_cost > 0 and la_cost > 0
    assert provider.meter.total() == pytest.approx(vm_cost + la_cost)


def test_trace_records_vm_and_lambda_events():
    runtime = ClusterRuntime(0, trace_enabled=True)
    env, provider, trace = runtime.env, runtime.provider, runtime.recorder
    vm = provider.request_vm("m4.large", boot_delay_s=10)
    fn = provider.invoke_lambda()
    env.run(until=vm.ready)
    assert trace.select(category="vm", name="running")
    assert trace.select(category="lambda", name="invoked")
