"""Unit tests for the CloudProvider facade: fleet, live Lambda count,
billing."""

import pytest

from repro.cloud import CloudProvider, LambdaConfig, LambdaState
from repro.cloud.constants import LAMBDA_LIFETIME_S
from repro.cloud.lambda_fn import LambdaThrottledError
from repro.cloud.pricing import BillingMeter
from repro.observability.metrics import MetricsRegistry
from repro.simulation import Environment, RandomStreams


def make(seed=0):
    # A bare provider: it takes the meter and registry a ClusterRuntime
    # would hand it.
    env = Environment()
    provider = CloudProvider(env, RandomStreams(seed), BillingMeter(),
                             MetricsRegistry())
    return env, provider


def test_vm_names_autogenerated_and_unique():
    env, provider = make()
    a = provider.request_vm("m4.large", already_running=True)
    b = provider.request_vm("m4.large", already_running=True)
    assert a.name != b.name


def test_running_vms_excludes_booting_and_terminated():
    env, provider = make()
    running = provider.request_vm("m4.large", already_running=True)
    booting = provider.request_vm("m4.large", boot_delay_s=100)
    dead = provider.request_vm("m4.large", already_running=True)
    dead.terminate()
    assert provider.running_vms == [running]


def test_lambda_names_autogenerated():
    env, provider = make()
    a = provider.invoke_lambda()
    b = provider.invoke_lambda()
    assert a.name != b.name
    assert provider.active_lambda_count == 2


def test_live_count_falls_once_per_stop_and_gates_the_limit():
    env, provider = make()
    provider.concurrency_limit = 2
    returned = provider.invoke_lambda()
    reaped = provider.invoke_lambda(LambdaConfig(lifetime_s=5.0))
    assert provider.active_lambda_count == 2
    # A third invoke is throttled, and a throttled invoke is not counted.
    with pytest.raises(LambdaThrottledError):
        provider.invoke_lambda()
    assert provider.active_lambda_count == 2

    # A return lowers the count once; a second return changes nothing.
    env.run(until=returned.ready)
    returned.finish()
    assert provider.active_lambda_count == 1
    returned.finish()
    assert provider.active_lambda_count == 1

    # A reap lowers it once; a late return changes nothing.
    env.run(until=reaped.expired)
    assert provider.active_lambda_count == 0
    reaped.finish()
    assert provider.active_lambda_count == 0

    # A finish() during the warm start lowers it once, and the start's
    # end does not lower it again.
    starting = provider.invoke_lambda()
    assert starting.state is LambdaState.STARTING
    assert provider.active_lambda_count == 1
    starting.finish()
    assert provider.active_lambda_count == 0
    env.run(until=env.now + 1.0)
    assert provider.active_lambda_count == 0

    # The limit admits again, up to itself.
    provider.invoke_lambda()
    provider.invoke_lambda()
    assert provider.active_lambda_count == 2
    with pytest.raises(LambdaThrottledError):
        provider.invoke_lambda()
    # One bill per stopped container.
    assert [r.name for r in provider.meter.records] == [
        returned.name, reaped.name, starting.name]


def test_release_is_idempotent_for_billing_window():
    env, provider = make()
    fn = provider.invoke_lambda()

    def flow(env):
        yield fn.ready
        yield env.timeout(10)
        fn.finish()
        first_end = fn.finish_time
        yield env.timeout(50)
        fn.finish()  # second finish: no-op
        assert fn.finish_time == first_end

    env.process(flow(env))
    env.run(until=100)
    # Billed once, ~10s, not 60s.
    from repro.cloud.pricing import lambda_cost

    [record] = provider.meter.records
    assert record.cost == pytest.approx(lambda_cost(1536, 10), rel=0.1)
    assert provider.active_lambda_count == 0


def test_reaped_container_is_billed_and_not_kept_warm():
    env, provider = make()
    fn = provider.invoke_lambda()
    env.run(until=fn.expired)
    # Billed at the reap, invocation -> cap...
    assert provider.meter.intervals("lambda") == [
        (fn.name, 0.0, LAMBDA_LIFETIME_S)]
    # ...once: a late return changes nothing.
    fn.finish()
    assert len(provider.meter.records) == 1
    assert provider.active_lambda_count == 0


def test_custom_lambda_config_respected():
    env, provider = make()
    fn = provider.invoke_lambda(LambdaConfig(memory_mb=3008))
    assert fn.config.memory_mb == 3008
