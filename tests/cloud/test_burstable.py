"""Tests for burstable instances (the BurScale substrate)."""

import pytest

from repro.cloud.burstable import (
    BURSTABLE_CATALOGUE,
    BurstableSpec,
    BurstableVM,
)
from repro.simulation import Environment, RandomStreams

from tests.spark.helpers import MiniCluster, single_stage_rdd


def launch(env=None, type_name="t2.large", credits=None):
    env = env if env is not None else Environment()
    vm = BurstableVM.launch(env, "burst-0", type_name, RandomStreams(0),
                            already_running=True,
                            initial_credits=credits)
    return env, vm


def test_catalogue_and_unknown_type():
    assert set(BURSTABLE_CATALOGUE) == {"t2.medium", "t2.large", "t2.xlarge"}
    env = Environment()
    with pytest.raises(KeyError, match="unknown burstable type"):
        BurstableVM.launch(env, "x", "t2.mega", RandomStreams(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        BurstableSpec(baseline_fraction=0.0, launch_credits=1,
                      earn_credits_per_hour=1, max_credits=1)


def test_full_speed_while_credits_last():
    env, vm = launch(credits=10)  # 600 full-speed CPU-seconds
    assert vm.consume_cpu(100.0) == pytest.approx(100.0)
    assert vm.credit_seconds == pytest.approx(500.0)


def test_throttles_to_baseline_when_exhausted():
    env, vm = launch(credits=1)  # 60 CPU-seconds of burst
    wall = vm.consume_cpu(120.0)
    # 60s at full speed + 60s of demand at 30% baseline = 60 + 200.
    assert wall == pytest.approx(60.0 + 60.0 / 0.30)
    assert vm.credit_seconds == 0.0  # out of credits: at the baseline


def test_credits_accrue_over_time():
    env, vm = launch(credits=0)
    env.timeout(3600)  # schedule something so run() has work
    env.run(until=3600)
    # t2.large earns 36 credits/hour.
    assert vm.credits == pytest.approx(36.0, rel=0.01)


def test_accrual_capped():
    env, vm = launch(credits=0)
    env.timeout(3600 * 1000)
    env.run(until=3600 * 1000)
    assert vm.credits == pytest.approx(864.0)  # t2.large cap


def test_negative_demand_rejected():
    env, vm = launch()
    with pytest.raises(ValueError):
        vm.consume_cpu(-1.0)


def test_executor_on_burstable_host_slows_after_credits():
    """A SplitServe-sized job on standby burstables: fast while credits
    last, collapsing to baseline after — BurScale's fundamental limit."""
    def run(credits):
        cluster = MiniCluster()
        vm = BurstableVM.launch(cluster.env, "burst", "t2.large",
                                cluster.rng, already_running=True,
                                initial_credits=credits)
        cluster.provider.vms.append(vm)
        cluster.driver.add_vm_executor(vm)
        cluster.driver.add_vm_executor(vm)
        rdd = single_stage_rdd(cluster.builder, tasks=8, seconds=30.0)
        return cluster.run_job(rdd).duration

    flush = run(credits=60)  # plenty: 3600 CPU-seconds
    broke = run(credits=1)  # nearly none
    assert flush == pytest.approx(120.0, rel=0.05)  # 4 waves x 30s
    # Out of credits the 30% baseline stretches the job heavily (the
    # deliberately favourable accrual model keeps it under the raw
    # 1/0.3 factor).
    assert broke > 1.5 * flush
