"""Tests for the micro-batch streaming extension (§7's Flink direction)."""

import pytest

from repro.core.microbatch import MicroBatchSimulator


def steady(rate):
    return lambda t: rate


def bursty(base, peak, burst_start, burst_end):
    def rate(t):
        return peak if burst_start <= t < burst_end else base

    return rate


def test_validation():
    with pytest.raises(ValueError):
        MicroBatchSimulator(steady(100), bridge="teleport")
    with pytest.raises(ValueError):
        MicroBatchSimulator(steady(100), vm_cores=0)
    with pytest.raises(ValueError):
        MicroBatchSimulator(steady(100)).run(0)


def test_steady_rate_all_batches_on_time():
    sim = MicroBatchSimulator(steady(20_000), vm_cores=8,
                              batch_interval_s=10.0)
    outcome = sim.run(120.0)
    assert len(outcome.batches) == 12
    assert outcome.on_time_fraction == 1.0
    assert outcome.bridged_batches == 0  # fits the VM allotment
    assert outcome.max_lateness_s == 0.0


def test_burst_without_bridge_falls_behind():
    rate = bursty(20_000, 200_000, 30.0, 60.0)
    sim = MicroBatchSimulator(rate, vm_cores=4, batch_interval_s=10.0,
                              bridge="none")
    outcome = sim.run(120.0)
    assert outcome.on_time_fraction < 1.0
    assert outcome.max_lateness_s > sim.batch_interval_s / 2


def test_burst_with_lambda_bridge_keeps_up():
    rate = bursty(20_000, 200_000, 30.0, 60.0)
    sim = MicroBatchSimulator(rate, vm_cores=4, batch_interval_s=10.0,
                              bridge="lambda")
    outcome = sim.run(120.0)
    assert outcome.bridged_batches >= 3  # the burst intervals
    assert outcome.on_time_fraction == 1.0
    assert outcome.lambda_cost > 0


def test_bridge_beats_no_bridge_on_lateness():
    rate = bursty(20_000, 150_000, 20.0, 50.0)
    bridged = MicroBatchSimulator(rate, vm_cores=4,
                                  bridge="lambda").run(100.0)
    unbridged = MicroBatchSimulator(rate, vm_cores=4,
                                    bridge="none").run(100.0)
    assert bridged.max_lateness_s < unbridged.max_lateness_s


def test_required_cores_scales_with_records():
    sim = MicroBatchSimulator(steady(1), vm_cores=4)
    assert sim.required_cores(10_000) < sim.required_cores(1_000_000)
    assert sim.required_cores(0) == 1


def test_batches_are_sequential_and_monotone():
    sim = MicroBatchSimulator(steady(50_000), vm_cores=8)
    outcome = sim.run(60.0)
    starts = [b.started_at for b in outcome.batches]
    assert starts == sorted(starts)
    for batch in outcome.completed:
        assert batch.finished_at >= batch.started_at
