"""Tests for the fair-share bandwidth link."""

import pytest

from repro.cloud import FairShareLink
from repro.cloud.network import transfer_via
from repro.simulation import Environment


def test_single_transfer_takes_bytes_over_capacity():
    env = Environment()
    link = FairShareLink(env, capacity_bytes_per_s=100.0)
    done = link.transfer(1000)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = FairShareLink(env, 100.0)
    done = link.transfer(0)
    assert done.triggered


def test_negative_bytes_rejected():
    env = Environment()
    link = FairShareLink(env, 100.0)
    with pytest.raises(ValueError):
        link.transfer(-1)


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        FairShareLink(env, 0)


def test_two_equal_transfers_share_bandwidth():
    env = Environment()
    link = FairShareLink(env, 100.0)
    d1 = link.transfer(500)
    d2 = link.transfer(500)
    env.run(until=d1 & d2)
    # Each effectively gets 50 B/s: both finish at t=10.
    assert env.now == pytest.approx(10.0)


def test_short_transfer_finishes_first_then_long_speeds_up():
    env = Environment()
    link = FairShareLink(env, 100.0)
    times = {}

    def watch(name, ev):
        def proc(env):
            yield ev
            times[name] = env.now
        env.process(proc(env))

    watch("short", link.transfer(100))   # fair share 50 B/s -> done at 2s
    watch("long", link.transfer(1000))   # 100B in 2s, 900B at full speed: 2+9=11
    env.run()
    assert times["short"] == pytest.approx(2.0)
    assert times["long"] == pytest.approx(11.0)


def test_late_joiner_slows_existing_transfer():
    env = Environment()
    link = FairShareLink(env, 100.0)
    times = {}

    def first(env):
        ev = link.transfer(1000)  # alone: 10s; but a joiner at t=5...
        yield ev
        times["first"] = env.now

    def second(env):
        yield env.timeout(5)
        ev = link.transfer(250)
        yield ev
        times["second"] = env.now

    env.process(first(env))
    env.process(second(env))
    env.run()
    # first: 500B by t=5, then 50 B/s shared until second finishes at t=10
    # (250B at 50B/s), then 250B left at 100 B/s -> t=12.5.
    assert times["second"] == pytest.approx(10.0)
    assert times["first"] == pytest.approx(12.5)


def test_bytes_moved_accounting():
    env = Environment()
    link = FairShareLink(env, 100.0)
    link.transfer(300)
    link.transfer(200)
    env.run()
    assert link.bytes_moved == pytest.approx(500)


def test_many_concurrent_transfers_conserve_capacity():
    env = Environment()
    link = FairShareLink(env, 1000.0)
    events = [link.transfer(1000) for _ in range(10)]
    env.run(until=env.all_of(events))
    # 10 x 1000B at aggregate 1000 B/s = 10s total.
    assert env.now == pytest.approx(10.0)


def test_transfer_via_takes_slowest_hop():
    env = Environment()
    fast = FairShareLink(env, 1000.0)
    slow = FairShareLink(env, 100.0)
    done = transfer_via(env, [fast, slow], 1000)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)


def test_transfer_via_empty_path_is_instant():
    env = Environment()
    done = transfer_via(env, [], 1000)
    assert done.triggered


def test_transfer_via_single_link_passthrough():
    env = Environment()
    link = FairShareLink(env, 100.0)
    done = transfer_via(env, [link], 500)
    env.run(until=done)
    assert env.now == pytest.approx(5.0)

