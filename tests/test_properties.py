"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.cloud import FairShareLink, instance_type
from repro.cloud.pricing import LambdaPricing, VMPricing
from repro.simulation import Environment, RandomStreams
from repro.spark.memory import MAX_SLOWDOWN, gc_slowdown
from repro.spark.shuffle import MapOutputTracker, MapStatus
from repro.storage.base import TokenBucket
from repro.workloads.pagerank import skewed_compute


# ---------------------------------------------------------------------------
# Fair-share link
# ---------------------------------------------------------------------------

@given(
    capacity=st.floats(min_value=1.0, max_value=1e9),
    sizes=st.lists(st.floats(min_value=0.0, max_value=1e9),
                   min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_link_conserves_bytes_and_respects_capacity(capacity, sizes):
    env = Environment()
    link = FairShareLink(env, capacity)
    events = [link.transfer(n) for n in sizes]
    env.run()
    assert all(e.triggered for e in events)
    total = sum(sizes)
    # Conservation: every byte crossed the link.
    assert link.bytes_moved >= total - 1e-3
    # Capacity: the aggregate can never beat capacity * elapsed — modulo
    # the link's own float slack (_EPS bytes per transfer finish free).
    if total > 0:
        slack = FairShareLink._EPS * len(sizes)
        assert env.now * capacity >= total * (1 - 1e-9) - slack


@given(
    capacity=st.floats(min_value=1.0, max_value=1e6),
    nbytes=st.floats(min_value=0.001, max_value=1e8),
)
@settings(max_examples=60, deadline=None)
def test_single_transfer_exact_duration(capacity, nbytes):
    env = Environment()
    link = FairShareLink(env, capacity)
    done = link.transfer(nbytes)
    env.run(until=done)
    assert math.isclose(env.now, nbytes / capacity, rel_tol=1e-6,
                        abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

@given(
    rate=st.floats(min_value=1.0, max_value=10_000.0),
    counts=st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_token_bucket_never_admits_faster_than_rate(rate, counts):
    env = Environment()
    bucket = TokenBucket(env, rate)
    total = 0
    worst_delay = 0.0
    for count in counts:
        delay = bucket.admit_delay(count)
        assert delay >= 0.0
        total += count
        worst_delay = max(worst_delay, delay)
    # The last admission must respect the sustained rate (allowing the
    # one-second burst credit).
    min_time = (total - 1) / rate - 1.0
    assert worst_delay >= min_time - 1e-6 or min_time <= 0


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

@given(a=st.floats(min_value=0.0, max_value=7200.0),
       b=st.floats(min_value=0.0, max_value=7200.0))
@settings(max_examples=100, deadline=None)
def test_vm_pricing_monotone(a, b):
    pricing = VMPricing(price_per_hour=0.20)
    lo, hi = sorted([a, b])
    assert pricing.cost(lo) <= pricing.cost(hi) + 1e-12


@given(duration=st.floats(min_value=0.0, max_value=900.0),
       mem_a=st.integers(min_value=128, max_value=3008),
       mem_b=st.integers(min_value=128, max_value=3008))
@settings(max_examples=100, deadline=None)
def test_lambda_pricing_monotone_in_memory(duration, mem_a, mem_b):
    lo, hi = sorted([mem_a, mem_b])
    assert (LambdaPricing(lo).cost(duration)
            <= LambdaPricing(hi).cost(duration) + 1e-12)


@given(duration=st.floats(min_value=0.001, max_value=900.0))
@settings(max_examples=100, deadline=None)
def test_lambda_billed_at_least_actual_duration(duration):
    # 100ms round-up means billed time >= actual time.
    gb_s_price = 0.0000166667
    cost = LambdaPricing(1024).cost(duration)
    floor = gb_s_price * 1.0 * duration
    assert cost >= floor


# ---------------------------------------------------------------------------
# GC model
# ---------------------------------------------------------------------------

@given(ws=st.floats(min_value=0, max_value=1e12),
       mem=st.floats(min_value=1e8, max_value=1e12),
       uptime=st.floats(min_value=0, max_value=1e6))
@settings(max_examples=100, deadline=None)
def test_gc_slowdown_bounded(ws, mem, uptime):
    slowdown = gc_slowdown(ws, mem, uptime)
    assert 1.0 <= slowdown <= MAX_SLOWDOWN


@given(mem=st.floats(min_value=1e8, max_value=1e12),
       uptime=st.floats(min_value=0, max_value=1e5),
       ws_a=st.floats(min_value=0, max_value=1e11),
       ws_b=st.floats(min_value=0, max_value=1e11))
@settings(max_examples=100, deadline=None)
def test_gc_slowdown_monotone_in_working_set(mem, uptime, ws_a, ws_b):
    lo, hi = sorted([ws_a, ws_b])
    assert (gc_slowdown(lo, mem, uptime)
            <= gc_slowdown(hi, mem, uptime) + 1e-9)


# ---------------------------------------------------------------------------
# Skewed compute
# ---------------------------------------------------------------------------

@given(total=st.floats(min_value=0.001, max_value=1e5),
       partitions=st.integers(min_value=1, max_value=512))
@settings(max_examples=100, deadline=None)
def test_skewed_compute_conserves_total_and_nonnegative(total, partitions):
    compute = skewed_compute(total, partitions)
    values = [compute(p) for p in range(partitions)]
    assert all(v >= 0 for v in values)
    assert math.isclose(sum(values), total, rel_tol=1e-6)
    assert values[0] == max(values)


# ---------------------------------------------------------------------------
# Map output tracker
# ---------------------------------------------------------------------------

@given(
    num_maps=st.integers(min_value=1, max_value=64),
    registered=st.sets(st.integers(min_value=0, max_value=63)),
)
@settings(max_examples=100, deadline=None)
def test_tracker_missing_plus_registered_is_everything(num_maps, registered):
    tracker = MapOutputTracker()
    tracker.register_shuffle(0, num_maps)
    in_range = {p for p in registered if p < num_maps}
    for p in in_range:
        tracker.register(MapStatus(0, p, f"exec-{p}", 100.0))
    missing = set(tracker.missing_partitions(0, num_maps))
    assert missing | in_range == set(range(num_maps))
    assert missing & in_range == set()
    assert tracker.is_complete(0, num_maps) == (len(in_range) == num_maps)
    if missing:
        assert tracker.first_missing_partition(0) == min(missing)
    else:
        assert tracker.first_missing_partition(0) is None


@given(
    executors=st.lists(st.sampled_from(["a", "b", "c"]),
                       min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_tracker_executor_removal_drops_exactly_its_outputs(executors):
    tracker = MapOutputTracker()
    tracker.register_shuffle(0, len(executors))
    for p, ex in enumerate(executors):
        tracker.register(MapStatus(0, p, ex, 1.0))
    removed = tracker.remove_outputs_on_executor("a")
    assert removed == executors.count("a")
    remaining = tracker.statuses(0)
    assert all(s.executor_id != "a" for s in remaining)
    assert len(remaining) == len(executors) - executors.count("a")


@given(
    maps=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                  max_size=4),
    ops=st.lists(st.tuples(
        st.sampled_from(("register",) * 4 + ("retire", "remove")),
        st.integers(min_value=0, max_value=3),          # shuffle
        st.integers(min_value=0, max_value=5),          # map partition
        st.sampled_from(["a", "b", "c"])), max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_tracker_retirement_keeps_every_loss_count(maps, ops):
    """A retired shuffle's outputs are folded into per-executor counts:
    every removal still counts what a tracker that never retires
    drops, and the live shuffles are untouched. Registrations (and
    overwrites) only reach shuffles not yet retired, as in a pooled
    world, where an app's shuffles retire once nothing of it runs."""
    tracker, reference = MapOutputTracker(), MapOutputTracker()
    for shuffle_id, num_maps in enumerate(maps):
        tracker.register_shuffle(shuffle_id, num_maps)
        reference.register_shuffle(shuffle_id, num_maps)
    retired = set()
    for op, shuffle_id, partition, executor in ops:
        shuffle_id %= len(maps)
        if op == "register" and shuffle_id not in retired:
            status = MapStatus(shuffle_id, partition % maps[shuffle_id],
                               executor, 1.0)
            tracker.register(status)
            reference.register(status)
        elif op == "retire":
            tracker.retire_shuffles([shuffle_id])
            retired.add(shuffle_id)
        elif op == "remove":
            assert (tracker.remove_outputs_on_executor(executor)
                    == reference.remove_outputs_on_executor(executor))
        for live in set(range(len(maps))) - retired:
            assert tracker.statuses(live) == reference.statuses(live)
    for executor in ("a", "b", "c"):
        assert (tracker.remove_outputs_on_executor(executor)
                == reference.remove_outputs_on_executor(executor))


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**31),
       name=st.text(min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_rng_streams_reproducible(seed, name):
    a = RandomStreams(seed).stream(name).random(5).tolist()
    b = RandomStreams(seed).stream(name).random(5).tolist()
    assert a == b


@given(seed=st.integers(min_value=0, max_value=2**31),
       mean=st.floats(min_value=0.001, max_value=1e4),
       cv=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_lognormal_samples_positive(seed, mean, cv):
    rng = RandomStreams(seed)
    sample = rng.lognormal_around("x", mean, cv)
    assert sample > 0
