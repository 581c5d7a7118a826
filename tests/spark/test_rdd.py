"""Tests for RDD lineage construction."""

import pytest

from repro.spark.rdd import NarrowDependency, RDDBuilder, ShuffleDependency


def test_rdd_validation():
    b = RDDBuilder()
    with pytest.raises(ValueError):
        b.source("x", partitions=0, compute_seconds=0.0)
    with pytest.raises(ValueError):
        b.source("x", partitions=4, compute_seconds=0.0,
                 working_set_bytes=-1)


def test_compute_seconds_constant_and_callable():
    b = RDDBuilder()
    constant = b.source("c", 4, compute_seconds=2.5)
    assert constant.compute_seconds(0) == 2.5
    varying = b.source("v", 4, compute_seconds=lambda p: p * 1.0)
    assert varying.compute_seconds(3) == 3.0


def test_negative_compute_rejected_at_call():
    bad = RDDBuilder().source("bad", 2, compute_seconds=lambda p: -1.0)
    with pytest.raises(ValueError):
        bad.compute_seconds(0)


def test_shuffle_dependency_bytes_per_map():
    b = RDDBuilder()
    parent = b.source("parent", 8, compute_seconds=0.0)
    [dep] = b.shuffle(parent, "child", 4, shuffle_bytes=800).deps
    assert dep.bytes_per_map == 100


def test_shuffle_dependency_negative_bytes_rejected():
    b = RDDBuilder()
    parent = b.source("p", 2, compute_seconds=0.0)
    with pytest.raises(ValueError):
        b.shuffle(parent, "child", 2, shuffle_bytes=-1)


def test_builder_map_preserves_partitions():
    b = RDDBuilder()
    src = b.source("src", partitions=16, compute_seconds=1.0)
    mapped = b.map(src, "mapped", compute_seconds=0.5)
    assert mapped.num_partitions == 16
    assert isinstance(mapped.deps[0], NarrowDependency)


def test_builder_map_over_several_parents():
    b = RDDBuilder()
    left = b.source("l", partitions=8, compute_seconds=1.0)
    right = b.map(left, "r")
    both = b.map([left, right], "both", compute_seconds=0.5)
    assert both.num_partitions == 8
    assert [d.parent for d in both.deps] == [left, right]
    assert all(isinstance(d, NarrowDependency) for d in both.deps)


def test_builder_shuffle_changes_partitions():
    b = RDDBuilder()
    src = b.source("src", partitions=16, compute_seconds=1.0)
    red = b.shuffle(src, "red", partitions=4, shuffle_bytes=1e6)
    assert red.num_partitions == 4
    assert isinstance(red.deps[0], ShuffleDependency)


def test_narrow_ancestry_order_is_upstream_first():
    b = RDDBuilder()
    a = b.source("a", 4, 1.0)
    c = b.map(a, "c")
    d = b.map(c, "d")
    names = [r.name for r in d.narrow_ancestry()]
    assert names == ["a", "c", "d"]


def test_narrow_ancestry_stops_at_shuffle():
    b = RDDBuilder()
    a = b.source("a", 4, 1.0)
    red = b.shuffle(a, "red", 4, 1e6)
    mapped = b.map(red, "m")
    names = [r.name for r in mapped.narrow_ancestry()]
    assert names == ["red", "m"]  # 'a' is across the shuffle boundary


def test_join_has_two_shuffle_deps():
    b = RDDBuilder()
    left = b.source("l", 4, 1.0)
    right = b.source("r", 4, 1.0)
    joined = b.join(left, right, "j", partitions=8,
                    left_bytes=100, right_bytes=200)
    sids = joined.shuffle_deps
    assert len(sids) == 2
    assert {d.parent.name for d in sids} == {"l", "r"}


def test_rdd_ids_unique_and_increasing():
    b = RDDBuilder()
    r1 = b.source("x", 1, compute_seconds=0.0)
    r2 = b.source("y", 1, compute_seconds=0.0)
    assert r2.rdd_id == r1.rdd_id + 1


def test_each_builder_numbers_its_own_ids_from_zero():
    for _ in range(2):
        b = RDDBuilder()
        src = b.source("x", 2, compute_seconds=0.0)
        joined = b.join(src, b.map(src, "y"), "j", partitions=2,
                        left_bytes=1.0, right_bytes=1.0)
        assert [src.rdd_id, joined.rdd_id] == [0, 2]
        assert [d.shuffle_id for d in joined.deps] == [0, 1]
