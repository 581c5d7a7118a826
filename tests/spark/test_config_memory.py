"""Unit tests for SparkConf and the JVM memory/GC model."""

from pathlib import Path

import pytest

import repro
from repro.spark import SparkConf
from repro.spark.config import DEFAULTS
from repro.spark.memory import (
    COMFORTABLE_HEAP_BYTES,
    MAX_SLOWDOWN,
    aging_slowdown,
    gc_slowdown,
    pressure_slowdown,
    usable_heap_bytes,
)
from tests.spark.helpers import MiniCluster

GB = 1024 ** 3


# ---------------------------------------------------------------------------
# SparkConf
# ---------------------------------------------------------------------------

def test_defaults_accessible():
    conf = SparkConf()
    assert conf.get("spark.task.maxFailures") == 4
    assert conf.get("spark.lambda.executor.timeout") is None


def test_override_at_construction():
    conf = SparkConf({"spark.locality.wait": 1.0})
    assert conf.get("spark.locality.wait") == 1.0


def test_unknown_key_rejected_everywhere():
    with pytest.raises(KeyError):
        SparkConf({"spark.made.up": 1})
    # An executor's heap follows from its host; there is no heap key.
    with pytest.raises(KeyError):
        SparkConf({"spark.executor.memory.vm": 8 * GB})
    conf = SparkConf()
    with pytest.raises(KeyError):
        conf.get("spark.made.up")
    with pytest.raises(KeyError):
        conf.set("spark.made.up", 1)


def test_set_is_copy_on_write():
    base = SparkConf()
    derived = base.set("spark.task.maxFailures", 2)
    assert base.get("spark.task.maxFailures") == 4
    assert derived.get("spark.task.maxFailures") == 2


def test_contains_and_items():
    conf = SparkConf()
    assert "spark.locality.wait" in conf
    assert "nope" not in conf
    assert dict(conf.items())["spark.task.maxFailures"] == 4


def test_every_default_key_is_read():
    """A key no code reads can still be set and still changes a spec's
    hash, yet does nothing: every default must be read by a
    ``.get("<key>")`` somewhere in the package outside ``config.py``."""
    package = Path(repro.__file__).parent
    config = package / "spark" / "config.py"
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted(package.rglob("*.py"))
                     if path != config)
    unread = [key for key in DEFAULTS if f'.get("{key}")' not in source]
    assert unread == []


# ---------------------------------------------------------------------------
# Memory / GC model
# ---------------------------------------------------------------------------

def test_usable_heap_is_a_fraction():
    assert usable_heap_bytes(10 * GB) == pytest.approx(6 * GB)
    with pytest.raises(ValueError):
        usable_heap_bytes(0)


def test_no_pressure_when_fits():
    assert pressure_slowdown(1 * GB, 4 * GB) == 1.0


def test_pressure_grows_superlinearly():
    mem = 2 * GB
    mild = pressure_slowdown(1.5 * GB, mem)
    severe = pressure_slowdown(3.0 * GB, mem)
    assert severe > mild > 1.0


def test_pressure_capped():
    assert pressure_slowdown(100 * GB, 1 * GB) == MAX_SLOWDOWN


def test_pressure_validation():
    with pytest.raises(ValueError):
        pressure_slowdown(-1, GB)


def test_aging_only_below_comfortable_heap():
    assert aging_slowdown(COMFORTABLE_HEAP_BYTES, 3600) == 1.0
    assert aging_slowdown(1536 * 1024 ** 2, 3600) > 1.0


def test_aging_grows_with_time_and_tightness():
    lam = 1536 * 1024 ** 2
    assert aging_slowdown(lam, 600) > aging_slowdown(lam, 60)
    smaller = 512 * 1024 ** 2
    assert aging_slowdown(smaller, 600) > aging_slowdown(lam, 600)


def test_aging_validation():
    with pytest.raises(ValueError):
        aging_slowdown(GB, -1)


def test_combined_slowdown_is_product_capped():
    mem = 1536 * 1024 ** 2
    combined = gc_slowdown(2 * GB, mem, 300)
    assert combined == pytest.approx(
        min(MAX_SLOWDOWN,
            pressure_slowdown(2 * GB, mem) * aging_slowdown(mem, 300)))


def test_executor_heap_follows_its_host():
    """A VM executor's heap is its core's share of the VM's memory; a
    Lambda executor's is its container's memory."""
    cluster = MiniCluster()
    [on_vm] = cluster.vm_executors(1, itype="m4.4xlarge")  # 64 GiB, 16 cores
    [on_lambda] = cluster.lambda_executors(1, memory_mb=1536)
    assert on_vm.memory_bytes == 4 * GB
    assert on_lambda.memory_bytes == 1536 * 1024 ** 2
    assert on_vm.vm.free_cores == 15


def test_lambda_vs_vm_gc_asymmetry():
    """The §4.2 motivation in one line: the same task on a Lambda-sized
    heap suffers GC a VM-sized heap does not."""
    working_set = 1.2 * GB
    on_lambda = gc_slowdown(working_set, 1536 * 1024 ** 2, 300)
    on_vm = gc_slowdown(working_set, 8 * GB, 300)
    assert on_vm == 1.0
    assert on_lambda > 1.2
