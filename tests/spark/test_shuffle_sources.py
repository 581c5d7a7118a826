"""Differential test of the map-output tracker and the local shuffle fetch.

``MapOutputTracker`` rejects a registration outside a shuffle's declared
maps, so a reducer's completeness check is a count check, and
``LocalShuffleBackend.fetch`` probes each source executor's liveness
once, at its first status, instead of once per status. Generated
register/overwrite/remove sequences over executors on 1–3 VM hosts plus
Lambdas check after every step that:

- the registered count equals the statuses', and the first missing
  partition equals a scan over them;
- ``fetch`` issues the same transfers as the per-status walk it replaced
  (kept here as the reference): same hosts in the same order, same
  links, bit-equal byte totals;
- with a lost or dead source, both raise ``FetchFailedError`` for the
  same map partition.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import network
from repro.spark.shuffle import (
    FetchFailedError,
    LocalShuffleBackend,
    MapOutputTracker,
    MapStatus,
)
from tests.spark.helpers import MiniCluster

SHUFFLE = 0


def reference_fetch(reducer, total_bytes, statuses, executors):
    """The per-status walk ``fetch`` replaced: (links, bytes) per host."""
    slice_bytes = total_bytes / max(1, len(statuses))
    per_host = {}
    for status in statuses:
        source = executors.get(status.executor_id)
        if source is None or not source.host_alive:
            raise FetchFailedError(SHUFFLE, status.map_partition,
                                   f"executor {status.executor_id} lost")
        entry = per_host.setdefault(source.host_name, [source, 0.0])
        entry[1] += slice_bytes
    transfers = []
    for source, nbytes in per_host.values():
        if source is reducer or source.same_host(reducer):
            links = source.disk_links()
        else:
            links = [*source.disk_links(), *source.net_links(),
                     *reducer.net_links()]
        transfers.append((tuple(links), nbytes.hex()))
    return transfers


def kept_fetch(reducer, total_bytes, tracker, executors, monkeypatch):
    """Transfers ``LocalShuffleBackend.fetch`` issues, in order."""
    transfers = []

    def recorded(env, links, nbytes):
        transfers.append((tuple(links), nbytes.hex()))
        return None

    monkeypatch.setattr(network, "transfer_via", recorded)
    for _ in LocalShuffleBackend().fetch(reducer, SHUFFLE, 0, total_bytes, 4,
                                         tracker, executors):
        pass
    return transfers


def outcome(run):
    try:
        return ("ok", run())
    except FetchFailedError as exc:
        return ("failed", exc.map_partition, str(exc))


class Sequence:
    """A mini cluster, a tracker over one shuffle, and the checks."""

    def __init__(self, vm_hosts, lambdas, num_maps):
        cluster = MiniCluster()
        self.executors = []
        for cores in vm_hosts:
            self.executors += cluster.vm_executors(cores, itype="m4.xlarge")
        self.executors += cluster.lambda_executors(lambdas)
        self.registry = dict(cluster.driver.task_scheduler.executors)
        self.tracker = MapOutputTracker()
        self.tracker.register_shuffle(SHUFFLE, num_maps)
        self.num_maps = num_maps

    def apply(self, op, index, partition):
        executor = self.executors[index % len(self.executors)]
        if op == "register":
            self.tracker.register(MapStatus(
                SHUFFLE, partition % self.num_maps, executor.executor_id,
                1.0))
        elif op == "remove":
            self.tracker.remove_outputs_on_executor(executor.executor_id)
        elif op == "kill":
            executor.kill("test kill")
        elif op == "forget":
            self.registry.pop(executor.executor_id, None)

    def check(self, reducer_index, total_bytes, monkeypatch):
        tracker = self.tracker
        statuses = tracker.statuses(SHUFFLE)
        assert tracker.output_count(SHUFFLE) == len(statuses)
        have = {status.map_partition for status in statuses}
        missing = [p for p in range(self.num_maps) if p not in have]
        assert tracker.first_missing_partition(SHUFFLE) == (
            missing[0] if missing else None)
        reducer = self.executors[reducer_index % len(self.executors)]
        want = outcome(lambda: reference_fetch(reducer, total_bytes,
                                               statuses, self.registry))
        got = outcome(lambda: kept_fetch(reducer, total_bytes, tracker,
                                         self.registry, monkeypatch))
        assert got == want


def run_sequence(setup, ops, monkeypatch):
    vm_hosts, lambdas, num_maps, total_bytes = setup
    sequence = Sequence(vm_hosts, lambdas, num_maps)
    for op, index, partition, reducer_index in ops:
        sequence.apply(op, index, partition)
        sequence.check(reducer_index, total_bytes, monkeypatch)


setups = st.tuples(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1,
             max_size=3),                                  # VM hosts
    st.integers(min_value=0, max_value=3),                 # Lambdas
    st.integers(min_value=1, max_value=12),                # map outputs
    # 1e9 over 6+ outputs on one host is where adding a slice per output
    # and multiplying the slice first part ways in the last bit.
    st.one_of(st.just(1e9), st.floats(min_value=1.0, max_value=1e10)))
ops = st.lists(st.tuples(
    st.sampled_from(("register",) * 6 + ("remove", "kill", "forget")),
    st.integers(min_value=0, max_value=11),                # executor
    st.integers(min_value=0, max_value=11),                # partition
    st.integers(min_value=0, max_value=11)),               # reducer
    min_size=1, max_size=30)


@given(setup=setups, ops=ops)
@settings(max_examples=150, deadline=None)
def test_count_and_fetch_match_the_status_walk(setup, ops):
    with pytest.MonkeyPatch.context() as monkeypatch:
        run_sequence(setup, ops, monkeypatch)


def test_host_totals_add_one_slice_per_output(monkeypatch):
    """Six outputs on one executor: the host total is six additions of
    the slice, not six times the slice (they differ in the last bit)."""
    ops = [("register", 0, partition, 1) for partition in range(6)]
    run_sequence(([1, 1], 0, 6, 1e9), ops, monkeypatch)


def test_registration_outside_the_declared_maps_is_rejected():
    tracker = MapOutputTracker()
    tracker.register_shuffle(SHUFFLE, 2)
    for partition in (-1, 2):
        with pytest.raises(ValueError):
            tracker.register(MapStatus(SHUFFLE, partition, "e", 1.0))
    with pytest.raises(ValueError):
        tracker.register(MapStatus(SHUFFLE + 1, 0, "e", 1.0))
    assert tracker.output_count(SHUFFLE) == 0


def fetch_probing_each_host_once(self, executor, shuffle_id,
                                 reduce_partition, total_bytes, num_reducers,
                                 tracker, executors):
    """A planted defect: liveness is probed at a host's first status only,
    so a dead executor whose host-mate is alive goes unnoticed."""
    statuses = tracker.outputs(shuffle_id)
    slice_bytes = total_bytes / max(1, len(statuses))
    per_host = {}
    for status in statuses:
        source = executors.get(status.executor_id)
        if source is None:
            raise FetchFailedError(shuffle_id, status.map_partition, "lost")
        entry = per_host.get(source.host_name)
        if entry is None:
            if not source.host_alive:
                raise FetchFailedError(shuffle_id, status.map_partition,
                                       "lost")
            entry = per_host[source.host_name] = [source, 0.0]
        entry[1] += slice_bytes
    for source, nbytes in per_host.values():
        if source is executor or source.same_host(executor):
            links = source.disk_links()
        else:
            links = [*source.disk_links(), *source.net_links(),
                     *executor.net_links()]
        yield network.transfer_via(executor.env, links, nbytes)


def test_check_catches_a_liveness_probe_per_host(monkeypatch):
    """The gate must not be vacuous: each executor's liveness must be
    probed, not only the first one met on each host."""
    monkeypatch.setattr(LocalShuffleBackend, "fetch",
                        fetch_probing_each_host_once)
    # One VM host with two executors; the second dies, the first lives.
    ops = [("register", 0, 0, 0), ("register", 1, 1, 0), ("kill", 1, 0, 0)]
    with pytest.raises(AssertionError):
        run_sequence(([2], 0, 2, 1e6), ops, monkeypatch)
