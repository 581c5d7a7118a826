"""Byte-identity pins for pooled replays.

``golden_scenarios.json`` and ``hotpath_identity.json`` pin single-job
runs and an unplanned FAIR replay; the faulted-run pins are single-job
too. This module pins two pooled shapes that neither covers:

- a planner-split replay (``hybrid_segue`` pool, HDFS shuffle, policy
  ``planner``, admission 4), the shape of perfbench's ``replay-split``,
  at two seeds: Lambda bridges, segue drains and cache-locality
  scheduling over a registry that grows to tens of executors;
- a ``vm`` FAIR replay whose executor kills land after several apps
  have finished, so each ``map_outputs_lost`` count covers finished
  apps' shuffles as well as live ones.

Each pin is the sha256 of the canonical ``RunRecord`` (``wall_time_s``
dropped), ``events_processed`` and the sha256 of the world's event log
(a replay keeps no events, so the test turns its recorder on, which
only stores what the bus publishes). The faulted replay also pins the
sequence of ``map_outputs_lost`` counts, read by a spy on
``TaskScheduler._record``. The event log holds every executor drain of
the split worlds, so it fixes when a drained Lambda is billed and the
order of ``executor_drained`` and ``lambda.finished``. The coverage
tests check that the worlds still exercise what they are here
for, and that the faulted replay's counts include outputs of shuffles
retired when their apps finished. The digests were taken before the scheduler's cached-partition
holder index and the tracker's retirement of finished apps' shuffles,
and must not move.
"""

import hashlib
import json

import pytest

from repro.cluster import multijob
from repro.cluster.apps import AppManager
from repro.cluster.runtime import ClusterRuntime
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.observability.categories import EV_MAP_OUTPUTS_LOST
from repro.spark.executor import HostKind
from repro.spark.shuffle import MapOutputTracker
from repro.spark.task_scheduler import TaskScheduler

#: perfbench's ``replay-split`` world at 12 jobs.
SPLIT_EXTRA = {"mix": "sparkpi,pagerank-small", "n_jobs": 12,
               "mean_interarrival_s": 90.0, "pool_cores": 8,
               "pool_style": "hybrid_segue", "lambda_cores": 8,
               "mode": "fair", "max_concurrent": 4}

#: The faulted FAIR replay: pagerank jobs finish from ~180 s on, so the
#: kills at 215 s and later find finished apps' map outputs.
FAULTED_EXTRA = {"mix": "sparkpi,pagerank-small", "n_jobs": 10,
                 "mean_interarrival_s": 20.0, "pool_cores": 8,
                 "pool_style": "vm", "mode": "fair", "max_concurrent": 0}
FAULTS = (
    {"kind": "executor_kill", "at_s": 215.0},
    {"kind": "executor_kill", "at_s": 260.0, "count": 2},
    {"kind": "executor_kill", "at_s": 1300.0},
)

SPECS = {
    "split-s0": ExperimentSpec(workload="multijob", scenario="multijob",
                               seed=0, extra=SPLIT_EXTRA,
                               policy={"name": "planner"}),
    "split-s2": ExperimentSpec(workload="multijob", scenario="multijob",
                               seed=2, extra=SPLIT_EXTRA,
                               policy={"name": "planner"}),
    "fair-faulted-s0": ExperimentSpec(workload="multijob",
                                      scenario="multijob", seed=0,
                                      extra=FAULTED_EXTRA, faults=FAULTS),
}

#: (sha256 of the canonical record, events_processed, sha256 of the
#: event log) per world.
PINNED = {
    "split-s0": (
        "621dee92e9c9a32799bb4b215ad0928cec1d675a80888babc70229010c8ee7a5",
        19397,
        "0eddea66c370638193f2886c148d3241a832f574cf4ef6327dce50c474ad863c"),
    "split-s2": (
        "ed826d1a4e5d4a22ed5863a62d9ada96b72d22075aca8bef2a2db572723b4a8b",
        19142,
        "ee2f5fe194064db8fb992cb780d2fed332594f09f2adeccb125861a00c9004bb"),
    "fair-faulted-s0": (
        "5caab27de49fdbef29ec7e0ad47dd6fbdbcc87836406e12ebae9b431210b6d17",
        6146,
        "e5b0373f0f79e026ca69079e57f80e546b66ac9fe982aae47443a5eafa9d023a"),
}

#: ``map_outputs_lost`` counts of the faulted replay, in event order.
PINNED_LOSSES = [29, 28, 19, 97]


class _Run:
    """One pinned world's record plus what the spies saw."""

    def __init__(self, record, events, losses, finished_at_loss,
                 retired_removed, drains):
        self.record = record
        #: The world's event log, as ``[time, category, name, fields]``.
        self.events = events
        #: ``map_outputs_lost`` counts, in event order.
        self.losses = losses
        #: Apps finished when each of those events fired.
        self.finished_at_loss = finished_at_loss
        #: Retired outputs each tracker removal dropped.
        self.retired_removed = retired_removed
        #: (host kind, cached partitions held) per drained executor.
        self.drains = drains


_RUNS = {}


def _run(case):
    if case in _RUNS:
        return _RUNS[case]
    losses, finished_at_loss, retired_removed, drains = [], [], [], []
    finished, worlds = [], []
    patch = pytest.MonkeyPatch()
    remove_outputs = MapOutputTracker.remove_outputs_on_executor
    record_event = TaskScheduler._record
    finalize = TaskScheduler._finalize_drained
    on_complete = AppManager._on_complete

    def spy_record(scheduler, event, **fields):
        if event == EV_MAP_OUTPUTS_LOST:
            losses.append(fields["count"])
            finished_at_loss.append(len(finished))
        record_event(scheduler, event, **fields)

    class RecordingRuntime(ClusterRuntime):
        def __init__(self, seed, trace_enabled=False, faults=()):
            super().__init__(seed, trace_enabled=True, faults=faults)
            worlds.append(self)

    def spy_remove(tracker, executor_id):
        retired_removed.append(tracker._retired.get(executor_id, 0))
        return remove_outputs(tracker, executor_id)

    def spy_finalize(scheduler, executor):
        drains.append((executor.kind, len(executor._cache)))
        finalize(scheduler, executor)

    def spy_complete(manager, app):
        finished.append(app.app_id)
        on_complete(manager, app)

    patch.setattr(multijob, "ClusterRuntime", RecordingRuntime)
    patch.setattr(MapOutputTracker, "remove_outputs_on_executor",
                  spy_remove)
    patch.setattr(TaskScheduler, "_record", spy_record)
    patch.setattr(TaskScheduler, "_finalize_drained", spy_finalize)
    patch.setattr(AppManager, "_on_complete", spy_complete)
    try:
        record = run_spec(SPECS[case])
    finally:
        patch.undo()
    assert record.error is None and not record.failed, record.failure_reason
    [world] = worlds
    events = [[row.time, row.category, row.name, row.fields]
              for row in world.recorder.records]
    _RUNS[case] = _Run(record, events, losses, finished_at_loss,
                       retired_removed, drains)
    return _RUNS[case]


def _digest(data) -> str:
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(SPECS))
def test_pooled_replay_matches_pin(case):
    run = _run(case)
    record_pin, events_processed, events_pin = PINNED[case]
    assert run.record.metrics["events_processed"] == events_processed
    assert _digest(run.record.canonical()) == record_pin, (
        f"{case}: the pooled replay's record drifted from its pin")
    assert _digest(run.events) == events_pin, (
        f"{case}: the pooled replay's event log drifted from its pin")


def test_faulted_replay_loses_pinned_output_counts():
    assert _run("fair-faulted-s0").losses == PINNED_LOSSES


def test_faulted_kills_land_after_apps_finished():
    run = _run("fair-faulted-s0")
    assert len(run.losses) >= 3
    assert min(run.finished_at_loss) >= 2, run.finished_at_loss
    assert all(run.retired_removed), run.retired_removed


@pytest.mark.parametrize("case", ["split-s0", "split-s2"])
def test_split_worlds_drain_lambdas_holding_cached_partitions(case):
    drains = _run(case).drains
    lambda_drains = [held for kind, held in drains if kind is HostKind.LAMBDA]
    assert lambda_drains, "no Lambda executor drained"
    assert any(held > 0 for held in lambda_drains), (
        "no drained Lambda executor held a cached partition")
