"""Byte-identity pins for worlds with ``spark.lambda.executor.timeout``
set and speculation on.

No golden scenario, faulted-run pin or pooled pin sets the Lambda
timeout, so none of them sees the task scheduler drain an overdue Lambda
executor during an offer round. This module pins two worlds that do,
one per dispatch loop:

- a single-driver SplitServe run (``pagerank`` ``ss_hybrid_segue``,
  segue VMs at 25 s), whose Lambdas pass the 10 s timeout while tasks
  are pending, so the greedy offer loop drains them;
- a planner-free ``hybrid_segue`` multijob replay on a FAIR pool, whose
  Lambdas pass the timeout long before the segue VMs come up, so the
  per-launch pooled loop drains them; a straggler fault keeps
  speculative copies in flight.

Each pin is the sha256 of the canonical ``RunRecord`` (``wall_time_s``
dropped) and of the world's event log as
``[time, category, name, fields]`` rows. The digests were taken before
the timeout drain moved out of the free-executor scan, and must not
move. The coverage test checks that both worlds still drain Lambdas on
the timeout and launch speculative copies.
"""

import hashlib
import json

import pytest

from repro.cluster import multijob
from repro.cluster.runtime import ClusterRuntime
from repro.core import run_scenario
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.observability.categories import (
    CAT_SCHEDULER,
    EV_EXECUTOR_DRAINED,
    EV_SPECULATIVE_LAUNCH,
)

TIMEOUT_S = 10.0

CONF = {"spark.lambda.executor.timeout": TIMEOUT_S,
        "spark.speculation": True,
        "spark.speculation.quantile": 0.5,
        "spark.speculation.multiplier": 1.2}

SINGLE = ExperimentSpec("pagerank", "ss_hybrid_segue", seed=0,
                        segue_at_s=25.0, conf_overrides=CONF)

POOLED = ExperimentSpec(
    workload="multijob", scenario="multijob", seed=0,
    extra={"mix": "sparkpi,pagerank-small", "n_jobs": 8,
           "mean_interarrival_s": 10.0, "pool_cores": 4,
           "pool_style": "hybrid_segue", "lambda_cores": 8,
           "mode": "fair", "max_concurrent": 0},
    conf_overrides=CONF,
    faults=[{"kind": "straggler", "at_s": 0.0, "count": 2, "factor": 4.0}])

#: (sha256 of the canonical record, sha256 of the event log) per world.
PINNED = {
    "single": (
        "3d5ca6b88b35110b39014e1890ece01a0b849071e800506f721420bd1183fb42",
        "bdfbcfb418212d3abb1cde77743b22b489538bf93a64c0bd6bb78eaf51cddefb"),
    "pooled": (
        "e327b1e3512522dde3e56de264df73dccd75e0e26d15df8cf564ae63e3915bf3",
        "ddf8012af924bb56a5cc1e7d28590a1319d68d112e7da4912888dbe5e48f49ba"),
}

#: Sim time before which no segue VM of the world is up, so every drain
#: before it is a timeout drain.
SEGUE_READY_S = {"single": 25.0, "pooled": 120.0}


def _rows(recorder):
    return [[row.time, row.category, row.name, row.fields]
            for row in recorder.records]


def _run_single():
    record = run_scenario(SINGLE, keep_trace=True)
    return record, _rows(record.trace)


def _run_pooled():
    worlds = []

    class RecordingRuntime(ClusterRuntime):
        def __init__(self, seed, trace_enabled=False, faults=()):
            super().__init__(seed, trace_enabled=True, faults=faults)
            worlds.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multijob, "ClusterRuntime", RecordingRuntime)
        record = run_spec(POOLED)
    assert record.error is None, record.error
    [world] = worlds
    return record, _rows(world.recorder)


_RUNS = {}


def _run(case):
    if case not in _RUNS:
        _RUNS[case] = {"single": _run_single, "pooled": _run_pooled}[case]()
    return _RUNS[case]


def _digest(data) -> str:
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_timeout_world_matches_pin(case):
    record, events = _run(case)
    assert not record.failed, record.failure_reason
    record_pin, events_pin = PINNED[case]
    assert _digest(record.canonical()) == record_pin, (
        f"{case}: the timeout world's record drifted from its pin")
    assert _digest(events) == events_pin, (
        f"{case}: the timeout world's event log drifted from its pin")


@pytest.mark.parametrize("case", sorted(PINNED))
def test_timeout_worlds_drain_on_the_timeout_and_speculate(case):
    _record, events = _run(case)
    drains = [time for time, category, name, _fields in events
              if category == CAT_SCHEDULER and name == EV_EXECUTOR_DRAINED]
    speculative = [row for row in events
                   if row[1] == CAT_SCHEDULER
                   and row[2] == EV_SPECULATIVE_LAUNCH]
    assert any(TIMEOUT_S <= time < SEGUE_READY_S[case] for time in drains), (
        drains)
    assert speculative
