"""Byte-identity pins for faulted batch runs.

The golden scenarios and ``tests/goldens/hotpath_identity.json`` are all
fault-free, so they say nothing about the fault injector. This module
pins, for three ``repro run --faults`` invocations, the sha256 of the
full ``--events-out`` JSONL log and of the canonical ``--json`` record
(``wall_time_s`` dropped). Between them the three plans fire all six
fault kinds, all three trigger types (``at_s``, ``on_event`` on every
scheduler counter, and the probabilistic invoke gate), and every lift
(``throttle_end``, ``brownout_end``, ``straggler_end``); the coverage
test below checks that the event logs really contain them, so a plan
that stops exercising a path fails loudly rather than pinning less.

The digests were taken before the batch and live-server fault paths
were folded into one interpreter, and must not move: an intentional
change to the fault model is the only reason to update them.
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.experiments.records import read_jsonl
from repro.observability.categories import (
    CAT_FAULT,
    EV_BROWNOUT_END,
    EV_BROWNOUT_START,
    EV_EXECUTOR_KILLED,
    EV_INVOKE_FAILED,
    EV_STRAGGLER_END,
    EV_STRAGGLER_START,
    EV_THROTTLE_END,
    EV_THROTTLE_START,
    EV_VM_REVOKED,
)

#: (workload, scenario, seed, fault plan) per pinned run.
CASES = {
    "sparkpi-ss_hybrid-s1": ("sparkpi", "ss_hybrid", 1, [
        {"kind": "executor_kill", "at_s": 5.0, "count": 2},
        {"kind": "lambda_throttle", "at_s": 1.0, "limit": 2,
         "duration_s": 6.0},
        {"kind": "lambda_throttle", "at_s": 20.0, "limit": 4},
        {"kind": "lambda_invoke_failure", "probability": 0.3, "at_s": 0.0,
         "duration_s": 15.0},
        {"kind": "straggler", "at_s": 3.0, "count": 2, "factor": 4.0,
         "duration_s": 8.0},
        {"kind": "straggler", "on_event": "tasks_finished:20",
         "target": "lambda", "factor": 2.0},
    ]),
    "pagerank-small-ss_hybrid_segue-s2": (
        "pagerank-small", "ss_hybrid_segue", 2, [
            {"kind": "storage_brownout", "at_s": 0.5, "target": "storage:*",
             "factor": 3.0, "duration_s": 1.5},
            {"kind": "storage_brownout", "at_s": 3.0, "target": "storage:*",
             "factor": 1.5},
            {"kind": "spot_revocation", "at_s": 2.5, "target": "any"},
            {"kind": "executor_kill", "on_event": "tasks_finished:10",
             "target": "vm"},
            {"kind": "executor_kill", "on_event": "executor_lost:1",
             "target": "lambda"},
        ]),
    "kmeans-ss_R_vm-s0": ("kmeans", "ss_R_vm", 0, [
        {"kind": "spot_revocation", "at_s": 10.0, "target": "vm:*"},
        {"kind": "straggler", "at_s": 5.0, "count": 3, "factor": 3.0,
         "duration_s": 20.0},
        {"kind": "executor_kill", "on_event": "taskset_complete:1"},
    ]),
}

#: sha256 of (event log, canonical record) per case.
PINNED = {
    "sparkpi-ss_hybrid-s1": (
        "f7bcc62ef5dde48b3cabe9e1820885841c6cacf8c6324e552e05ebe633d6c015",
        "8e69b5c57b57b4cb18baf6cd63016e71059b6d56481342d9d3b5687d89c8d74d"),
    "pagerank-small-ss_hybrid_segue-s2": (
        "c8b7973ce8ad89d4021c9068efdeb7f788b9ff89b4b08db3e286ad3580e2d4bf",
        "4bdd9de61517c6386a5471be1f939faafd8e092c3fea31e46fbbd8b1aef18b80"),
    "kmeans-ss_R_vm-s0": (
        "b4b116e7d6a241aae804f9e8d8c5d8e3d4e404c0b683c50da10af53b8ace4924",
        "1a20a450df903072b355fb71558336dc9b17512d9ef896ef8537daf148fe4790"),
}


def _faulted_run(case):
    """(event-log bytes, canonical record JSON) of one pinned run."""
    workload, scenario, seed, plan = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        events = pathlib.Path(tmp) / "events.jsonl"
        record = pathlib.Path(tmp) / "record.jsonl"
        rc = main(["run", "--workload", workload, "--scenario", scenario,
                   "--seed", str(seed), "--faults", json.dumps(plan),
                   "--events-out", str(events), "--json", str(record)])
        assert rc == 0
        [rec] = read_jsonl(str(record))
        return (events.read_bytes(),
                json.dumps(rec.canonical(), sort_keys=True))


_RUNS = {}


def _run(case):
    if case not in _RUNS:
        _RUNS[case] = _faulted_run(case)
    return _RUNS[case]


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_faulted_run_matches_pin(case):
    events, record = _run(case)
    events_pin, record_pin = PINNED[case]
    assert _sha256(events) == events_pin, (
        f"{case}: the faulted event log drifted from its pin")
    assert _sha256(record) == record_pin, (
        f"{case}: the faulted RunRecord drifted from its pin")


def test_pinned_plans_fire_every_kind_and_lift():
    fired = set()
    for case in CASES:
        events, _ = _run(case)
        for line in events.decode("utf-8").splitlines():
            event = json.loads(line)
            if event["category"] == CAT_FAULT:
                fired.add(event["name"])
    assert {EV_EXECUTOR_KILLED, EV_VM_REVOKED, EV_THROTTLE_START,
            EV_THROTTLE_END, EV_BROWNOUT_START, EV_BROWNOUT_END,
            EV_STRAGGLER_START, EV_STRAGGLER_END,
            EV_INVOKE_FAILED} <= fired, sorted(fired)
