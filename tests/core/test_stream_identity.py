"""Byte-identity pins for the two stream simulators.

The §4.1 day-of-jobs stream (:class:`JobStreamSimulator`, reached through
the ``stream`` scenario) and the §7 micro-batch pipeline
(:class:`MicroBatchSimulator`) run outside the scenario goldens, so these
digests pin them on their own: the canonical stream ``RunRecord`` and the
micro-batch outcome (every batch record, the Lambda bill, and the clock
where the run stopped). A change to how either simulator builds or
drives its world must leave both unchanged.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.microbatch import MicroBatchSimulator
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec

#: sha256 of the canonical stream RunRecord, by seed.
STREAM_RECORD_SHA256 = {
    0: "88668e5443de9a6a000d33f75b22ae1459e71b16cb2c2781361d5027fe02d1f3",
    7: "3b96a287237d004d0aab24a9d985509168d4fd858a8a7cb1f384cf32ff3bb755",
}

#: sha256 of the micro-batch outcome, by (bridge, seed).
MICROBATCH_OUTCOME_SHA256 = {
    ("none", 0):
        "3062a269f84104775cec31562fcfb887b07669383a217907a12c94c2d2322369",
    ("lambda", 0):
        "e45bcbbad7bb279d698ae6421e9d266192ef1680aa8b5dcd23e5dabed4ae0f2b",
    ("lambda", 7):
        "b628418f3459c2deb69b26eca3e0b0b27aa0f9e2dae1d0df672cc2791b08bf8a",
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _bursty_rate(t: float) -> float:
    return 200_000.0 if 30.0 <= t < 60.0 else 20_000.0


def stream_record_digest(seed: int) -> str:
    spec = ExperimentSpec(workload="diurnal", scenario="stream", seed=seed,
                          extra={"hours": 0.5, "k": 1.0})
    return _sha256(run_spec(spec).canonical())


def microbatch_outcome_digest(bridge: str, seed: int) -> str:
    sim = MicroBatchSimulator(_bursty_rate, vm_cores=4,
                              batch_interval_s=10.0, bridge=bridge,
                              seed=seed)
    outcome = sim.run(120.0)
    return _sha256({"outcome": dataclasses.asdict(outcome),
                    "now": sim.env.now})


@pytest.mark.parametrize("seed", sorted(STREAM_RECORD_SHA256))
def test_stream_record_is_pinned(seed):
    assert stream_record_digest(seed) == STREAM_RECORD_SHA256[seed]


@pytest.mark.parametrize("bridge,seed", sorted(MICROBATCH_OUTCOME_SHA256))
def test_microbatch_outcome_is_pinned(bridge, seed):
    assert (microbatch_outcome_digest(bridge, seed)
            == MICROBATCH_OUTCOME_SHA256[bridge, seed])
