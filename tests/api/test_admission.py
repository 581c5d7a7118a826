"""Admission-control semantics: queue, FIFO drain, 503 backpressure.

The satellite contract for the control plane:

- submissions beyond ``max_concurrent`` are *queued*, never dropped;
- the queue drains in FIFO order as running slots free up;
- beyond ``max_queue`` the service sheds load with a structured 503
  whose body comes from the shared schema module;
- the AppManager applies the same queue-don't-drop discipline to
  pooled jobs inside the simulation;
- a finished pooled job keeps only its summary, so a long-lived
  service does not grow with every job it has served.

Jobs here run a ``custom:`` scenario gated on a threading.Event, so
saturation is constructed deterministically rather than raced.
"""

import threading

import pytest

from repro.api import schemas
from repro.api.app import create_app
from repro.api.service import (
    BackpressureError,
    ServeConfig,
    ServeRuntime,
)
from repro.api.testclient import TestClient
from repro.observability.categories import CAT_SERVE, EV_JOB_STARTED

#: Gates the blocking jobs wait on, keyed by test-chosen name so
#: concurrent tests cannot release each other's jobs.
_GATES = {}


def _gate(name: str) -> threading.Event:
    return _GATES.setdefault(name, threading.Event())


def blocking_job(spec):
    """``custom:`` scenario body: hold a running slot until released."""
    gate = _GATES[dict(spec.extra)["gate"]]
    assert gate.wait(timeout=30.0), "gate never released"
    return {"workload": "blocker", "duration_s": 1.0, "cost": 0.0}


def _request(seed: int, gate: str) -> dict:
    return {"workload": "blocker",
            "scenario": "custom:tests.api.test_admission:blocking_job",
            "seed": seed, "extra": {"gate": gate}}


@pytest.mark.smoke
def test_saturation_queues_fifo_then_rejects():
    gate = _gate("saturation")
    service = ServeRuntime(ServeConfig(max_concurrent=2,
                                       max_queue=2)).start()
    try:
        statuses = [service.submit(_request(i, "saturation"))
                    for i in range(4)]
        # Two run, two queue — in order, with live queue positions.
        assert [s.state for s in statuses] == [
            schemas.JOB_RUNNING, schemas.JOB_RUNNING,
            schemas.JOB_QUEUED, schemas.JOB_QUEUED]
        assert statuses[2].queue_position == 0
        assert statuses[3].queue_position == 1
        stats = service.admission_stats()
        assert (stats["running"], stats["queued"]) == (2, 2)

        # The fifth submission is shed with structured backpressure,
        # not silently queued or dropped.
        with pytest.raises(BackpressureError) as exc_info:
            service.submit(_request(4, "saturation"))
        assert exc_info.value.detail == {
            "running": 2, "queued": 2,
            "max_concurrent": 2, "max_queue": 2}
        assert exc_info.value.retry_after_s > 0

        # Release the gate: every admitted job completes (none dropped)...
        gate.set()
        assert service.drain(timeout=30.0)
        stats = service.admission_stats()
        assert stats["finished"] == 4
        assert stats["rejected"] == 1
        for s in statuses:
            final = service.job(s.job_id)
            assert final.state == schemas.JOB_COMPLETED, final.error

        # ...and the queue drained in FIFO order (started events are
        # recorded under the admission lock, so this is deterministic).
        started = [e["fields"]["job"]
                   for e in service.hub.snapshot(category=CAT_SERVE)
                   if e["name"] == EV_JOB_STARTED]
        assert started == [s.job_id for s in statuses]
    finally:
        gate.set()
        service.close()


def test_http_503_returns_structured_error_body():
    gate = _gate("http503")
    config = ServeConfig(max_concurrent=1, max_queue=1)
    try:
        with TestClient(create_app(config)) as client:
            first = client.post("/jobs", json=_request(0, "http503"))
            second = client.post("/jobs", json=_request(1, "http503"))
            assert first.status == second.status == 202

            shed = client.post("/jobs", json=_request(2, "http503"))
            assert shed.status == 503
            env = shed.envelope()
            assert env.kind == schemas.KIND_ERROR
            assert env.data["code"] == schemas.ERR_BACKPRESSURE
            assert "saturated" in env.data["message"]
            assert env.data["detail"] == {
                "running": 1, "queued": 1,
                "max_concurrent": 1, "max_queue": 1}
            # Retry-After is deterministically jittered (derived from
            # the submission's identity, never ``random``) so shed
            # clients spread across [0.5, 2.0) instead of stampeding
            # back in lockstep.
            assert 0.5 <= env.data["retry_after_s"] < 2.0
            assert shed.headers["retry-after"] == str(
                max(0, int(round(env.data["retry_after_s"]))))

            gate.set()
            done = client.get(f"/jobs/{first.data['job_id']}",
                              params={"wait": 30})
            assert done.data["state"] == schemas.JOB_COMPLETED
    finally:
        gate.set()


def test_app_manager_queues_pooled_jobs_beyond_limit():
    service = ServeRuntime(ServeConfig(max_concurrent=8, max_queue=8,
                                       pool_max_concurrent=1,
                                       pool_cores=4)).start()
    try:
        statuses = [service.submit({"workload": "sparkpi",
                                    "mode": "pooled", "seed": i})
                    for i in range(3)]
        assert service.drain(timeout=60.0)
        finals = [service.job(s.job_id) for s in statuses]
        for final in finals:
            assert final.state == schemas.JOB_COMPLETED, final.error
        # With one in-sim slot, the later arrivals queued inside the
        # AppManager (queued, not dropped) and accrued queueing delay.
        delays = [f.metrics["queueing_delay_s"] for f in finals]
        assert sum(1 for d in delays if d > 0) >= 2
        snapshot = service.pool_stats()["manager"]
        assert snapshot["finished"] == 3
        assert snapshot["max_concurrent"] == 1
        assert snapshot["queued"] == 0
    finally:
        service.close()


def test_finished_pooled_jobs_keep_only_their_summary():
    service = ServeRuntime(ServeConfig(max_concurrent=2, max_queue=4,
                                       pool_cores=4)).start()
    try:
        statuses = [service.submit({"workload": "sparkpi",
                                    "mode": "pooled", "seed": i})
                    for i in range(2)]
        assert service.drain(timeout=60.0)
        for status in statuses:
            assert service.job(status.job_id).state == schemas.JOB_COMPLETED
            job = service._jobs[status.job_id]
            app = job.app
            assert app.job is None and app.driver is None
            assert app.result is not None and app.result.num_tasks > 0
            assert job.metrics["busy_seconds"] == app.busy_seconds > 0
    finally:
        service.close()
