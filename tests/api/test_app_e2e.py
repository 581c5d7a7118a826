"""End-to-end control-plane tests over the in-process test client.

No sockets: the :class:`~repro.api.testclient.TestClient` calls
``App.handle`` on the app :func:`~repro.api.app.create_app` builds,
runs its startup and shutdown hooks, and reads SSE streams to their
end. Everything is seed-deterministic; the byte-match test pins the
contract that a served spec job's results are identical to the same
spec run through ``repro run --json``.
"""

import json

import pytest

from repro.api import schemas
from repro.api.app import create_app
from repro.api.service import ServeConfig
from repro.api.testclient import TestClient
from repro.observability.categories import CAT_SERVE


@pytest.fixture()
def client():
    config = ServeConfig(max_concurrent=4, max_queue=8, seed=0,
                         pool_cores=4)
    with TestClient(create_app(config)) as c:
        yield c


def _submit_and_wait(client, payload, timeout_s=60):
    r = client.post("/jobs", json=payload)
    assert r.status == 202, r.text
    job_id = r.data["job_id"]
    done = client.get(f"/jobs/{job_id}", params={"wait": timeout_s})
    assert done.status == 200
    return done.data


# ---------------------------------------------------------------------------
# The submit -> status -> events happy path
# ---------------------------------------------------------------------------

@pytest.mark.smoke
def test_submit_status_events_end_to_end(client):
    info = client.get("/")
    assert info.envelope().kind == schemas.KIND_SERVICE_INFO
    assert "/jobs" in info.data["endpoints"]

    r = client.post("/jobs", json={"workload": "sparkpi",
                                   "scenario": "spark_R_vm", "seed": 1})
    assert r.status == 202
    env = r.envelope()
    assert env.kind == schemas.KIND_JOB_STATUS
    job_id = env.data["job_id"]
    assert env.data["state"] in (schemas.JOB_QUEUED, schemas.JOB_RUNNING)
    assert env.data["spec_hash"]

    done = client.get(f"/jobs/{job_id}", params={"wait": 60})
    status = schemas.JobStatus.from_dict(done.data)
    assert status.state == schemas.JOB_COMPLETED, status.error
    assert status.duration_s > 0
    assert status.cost > 0
    assert status.record["workload"] == "sparkpi"

    listing = client.get("/jobs")
    assert listing.envelope().kind == schemas.KIND_JOB_LIST
    assert [j["job_id"] for j in listing.data["jobs"]] == [job_id]
    assert listing.data["admission"]["finished"] == 1

    # The lifecycle landed on the event hub, in order.
    snap = client.get("/events", params={"follow": 0,
                                         "category": CAT_SERVE})
    assert snap.envelope().kind == schemas.KIND_EVENTS
    names = [e["name"] for e in snap.data["events"]]
    assert names == ["job_queued", "job_started", "job_finished"]

    # And the same events stream over SSE (replayed from the ring).
    stream = client.get("/events", params={"replay": 20, "max_events": 3,
                                           "category": CAT_SERVE})
    assert stream.headers["content-type"].startswith("text/event-stream")
    events = stream.sse_events()
    assert len(events) == 3
    assert [e["data"]["name"] for e in events] == names
    assert [e["event"] for e in events] == [CAT_SERVE] * 3
    # SSE ids carry the hub sequence for resumption.
    assert [int(e["id"]) for e in events] == sorted(
        int(e["id"]) for e in events)


def test_served_job_byte_matches_cli_run(client, tmp_path):
    """The tentpole determinism contract: POST /jobs with a fixed seed
    returns the same RunRecord, byte for byte (minus wall time), as
    ``repro run --json`` for the same spec."""
    from repro.cli import main

    status = _submit_and_wait(client, {"workload": "sparkpi",
                                       "scenario": "ss_hybrid", "seed": 5})
    assert status["state"] == schemas.JOB_COMPLETED

    out = tmp_path / "cli.jsonl"
    assert main(["run", "--workload", "sparkpi", "--scenario", "ss_hybrid",
                 "--seed", "5", "--json", str(out)]) == 0
    [line] = out.read_text().strip().splitlines()
    row = json.loads(line)
    assert schemas.is_envelope(row)
    cli_record = schemas.unwrap_record(row)

    served = dict(status["record"])
    served.pop("wall_time_s")
    cli_record.pop("wall_time_s")
    assert schemas.dumps(served) == schemas.dumps(cli_record)
    assert status["metrics"] == cli_record["metrics"]


def test_pooled_job_joins_shared_cluster(client):
    status = _submit_and_wait(client, {"workload": "sparkpi",
                                       "mode": "pooled", "seed": 2})
    assert status["state"] == schemas.JOB_COMPLETED, status["error"]
    assert status["metrics"]["latency_s"] > 0
    assert status["metrics"]["queueing_delay_s"] >= 0
    # Pooled jobs have no isolated spec, hence no record/spec hash.
    assert status["spec_hash"] is None
    assert "record" not in status

    pools = client.get("/pools")
    assert pools.envelope().kind == schemas.KIND_POOL_STATS
    assert pools.data["manager"]["finished"] == 1
    assert pools.data["sim_time_s"] > 0
    assert pools.data["capacity"]["vm_cores"] == 4

    execs = client.get("/executors")
    assert execs.envelope().kind == schemas.KIND_EXECUTORS
    assert len(execs.data["executors"]) > 0
    kinds = {e["kind"] for e in execs.data["executors"]}
    assert kinds == {"vm"}


# ---------------------------------------------------------------------------
# Planner endpoint
# ---------------------------------------------------------------------------

def test_plan_endpoint_ranks_candidates(client):
    r = client.get("/plan", params={"workload": "sparkpi", "slo_s": 500})
    assert r.status == 200
    env = r.envelope()
    assert env.kind == schemas.KIND_PLAN
    assert env.data["workload"] == "sparkpi"
    ranks = [c["rank"] for c in env.data["candidates"]]
    assert ranks == list(range(1, len(ranks) + 1))
    assert env.data["chosen"] == env.data["candidates"][0]["name"]

    missing = client.get("/plan")
    assert missing.status == 400
    assert missing.data["code"] == schemas.ERR_INVALID_REQUEST


# ---------------------------------------------------------------------------
# Error surfaces
# ---------------------------------------------------------------------------

def test_unknown_job_is_404(client):
    r = client.get("/jobs/job-999999")
    assert r.status == 404
    env = r.envelope()
    assert env.kind == schemas.KIND_ERROR
    assert env.data["code"] == schemas.ERR_NOT_FOUND


def test_bad_submission_is_400(client):
    r = client.post("/jobs", json={"workload": "sparkpi",
                                   "wokload_params": {}})
    assert r.status == 400
    assert r.data["code"] == schemas.ERR_INVALID_REQUEST
    assert "wokload_params" in r.data["message"]

    r = client.post("/jobs", json=["not", "an", "object"])
    assert r.status == 400

    r = client.get("/jobs/job-000001", params={"wait": "soon"})
    assert r.status == 400


def test_unknown_route_and_method(client):
    assert client.get("/nope").status == 404
    r = client.post("/executors")
    assert r.status == 405
    assert r.envelope().kind == schemas.KIND_ERROR
