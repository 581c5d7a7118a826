"""The control plane over a real socket, through the stdlib server.

Every other API test calls ``App.handle`` in-process through the test
client; this module runs ``make_server`` on an ephemeral port and talks
HTTP to it, so the server itself is under test: buffered JSON responses
and error envelopes with a ``Content-Length``, a blocking ``?wait=``,
the plain-text ``/metrics`` exposition, an SSE stream that must end
(the socket closes) after its last frame or after its idle timeout
with no frame written, and SSE clients that drop mid-stream or on a
quiet hub. Every request carries a read timeout, so a stream that never
closes fails the test instead of hanging it. SSE comment frames
(``: keepalive``) carry no event and are skipped by every reader here.
``make serve-smoke`` runs the whole module.
"""

import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.api import schemas
from repro.api.app import create_app
from repro.api.server import make_server
from repro.api.service import ServeConfig
from repro.observability.categories import CAT_SERVE, EV_JOB_QUEUED
from tests.api.test_admission import _gate, _request as _blocking_job

pytestmark = pytest.mark.smoke

#: Seconds a request may wait on the socket before the test fails.
READ_TIMEOUT_S = 10.0


@contextlib.contextmanager
def _serving(app):
    """``app`` on an ephemeral port; yields the bound address."""
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        app.shutdown()
        thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def app():
    return create_app(ServeConfig(max_concurrent=2, seed=0, pool_cores=4))


@pytest.fixture(scope="module")
def address(app):
    with _serving(app) as bound:
        yield bound


def _request(address, method, path, body=None, raw=None,
             timeout=READ_TIMEOUT_S):
    """(status, headers, body bytes) of one request, read to EOF.

    ``body`` is sent as JSON; ``raw`` bytes are sent as they are.
    """
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = raw if raw is not None else (
            None if body is None else json.dumps(body))
        headers = ({"Content-Type": "application/json"}
                   if payload is not None else {})
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read())
    finally:
        conn.close()


def _envelope(body: bytes):
    return schemas.ResponseEnvelope.from_dict(json.loads(body))


def _event_frames(body: bytes):
    """The SSE frames of a body that carry an event (comments dropped)."""
    return [f for f in body.decode("utf-8").split("\n\n")
            if f and not f.startswith(":")]


def _wait_until(condition, timeout_s, message):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


def test_service_info(address):
    status, headers, body = _request(address, "GET", "/")
    assert status == 200
    assert headers["content-length"] == str(len(body))
    assert _envelope(body).kind == schemas.KIND_SERVICE_INFO


def test_submit_then_wait_for_completion(address):
    status, _, body = _request(
        address, "POST", "/jobs",
        {"workload": "sparkpi", "scenario": "spark_R_vm", "seed": 0})
    assert status == 202
    job_id = _envelope(body).data["job_id"]
    status, _, body = _request(address, "GET", f"/jobs/{job_id}?wait=8")
    assert status == 200
    final = _envelope(body).data
    assert final["job_id"] == job_id
    assert final["state"] == schemas.JOB_COMPLETED, final["error"]


def test_metrics_exposition(address):
    status, headers, body = _request(address, "GET", "/metrics")
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert "# TYPE repro_serve_admission_latency_seconds histogram" in text


def test_sse_stream_ends_after_its_last_frame(address):
    # Reading to EOF returns only if the server closes the socket after
    # the third frame; a kept-alive socket trips the read timeout.
    status, headers, body = _request(
        address, "GET", "/events?replay=3&max_events=3")
    assert status == 200
    assert headers["content-type"] == "text/event-stream"
    assert headers["connection"] == "close"
    frames = _event_frames(body)
    assert len(frames) == 3
    assert all(f.startswith("id: ") for f in frames)


def test_dropped_sse_client_releases_its_subscription(app, address):
    hub = app.runtime.hub
    for i in range(2):
        hub.record(float(i), CAT_SERVE, EV_JOB_QUEUED, job=f"drop-{i}")
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=READ_TIMEOUT_S)
    conn.request("GET", "/events?replay=2")
    response = conn.getresponse()
    assert response.status == 200
    frames = 0
    comment = False
    while frames < 2:
        line = response.readline()
        assert line, "the stream ended before its second frame"
        if line == b"\n":
            frames += not comment
            comment = False
        elif line.startswith(b":"):
            comment = True
    assert hub.stats()["subscribers"] == 1
    response.close()
    conn.close()

    # The server learns of the close only when a write fails, so keep
    # publishing: the stream must let go of its subscription.
    deadline = time.monotonic() + READ_TIMEOUT_S
    n = 2
    while hub.stats()["subscribers"] > 0:
        assert time.monotonic() < deadline, \
            "a dropped SSE client kept its subscription"
        hub.record(float(n), CAT_SERVE, EV_JOB_QUEUED, job=f"drop-{n}")
        n += 1
        time.sleep(0.05)


def test_dropped_quiet_sse_client_releases_its_subscription():
    # Nothing is published after the client goes: only the stream's
    # keepalive write can find the closed socket.
    app = create_app(ServeConfig(seed=0, pool_cores=2))
    hub = app.runtime.hub
    with _serving(app) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=READ_TIMEOUT_S)
        conn.request("GET", "/events")
        response = conn.getresponse()
        assert response.status == 200
        _wait_until(lambda: hub.stats()["subscribers"] == 1, 5.0,
                    "the stream never subscribed")
        response.close()
        conn.close()
        _wait_until(lambda: hub.stats()["subscribers"] == 0, 5.0,
                    "a client that dropped a quiet stream kept its "
                    "subscription")


def test_filtered_sse_stream_ends_while_other_events_flow():
    # Events the category filter drops must not hold the stream open:
    # it ends idle_timeout_s after its last frame written, here none.
    app = create_app(ServeConfig(seed=0, pool_cores=2))
    hub = app.runtime.hub
    stop = threading.Event()

    def publish_serve_events():
        # For at most 4 s, so a stream the noise holds open still ends.
        until = time.monotonic() + 4.0
        n = 0
        while not stop.wait(0.02) and time.monotonic() < until:
            hub.record(float(n), CAT_SERVE, EV_JOB_QUEUED, job=f"noise-{n}")
            n += 1

    publisher = threading.Thread(target=publish_serve_events, daemon=True)
    with _serving(app) as address:
        publisher.start()
        try:
            started = time.monotonic()
            status, _, body = _request(
                address, "GET", "/events?category=fault&idle_timeout_s=0.5",
                timeout=5.0)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            publisher.join(timeout=5.0)
    assert not publisher.is_alive()
    assert status == 200
    assert _event_frames(body) == []
    assert elapsed < 3.0


def _assert_error(status, headers, body, want_status, want_code):
    assert status == want_status
    assert headers["content-length"] == str(len(body))
    env = _envelope(body)
    assert env.kind == schemas.KIND_ERROR
    assert env.data["code"] == want_code
    return env.data


@pytest.mark.parametrize("method, path, raw, status, code, says", [
    ("GET", "/no-such-route", None, 404, schemas.ERR_NOT_FOUND,
     "no route for /no-such-route"),
    ("GET", "/chaos", None, 405, schemas.ERR_INVALID_REQUEST,
     "allowed: ['POST']"),
    ("POST", "/jobs", b"{not json", 400, schemas.ERR_INVALID_REQUEST,
     "not valid JSON"),
], ids=["404-unknown-path", "405-wrong-method", "400-non-json"])
def test_error_envelope(address, method, path, raw, status, code, says):
    error = _assert_error(*_request(address, method, path, raw=raw),
                          status, code)
    assert says in error["message"]


def test_backpressure_is_503_with_retry_after():
    gate = _gate("socket503")
    app = create_app(ServeConfig(max_concurrent=1, max_queue=1))
    try:
        with _serving(app) as address:
            first, second = [
                _request(address, "POST", "/jobs",
                         _blocking_job(seed, "socket503"))
                for seed in (0, 1)]
            assert first[0] == second[0] == 202

            status, headers, body = _request(
                address, "POST", "/jobs", _blocking_job(2, "socket503"))
            error = _assert_error(status, headers, body,
                                  503, schemas.ERR_BACKPRESSURE)
            assert headers["retry-after"] == str(
                round(error["retry_after_s"]))

            gate.set()
            job_id = _envelope(first[2]).data["job_id"]
            status, _, body = _request(address, "GET",
                                       f"/jobs/{job_id}?wait=30")
            assert _envelope(body).data["state"] == schemas.JOB_COMPLETED
    finally:
        gate.set()
