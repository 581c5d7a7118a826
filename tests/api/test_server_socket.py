"""The control plane over a real socket, through the stdlib server.

Every other API test drives the ASGI app in-process; this module runs
``make_server`` on an ephemeral port and talks HTTP to it, so the bridge
itself is under test: buffered JSON responses, a blocking ``?wait=``,
the plain-text ``/metrics`` exposition, and an SSE stream that must end
(the socket closes) after its last frame. Every request carries a read
timeout, so a stream that never closes fails the test instead of
hanging it.
"""

import http.client
import json
import threading

import pytest

from repro.api import schemas
from repro.api.app import create_app
from repro.api.server import make_server
from repro.api.service import ServeConfig

#: Seconds a request may wait on the socket before the test fails.
READ_TIMEOUT_S = 10.0


@pytest.fixture(scope="module")
def address():
    app = create_app(ServeConfig(max_concurrent=2, seed=0, pool_cores=4))
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


def _request(address, method, path, body=None):
    """(status, headers, body bytes) of one request, read to EOF."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=READ_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body)
        headers = ({"Content-Type": "application/json"}
                   if body is not None else {})
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read())
    finally:
        conn.close()


def _envelope(body: bytes):
    return schemas.ResponseEnvelope.from_dict(json.loads(body))


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
    frames = [f for f in body.decode("utf-8").split("\n\n") if f]
    assert len(frames) == 3
    assert all(f.startswith("id: ") for f in frames)
