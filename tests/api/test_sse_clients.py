"""``GET /events`` under misbehaving clients.

The SSE layer's contract when consumers fail: a mid-stream disconnect
releases the subscription (no leaks, no stalled publishers), a quiet
stream writes keepalive comments that are not events, a slow
consumer loses events to its *own* bounded buffer with deterministic
drop accounting (never stalling the hub), and a reconnecting client
resumes past the last sequence it saw via ``Last-Event-ID`` (or the
``?after=`` query form) with no duplicates and no gaps.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import schemas
from repro.api.app import (
    KEEPALIVE_FRAME,
    KEEPALIVE_S,
    _event_stream,
    create_app,
)
from repro.api.service import EventHub, ServeConfig
from repro.api.testclient import TestClient
from repro.observability.categories import CAT_SERVE, EV_JOB_QUEUED


def _publish(hub: EventHub, n: int, t0: float = 0.0) -> None:
    for i in range(n):
        hub.record(t0 + i, CAT_SERVE, EV_JOB_QUEUED, job=f"job-{i:06d}")


# ---------------------------------------------------------------------------
# Mid-stream disconnect
# ---------------------------------------------------------------------------

def test_mid_stream_disconnect_releases_the_subscription():
    hub = EventHub()
    stream = _event_stream(
        SimpleNamespace(hub=hub), replay=0, after_seq=None, category=None,
        max_events=0, idle_timeout_s=5.0)

    # The client reads two live frames (skipping keepalive comments);
    # the first next() subscribes.
    frames = []

    def read_two():
        while len(frames) < 2:
            frame = next(stream)
            if not frame.startswith(b":"):
                frames.append(frame)

    reader = threading.Thread(target=read_two)
    reader.start()
    deadline = time.monotonic() + 5.0
    while hub.stats()["subscribers"] == 0:
        assert time.monotonic() < deadline, "the stream never subscribed"
        time.sleep(0.01)
    _publish(hub, 2)                # only once the stream is subscribed
    reader.join(timeout=5.0)
    assert not reader.is_alive()
    assert [f.split(b"\n")[0] for f in frames] == [b"id: 1", b"id: 2"]
    assert hub.stats()["subscribers"] == 1

    # The client goes away mid-stream: both callers of App.handle close
    # the frame generator then, and that releases the subscription.
    stream.close()
    assert hub.stats()["subscribers"] == 0


def test_quiet_stream_keepalive_is_a_comment_not_an_event():
    hub = EventHub()
    stream = _event_stream(
        SimpleNamespace(hub=hub), replay=0, after_seq=None, category=None,
        max_events=1, idle_timeout_s=5.0)

    # Nothing is published: after a quiet second the stream writes an
    # SSE comment, whose write is what finds a client that went away.
    started = time.monotonic()
    assert next(stream) == KEEPALIVE_FRAME
    assert time.monotonic() - started >= 0.9 * KEEPALIVE_S
    assert KEEPALIVE_FRAME.startswith(b":")

    # The keepalive did not count toward max_events=1: the next event
    # is still delivered, and only then does the stream end.
    _publish(hub, 1)
    assert next(stream).split(b"\n")[0] == b"id: 1"
    with pytest.raises(StopIteration):
        next(stream)
    assert hub.stats()["subscribers"] == 0


# ---------------------------------------------------------------------------
# Slow consumers (bounded buffers, deterministic drops)
# ---------------------------------------------------------------------------

def test_slow_consumer_drops_newest_beyond_its_buffer():
    hub = EventHub(maxlen=64)
    slow, backlog = hub.subscribe(depth=4)
    fast, _ = hub.subscribe()
    assert backlog == []

    _publish(hub, 10)

    # The slow consumer kept the oldest 4 and lost exactly the 6
    # published while its buffer sat full; the fast consumer and the
    # hub itself never stalled.
    assert slow.qsize() == 4
    assert slow.dropped == 6
    assert fast.qsize() == 10
    assert hub.stats()["dropped_total"] == 6
    kept = [slow.get(timeout=1.0)["seq"] for _ in range(4)]
    assert kept == [1, 2, 3, 4]

    # Recovery path: reconnecting past the last seen sequence replays
    # the dropped events from the ring — end to end, nothing is lost.
    _, replayed = hub.subscribe(after_seq=kept[-1])
    assert [item["seq"] for item in replayed] == [5, 6, 7, 8, 9, 10]


def test_subscriber_buffer_never_blocks_the_publisher():
    hub = EventHub()
    sub, _ = hub.subscribe(depth=1)
    _publish(hub, 3)  # put_nowait semantics: returns immediately
    assert sub.qsize() == 1
    assert sub.dropped == 2
    hub.unsubscribe(sub)
    assert hub.stats()["subscribers"] == 0


# ---------------------------------------------------------------------------
# Replay after reconnect (Last-Event-ID) over HTTP
# ---------------------------------------------------------------------------

@pytest.fixture()
def client():
    config = ServeConfig(max_concurrent=2, max_queue=8, seed=0,
                         pool_cores=4)
    with TestClient(create_app(config)) as c:
        yield c


def _seed_events(client) -> None:
    r = client.post("/jobs", json={"workload": "sparkpi",
                                   "scenario": "spark_R_vm", "seed": 1})
    assert r.status == 202
    done = client.get(f"/jobs/{r.data['job_id']}", params={"wait": 60})
    assert done.data["state"] == schemas.JOB_COMPLETED


def test_last_event_id_resumes_without_duplicates_or_gaps(client):
    _seed_events(client)  # queued, started, finished

    first = client.get("/events", params={"replay": 50, "max_events": 2,
                                          "category": CAT_SERVE})
    events = first.sse_events()
    assert [e["data"]["name"] for e in events] == ["job_queued",
                                                   "job_started"]
    last_id = events[-1]["id"]

    # The standard header form: the stream resumes past the last
    # sequence the client acknowledged — no duplicates, no gaps.
    resumed = client.get("/events", params={"max_events": 1,
                                            "category": CAT_SERVE},
                         headers={"Last-Event-ID": last_id})
    [event] = resumed.sse_events()
    assert event["data"]["name"] == "job_finished"
    assert int(event["id"]) > int(last_id)

    # The ?after= query form (curl-friendly) behaves identically.
    via_query = client.get("/events", params={"max_events": 1,
                                              "category": CAT_SERVE,
                                              "after": last_id})
    [same] = via_query.sse_events()
    assert same["id"] == event["id"]

    # Every bounded stream released its subscription on completion.
    assert client.app.runtime.hub.stats()["subscribers"] == 0


def test_non_integer_last_event_id_is_rejected(client):
    bad = client.get("/events", headers={"Last-Event-ID": "bogus"})
    assert bad.status == 400
    env = bad.envelope()
    assert env.kind == schemas.KIND_ERROR
    assert env.data["code"] == schemas.ERR_INVALID_REQUEST
    assert "Last-Event-ID" in env.data["message"]
