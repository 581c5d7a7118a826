"""An in-process test client (no sockets, no new dependencies).

Drives the control plane from :func:`repro.api.app.create_app` by
calling :meth:`App.handle <repro.api.web.App.handle>` directly: the
``with`` block runs the app's startup and shutdown hooks, each request
is one :class:`~repro.api.web.Request`, and an SSE response's frames
are read until the stream ends on its own bounds. The surface mirrors
the common ``client.get(...)`` / ``client.post(..., json=...)`` shape
so tests read like httpx/TestClient code.
"""

from __future__ import annotations

import json as _json
from typing import Any, Dict, List, Optional
from urllib.parse import urlencode, urlsplit

from repro.api import schemas
from repro.api.web import Request

__all__ = ["TestClient", "TestResponse"]


class TestResponse:
    """One captured HTTP response."""

    def __init__(self, status: int, headers: Dict[str, str],
                 body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> Any:
        return _json.loads(self.text)

    def envelope(self) -> schemas.ResponseEnvelope:
        """The response parsed as a versioned envelope (asserts the
        contract every JSON endpoint promises)."""
        return schemas.ResponseEnvelope.from_dict(self.json())

    @property
    def data(self) -> Any:
        """The envelope's payload."""
        return self.envelope().data

    def sse_events(self) -> List[Dict[str, Any]]:
        """Parse a ``text/event-stream`` body into event dicts with
        ``id``/``event`` strings and JSON-decoded ``data``; comment
        lines (``: keepalive``) are skipped."""
        events = []
        for block in self.text.split("\n\n"):
            fields: Dict[str, List[str]] = {}
            for line in block.splitlines():
                if ":" not in line or line.startswith(":"):
                    continue
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), []).append(value.lstrip())
            if "data" not in fields:
                continue
            events.append({
                "id": fields.get("id", [None])[0],
                "event": fields.get("event", [None])[0],
                "data": _json.loads("\n".join(fields["data"])),
            })
        return events

    def __repr__(self) -> str:
        return f"<TestResponse {self.status} {len(self.body)}B>"


class TestClient:
    """Synchronous in-process client for the control-plane app.

    Use as a context manager to run the app's startup and shutdown
    hooks::

        with TestClient(create_app(config)) as client:
            r = client.post("/jobs", json={"workload": "sparkpi"})
            assert r.status == 202
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, app) -> None:
        self.app = app

    def __enter__(self) -> "TestClient":
        self.app.startup()
        return self

    def __exit__(self, *exc_info) -> None:
        self.app.shutdown()

    # -- requests ----------------------------------------------------------

    def request(self, method: str, url: str, json: Any = None,
                params: Optional[Dict[str, Any]] = None,
                headers: Optional[Dict[str, str]] = None) -> TestResponse:
        parts = urlsplit(url)
        query = parts.query
        if params:
            extra = urlencode({k: str(v) for k, v in params.items()})
            query = f"{query}&{extra}" if query else extra
        body = b"" if json is None else schemas.dumps(json).encode("utf-8")
        response = self.app.handle(Request(
            method, parts.path or "/", query,
            [(k, str(v)) for k, v in (headers or {}).items()], body))
        body = response.body
        if response.frames is not None:
            try:
                body = b"".join(response.frames)
            finally:
                response.frames.close()
        return TestResponse(response.status,
                            {k.lower(): v for k, v in response.headers},
                            body)

    def get(self, url: str, params: Optional[Dict[str, Any]] = None,
            headers: Optional[Dict[str, str]] = None) -> TestResponse:
        return self.request("GET", url, params=params, headers=headers)

    def post(self, url: str, json: Any = None,
             params: Optional[Dict[str, Any]] = None,
             headers: Optional[Dict[str, str]] = None) -> TestResponse:
        return self.request("POST", url, json=json, params=params,
                            headers=headers)
