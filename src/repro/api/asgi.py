"""A minimal ASGI toolkit for the control plane.

The control plane is written against the bare `ASGI 3.0
<https://asgi.readthedocs.io/>`_ protocol rather than FastAPI, so the
baked-in environment (stdlib + numpy) can run and test it with zero new
dependencies. :mod:`repro.api.server` serves it over a stdlib threaded
HTTP server, the only server the repo ships, and
:mod:`repro.api.testclient` drives it in-process.

Pieces: :class:`Request` (query/body/JSON parsing), :class:`Response` /
:class:`JSONResponse` (the latter always emits a
:class:`~repro.api.schemas.ResponseEnvelope`), :class:`SSEResponse`
(``text/event-stream`` with client-disconnect handling), and
:class:`App` — a method+path router with ``{param}`` captures, JSON
error mapping through the shared schemas, and lifespan support.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl

from repro.api import schemas

Scope = Dict[str, Any]
Receive = Callable[[], Awaitable[Dict[str, Any]]]
Send = Callable[[Dict[str, Any]], Awaitable[None]]


class ApiError(Exception):
    """An error with an HTTP status and a structured body.

    Raised anywhere under a handler; the router converts it into a
    :class:`~repro.api.schemas.ErrorBody` inside an error envelope, so
    every failure mode shares one JSON shape.
    """

    def __init__(self, status: int, code: str, message: str,
                 detail: Optional[Dict[str, Any]] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = schemas.ErrorBody(code=code, message=message,
                                      detail=detail or {},
                                      retry_after_s=retry_after_s)


class Request:
    """One HTTP request: lazily parsed query, body, and JSON."""

    def __init__(self, scope: Scope, receive: Receive) -> None:
        self.scope = scope
        self._receive = receive
        self.path_params: Dict[str, str] = {}
        self._body: Optional[bytes] = None

    @property
    def method(self) -> str:
        return self.scope.get("method", "GET").upper()

    @property
    def path(self) -> str:
        return self.scope.get("path", "/")

    @property
    def query(self) -> Dict[str, str]:
        raw = self.scope.get("query_string", b"") or b""
        return dict(parse_qsl(raw.decode("latin-1")))

    @property
    def headers(self) -> Dict[str, str]:
        """Lower-cased header map (last value wins on duplicates)."""
        return {k.decode("latin-1").lower(): v.decode("latin-1")
                for k, v in self.scope.get("headers", [])}

    async def body(self) -> bytes:
        if self._body is None:
            chunks: List[bytes] = []
            while True:
                message = await self._receive()
                if message["type"] == "http.disconnect":
                    break
                chunks.append(message.get("body", b""))
                if not message.get("more_body", False):
                    break
            self._body = b"".join(chunks)
        return self._body

    async def json(self) -> Any:
        raw = await self.body()
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                           f"request body is not valid JSON: {exc}")


class Response:
    """A complete (non-streaming) HTTP response."""

    def __init__(self, body: bytes = b"", status: int = 200,
                 content_type: str = "text/plain; charset=utf-8",
                 headers: Optional[List[Tuple[str, str]]] = None) -> None:
        self.body = body
        self.status = status
        self.headers = [("content-type", content_type)] + (headers or [])

    def _raw_headers(self) -> List[Tuple[bytes, bytes]]:
        return [(k.lower().encode("latin-1"), v.encode("latin-1"))
                for k, v in self.headers]

    async def send(self, receive: Receive, send: Send) -> None:
        await send({"type": "http.response.start", "status": self.status,
                    "headers": self._raw_headers()})
        await send({"type": "http.response.body", "body": self.body,
                    "more_body": False})


class JSONResponse(Response):
    """A deterministic JSON response carrying one envelope."""

    def __init__(self, kind: str, data: Any, status: int = 200,
                 headers: Optional[List[Tuple[str, str]]] = None) -> None:
        payload = schemas.envelope(kind, data).dumps().encode("utf-8")
        super().__init__(payload, status=status,
                         content_type="application/json", headers=headers)


def error_response(exc: ApiError) -> JSONResponse:
    headers = []
    if exc.body.retry_after_s is not None:
        headers.append(("retry-after",
                        str(max(0, int(round(exc.body.retry_after_s))))))
    return JSONResponse(schemas.KIND_ERROR, exc.body, status=exc.status,
                        headers=headers)


def sse_frame(data: Any, event: Optional[str] = None,
              event_id: Optional[str] = None) -> bytes:
    """One ``text/event-stream`` frame (``id``/``event``/``data``)."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    text = data if isinstance(data, str) else schemas.dumps(data)
    for chunk in text.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class SSEResponse:
    """A ``text/event-stream`` response fed by an async generator of
    pre-encoded frames (see :func:`sse_frame`).

    The generator is cancelled as soon as the client disconnects, so a
    server never leaks a subscription past its consumer. The response
    sets no ``connection`` header: the stdlib bridge then closes the
    socket after the last frame, which is how a client sees the stream
    end.
    """

    def __init__(self, frames: AsyncIterator[bytes]) -> None:
        self.frames = frames
        self.status = 200
        self.headers = [("content-type", "text/event-stream"),
                        ("cache-control", "no-cache")]

    async def send(self, receive: Receive, send: Send) -> None:
        await send({
            "type": "http.response.start", "status": self.status,
            "headers": [(k.encode("latin-1"), v.encode("latin-1"))
                        for k, v in self.headers]})

        disconnected = asyncio.Event()

        async def watch_disconnect() -> None:
            while not disconnected.is_set():
                message = await receive()
                if message["type"] == "http.disconnect":
                    disconnected.set()
                    return

        watcher = asyncio.ensure_future(watch_disconnect())
        try:
            async for frame in self.frames:
                if disconnected.is_set():
                    break
                try:
                    await send({"type": "http.response.body", "body": frame,
                                "more_body": True})
                except Exception:
                    break  # transport gone — treat as a disconnect
            if not disconnected.is_set():
                try:
                    await send({"type": "http.response.body", "body": b"",
                                "more_body": False})
                except Exception:
                    pass
        finally:
            watcher.cancel()
            try:
                await watcher
            except (asyncio.CancelledError, Exception):
                pass
            closer = getattr(self.frames, "aclose", None)
            if closer is not None:
                try:
                    await closer()
                except Exception:
                    pass


Handler = Callable[[Request], Awaitable[Any]]

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile(path: str) -> re.Pattern:
    pattern = _PARAM_RE.sub(lambda m: f"(?P<{m.group(1)}>[^/]+)",
                            re.escape(path).replace(r"\{", "{")
                            .replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


class App:
    """Method+path router implementing the ASGI 3.0 callable."""

    def __init__(self, on_startup: Optional[Callable[[], None]] = None,
                 on_shutdown: Optional[Callable[[], None]] = None) -> None:
        self._routes: List[Tuple[str, re.Pattern, str, Handler]] = []
        self._on_startup = on_startup
        self._on_shutdown = on_shutdown
        self._started = False

    def route(self, method: str, path: str) -> Callable[[Handler], Handler]:
        def register(handler: Handler) -> Handler:
            self._routes.append((method.upper(), _compile(path), path,
                                 handler))
            return handler
        return register

    def get(self, path: str):
        return self.route("GET", path)

    def post(self, path: str):
        return self.route("POST", path)

    def startup(self) -> None:
        """Idempotent startup hook (lifespan or first request)."""
        if not self._started:
            self._started = True
            if self._on_startup is not None:
                self._on_startup()

    def shutdown(self) -> None:
        if self._started:
            self._started = False
            if self._on_shutdown is not None:
                self._on_shutdown()

    # -- ASGI entry point --------------------------------------------------

    async def __call__(self, scope: Scope, receive: Receive,
                       send: Send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws not served
            raise RuntimeError(f"unsupported scope type {scope['type']!r}")
        self.startup()
        request = Request(scope, receive)
        try:
            response = await self._dispatch(request)
        except ApiError as exc:
            response = error_response(exc)
        except Exception as exc:  # noqa: BLE001 - boundary of the app
            response = error_response(ApiError(
                500, schemas.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}"))
        await response.send(receive, send)

    async def _dispatch(self, request: Request):
        allowed: List[str] = []
        for method, pattern, _path, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            request.path_params = match.groupdict()
            result = await handler(request)
            if isinstance(result, (Response, SSEResponse)):
                return result
            raise ApiError(500, schemas.ERR_INTERNAL,
                           f"handler returned {type(result).__name__}, "
                           f"expected a Response")
        if allowed:
            raise ApiError(405, schemas.ERR_INVALID_REQUEST,
                           f"{request.method} not allowed for "
                           f"{request.path}; allowed: {sorted(allowed)}")
        raise ApiError(404, schemas.ERR_NOT_FOUND,
                       f"no route for {request.path}")

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                try:
                    self.startup()
                except Exception as exc:  # noqa: BLE001
                    await send({"type": "lifespan.startup.failed",
                                "message": str(exc)})
                    return
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.shutdown()
                await send({"type": "lifespan.shutdown.complete"})
                return
