"""A minimal synchronous HTTP router for the control plane.

:class:`App` maps method+path routes (with ``{param}`` captures) to plain
handler functions. Its one entry point, :meth:`App.handle`, takes a
:class:`Request` and returns a :class:`Response`; every failure becomes
a JSON error envelope through the shared schemas. The stdlib server
(:mod:`repro.api.server`) and the in-process test client
(:mod:`repro.api.testclient`) are its only callers, and both call
``handle`` directly.

A :class:`Response` holds either a complete body or, for
``text/event-stream``, a generator of pre-encoded SSE frames
(:func:`sse_frame`). The caller writes the frames as they come and
closes the generator when the stream ends or the client goes away,
which releases whatever the generator holds.
"""

from __future__ import annotations

import json
import re
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl

from repro.api import schemas


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
    """One HTTP request: method, path, parsed query, lower-cased headers
    (last value wins on duplicates) and the raw body."""

    def __init__(self, method: str, path: str, query_string: str = "",
                 headers: Iterable[Tuple[str, str]] = (),
                 body: bytes = b"") -> None:
        self.method = method.upper()
        self.path = path
        self.query: Dict[str, str] = dict(parse_qsl(query_string))
        self.headers = {k.lower(): v for k, v in headers}
        self.body = body
        self.path_params: Dict[str, str] = {}

    def json(self) -> Any:
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                           f"request body is not valid JSON: {exc}")


class Response:
    """A complete body, or a generator of SSE ``frames`` (then ``body``
    is unused)."""

    def __init__(self, body: bytes = b"", status: int = 200,
                 content_type: str = "text/plain; charset=utf-8",
                 headers: Optional[List[Tuple[str, str]]] = None,
                 frames: Optional[Generator[bytes, None, None]] = None
                 ) -> None:
        self.body = body
        self.status = status
        self.headers = [("content-type", content_type)] + (headers or [])
        self.frames = frames


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


def event_stream(frames: Generator[bytes, None, None]) -> Response:
    """A ``text/event-stream`` response over a generator of frames."""
    return Response(content_type="text/event-stream",
                    headers=[("cache-control", "no-cache")], frames=frames)


Handler = Callable[[Request], Response]

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile(path: str) -> re.Pattern:
    pattern = _PARAM_RE.sub(lambda m: f"(?P<{m.group(1)}>[^/]+)",
                            re.escape(path).replace(r"\{", "{")
                            .replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


class App:
    """Method+path router; :meth:`handle` serves one request."""

    def __init__(self, on_startup: Optional[Callable[[], None]] = None,
                 on_shutdown: Optional[Callable[[], None]] = None) -> None:
        self._routes: List[Tuple[str, re.Pattern, Handler]] = []
        self._on_startup = on_startup
        self._on_shutdown = on_shutdown
        self._started = False

    def route(self, method: str, path: str) -> Callable[[Handler], Handler]:
        def register(handler: Handler) -> Handler:
            self._routes.append((method.upper(), _compile(path), handler))
            return handler
        return register

    def get(self, path: str):
        return self.route("GET", path)

    def post(self, path: str):
        return self.route("POST", path)

    def startup(self) -> None:
        """Idempotent startup hook (called by the server, the test
        client, or the first request)."""
        if not self._started:
            self._started = True
            if self._on_startup is not None:
                self._on_startup()

    def shutdown(self) -> None:
        if self._started:
            self._started = False
            if self._on_shutdown is not None:
                self._on_shutdown()

    def handle(self, request: Request) -> Response:
        """Route one request; every failure becomes an error envelope."""
        self.startup()
        try:
            return self._dispatch(request)
        except ApiError as exc:
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - boundary of the app
            return error_response(ApiError(
                500, schemas.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}"))

    def _dispatch(self, request: Request) -> Response:
        allowed: List[str] = []
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            request.path_params = match.groupdict()
            return handler(request)
        if allowed:
            raise ApiError(405, schemas.ERR_INVALID_REQUEST,
                           f"{request.method} not allowed for "
                           f"{request.path}; allowed: {sorted(allowed)}")
        raise ApiError(404, schemas.ERR_NOT_FOUND,
                       f"no route for {request.path}")
