"""Serving the control plane over real sockets.

:func:`run` is what ``repro serve`` calls. It serves the app on
:func:`make_server`, the one server this repo ships: a stdlib
``ThreadingHTTPServer`` bridging each request onto the ASGI app via a
private event loop. The bridge buffers single-shot JSON responses
(emitting ``Content-Length``) and streams multi-part bodies (SSE)
chunk-by-chunk with immediate flushes, closing the connection at
end-of-stream as HTTP/1.0 clients expect.
"""

from __future__ import annotations

import asyncio
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict
from urllib.parse import unquote, urlsplit

__all__ = ["make_server", "run"]


class _BridgeHandler(BaseHTTPRequestHandler):
    """One stdlib HTTP request pumped through the ASGI app."""

    asgi_app = None  # bound by make_server on the generated subclass
    protocol_version = "HTTP/1.0"  # streamed bodies end at close

    # Silence the default per-request stderr lines; the app's event
    # stream is the supported observation surface.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle()

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle()

    def _handle(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length > 0 else b""
        parts = urlsplit(self.path)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.0",
            "method": self.command,
            "scheme": "http",
            "path": unquote(parts.path) or "/",
            "raw_path": parts.path.encode("utf-8"),
            "query_string": parts.query.encode("latin-1"),
            "root_path": "",
            "headers": [(k.lower().encode("latin-1"),
                         v.encode("latin-1"))
                        for k, v in self.headers.items()],
            "client": self.client_address,
            "server": self.server.server_address,
        }
        try:
            asyncio.run(self._pump(scope, body))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

    async def _pump(self, scope: Dict[str, Any], body: bytes) -> None:
        delivered = False
        state: Dict[str, Any] = {"status": None, "headers": [],
                                 "started": False, "buffer": []}

        async def receive() -> Dict[str, Any]:
            nonlocal delivered
            if not delivered:
                delivered = True
                return {"type": "http.request", "body": body,
                        "more_body": False}
            # Stay "connected" until the response generator finishes;
            # a write failure surfaces as an exception in send().
            await asyncio.get_running_loop().create_future()

        async def send(message: Dict[str, Any]) -> None:
            if message["type"] == "http.response.start":
                state["status"] = message["status"]
                state["headers"] = [
                    (k.decode("latin-1"), v.decode("latin-1"))
                    for k, v in message.get("headers", [])]
            elif message["type"] == "http.response.body":
                chunk = message.get("body", b"")
                if message.get("more_body", False):
                    if not state["started"]:
                        self._start(state, streaming=True)
                        state["started"] = True
                    if chunk:
                        self.wfile.write(chunk)
                        self.wfile.flush()
                elif state["started"]:  # end of a stream
                    if chunk:
                        self.wfile.write(chunk)
                    self.wfile.flush()
                else:  # buffered single-shot response
                    state["buffer"].append(chunk)
                    self._finish(state)

        await self.asgi_app(scope, receive, send)

    def _start(self, state: Dict[str, Any], streaming: bool) -> None:
        self.send_response(state["status"])
        seen = set()
        for key, value in state["headers"]:
            seen.add(key.lower())
            self.send_header(key, value)
        if streaming and "connection" not in seen:
            self.send_header("Connection", "close")
        self.end_headers()

    def _finish(self, state: Dict[str, Any]) -> None:
        payload = b"".join(state["buffer"])
        self.send_response(state["status"])
        for key, value in state["headers"]:
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()


def make_server(app, host: str = "127.0.0.1",
                port: int = 8000) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` stdlib server bound to ``app``.

    The app's startup hook runs before the server is returned; callers
    own shutdown (``server.shutdown()`` then ``app.shutdown()``).
    """
    handler = type("ReproServeHandler", (_BridgeHandler,),
                   {"asgi_app": app})
    server = ThreadingHTTPServer((host, port), handler)
    app.startup()
    return server


def run(app, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Serve ``app`` on the stdlib bridge until interrupted."""
    server = make_server(app, host=host, port=port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        app.shutdown()
