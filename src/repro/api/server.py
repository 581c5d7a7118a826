"""Serving the control plane over real sockets.

:func:`run` is what ``repro serve`` calls. It serves the app on
:func:`make_server`, the one server this repo ships: a stdlib
``ThreadingHTTPServer`` whose handler thread builds a
:class:`~repro.api.web.Request` and calls :meth:`App.handle
<repro.api.web.App.handle>` directly. A complete body goes out with a
``Content-Length``; an SSE stream goes out frame by frame, each flushed
as it comes, under ``Connection: close`` (HTTP/1.0), so the socket
closing is how a client sees the stream end. When a write fails the
client is gone, and the handler closes the frame generator, which
releases its subscription; a quiet stream writes a keepalive comment
each second, so that write comes even when no event does.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import unquote, urlsplit

from repro.api.web import Request, Response

__all__ = ["make_server", "run"]


class _Handler(BaseHTTPRequestHandler):
    """One stdlib HTTP request served through ``App.handle``."""

    app = None  # bound by make_server on the generated subclass
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
        parts = urlsplit(self.path)
        response = self.app.handle(Request(
            self.command, unquote(parts.path) or "/", parts.query,
            self.headers.items(),
            self.rfile.read(length) if length > 0 else b""))
        try:
            self._write(response)
        except ConnectionError:
            pass  # the client went away
        finally:
            if response.frames is not None:
                response.frames.close()

    def _write(self, response: Response) -> None:
        self.send_response(response.status)
        for key, value in response.headers:
            self.send_header(key, value)
        if response.frames is None:
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            self.wfile.write(response.body)
            return
        self.send_header("Connection", "close")
        self.end_headers()
        for frame in response.frames:
            self.wfile.write(frame)
            self.wfile.flush()


def make_server(app, host: str = "127.0.0.1",
                port: int = 8000) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` stdlib server bound to ``app``.

    The app's startup hook runs before the server is returned; callers
    own shutdown (``server.shutdown()`` then ``app.shutdown()``).
    """
    handler = type("ReproServeHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    app.startup()
    return server


def run(app, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Serve ``app`` on the stdlib server until interrupted."""
    server = make_server(app, host=host, port=port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        app.shutdown()
