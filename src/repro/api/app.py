"""The control-plane HTTP application: routes over a ServeRuntime.

:func:`create_app` builds the :class:`~repro.api.web.App` that
``repro serve`` exposes. Handlers are plain functions of one
:class:`~repro.api.web.Request`. Every response rides in a
:class:`~repro.api.schemas.ResponseEnvelope`; the route table is the
control-plane contract:

- ``GET  /``           — service info (version, uptime, endpoints);
- ``POST /jobs``       — submit a :class:`~repro.api.schemas.JobRequest`
  (202 accepted; 400 on schema errors; 503 + ``Retry-After`` with a
  structured :class:`~repro.api.schemas.ErrorBody` when the admission
  queue is saturated);
- ``GET  /jobs``       — all jobs, submission order;
- ``GET  /jobs/{id}``  — one job's status/result; ``?wait=<seconds>``
  blocks until the job finishes (or the wait times out);
- ``GET  /executors``  — live executors of the shared pool;
- ``GET  /pools``      — the scheduler pool, AppManager and admission
  queue depths, pool capacity;
- ``GET  /plan``       — dry-run SplitPlanner ranking
  (``?workload=…&slo_s=…``);
- ``GET  /events``     — Server-Sent Events off the EventBus
  (``?follow=0`` returns a JSON snapshot instead; ``?replay=N`` seeds
  the stream with the last N buffered events, a ``Last-Event-ID``
  header or ``?after=SEQ`` resumes a broken stream past the last seen
  sequence, ``?max_events=N`` / ``?idle_timeout_s=S`` bound the
  stream, for curl and tests; a ``: keepalive`` comment goes out after
  each second without a frame);
- ``GET  /healthz``    — liveness (the process is up; always 200 while
  serving);
- ``GET  /readyz``     — readiness (driver thread alive, queue below
  max, breaker not open, not draining); 503 + structured
  :class:`~repro.api.schemas.ErrorBody` listing the failing checks
  when a load balancer should back off;
- ``POST /chaos``      — inject one chaos instruction into the live
  server (a named :data:`~repro.simulation.faults.CHAOS_PLANS` plan or
  raw fault dicts, worker-thread kills, a sim-driver stall, a
  breaker-probing Lambda scale request); see
  :meth:`~repro.api.service.ServeRuntime.inject_chaos`;
- ``GET  /metrics``    — Prometheus text exposition (plain text, no
  envelope: the one surface scrapers consume directly);
- ``GET  /trace/{id}`` — the job's causal span tree plus the sim
  events stamped with its trace id (``repro trace`` renders this);
- ``GET  /dashboard``  — stdlib-only live HTML view over ``/events``
  + ``/metrics``.
"""

from __future__ import annotations

import queue
import time
from typing import Any, Dict, Generator, Optional

from repro.api import schemas
from repro.api.service import (
    BackpressureError,
    ServeConfig,
    ServeRuntime,
    UnknownJobError,
)
from repro.api.web import (
    ApiError,
    App,
    JSONResponse,
    Request,
    Response,
    event_stream,
    sse_frame,
)

__all__ = ["create_app"]

#: SSE comment frame (clients ignore it); see :func:`_event_stream`.
KEEPALIVE_FRAME = b": keepalive\n\n"
KEEPALIVE_S = 1.0


def _float_param(request: Request, name: str,
                 default: Optional[float] = None) -> Optional[float]:
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                       f"query parameter {name!r} must be a number, "
                       f"got {raw!r}")


def _int_param(request: Request, name: str, default: int) -> int:
    value = _float_param(request, name)
    return default if value is None else int(value)


def create_app(config: Optional[ServeConfig] = None,
               runtime: Optional[ServeRuntime] = None) -> App:
    """Build the control-plane app.

    Pass a pre-built ``runtime`` to share one across apps (tests);
    otherwise one is created from ``config``. Either way the app's
    ``startup()`` starts it (the server, the test client, or the first
    request calls that) and ``shutdown()`` closes it.
    """
    serve = runtime if runtime is not None else ServeRuntime(config)
    app = App(on_startup=serve.start, on_shutdown=serve.close)
    #: The runtime behind the routes (tests and the CLI reach through).
    app.runtime = serve

    @app.get("/")
    def service_info(request: Request) -> JSONResponse:
        return JSONResponse(schemas.KIND_SERVICE_INFO, serve.service_info())

    # -- jobs --------------------------------------------------------------

    @app.post("/jobs")
    def submit_job(request: Request) -> JSONResponse:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                           "request body must be a JSON object "
                           "(a JobRequest)")
        try:
            status = serve.submit(payload)
        except schemas.SchemaError as exc:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST, str(exc))
        except BackpressureError as exc:
            raise ApiError(503, schemas.ERR_BACKPRESSURE, str(exc),
                           detail=exc.detail,
                           retry_after_s=exc.retry_after_s)
        return JSONResponse(schemas.KIND_JOB_STATUS, status, status=202)

    @app.get("/jobs")
    def list_jobs(request: Request) -> JSONResponse:
        statuses = serve.jobs()
        return JSONResponse(schemas.KIND_JOB_LIST, {
            "jobs": [s.to_dict() for s in statuses],
            "admission": serve.admission_stats(),
        })

    @app.get("/jobs/{job_id}")
    def job_status(request: Request) -> JSONResponse:
        job_id = request.path_params["job_id"]
        wait_s = _float_param(request, "wait")
        try:
            if wait_s is not None and wait_s > 0:
                status = serve.wait_for(job_id, timeout=wait_s)
            else:
                status = serve.job(job_id)
        except UnknownJobError:
            raise ApiError(404, schemas.ERR_NOT_FOUND,
                           f"no such job {job_id!r}")
        return JSONResponse(schemas.KIND_JOB_STATUS, status)

    # -- cluster surfaces --------------------------------------------------

    @app.get("/executors")
    def executors(request: Request) -> JSONResponse:
        return JSONResponse(schemas.KIND_EXECUTORS,
                            {"executors": serve.executors()})

    @app.get("/pools")
    def pools(request: Request) -> JSONResponse:
        return JSONResponse(schemas.KIND_POOL_STATS, serve.pool_stats())

    # -- planner -----------------------------------------------------------

    @app.get("/plan")
    def plan(request: Request) -> JSONResponse:
        workload = request.query.get("workload")
        if not workload:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                           "query parameter 'workload' is required, "
                           "e.g. /plan?workload=pagerank&slo_s=120")
        try:
            payload = serve.plan(
                workload,
                slo_s=_float_param(request, "slo_s"),
                margin=_float_param(request, "margin"),
                seed=(int(request.query["seed"])
                      if "seed" in request.query else None))
        except (KeyError, ValueError) as exc:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST, str(exc))
        return JSONResponse(schemas.KIND_PLAN, payload)

    # -- health ------------------------------------------------------------

    @app.get("/healthz")
    def healthz(request: Request) -> JSONResponse:
        return JSONResponse(schemas.KIND_HEALTH, serve.healthz())

    @app.get("/readyz")
    def readyz(request: Request) -> JSONResponse:
        ready, checks = serve.readyz()
        if not ready:
            failing = sorted(k for k, ok in checks.items() if not ok)
            raise ApiError(503, schemas.ERR_NOT_READY,
                           f"not ready: {', '.join(failing)}",
                           detail={"checks": checks})
        return JSONResponse(schemas.KIND_HEALTH,
                            {"status": "ready", "checks": checks})

    # -- observability -----------------------------------------------------

    @app.get("/metrics")
    def metrics(request: Request) -> Response:
        # Prometheus text exposition format 0.0.4 — deliberately not
        # wrapped in the JSON envelope (scrapers parse it directly).
        return Response(serve.metrics_text().encode("utf-8"),
                        content_type="text/plain; version=0.0.4; "
                                     "charset=utf-8")

    @app.get("/trace/{job_id}")
    def trace(request: Request) -> JSONResponse:
        job_id = request.path_params["job_id"]
        try:
            payload = serve.trace(job_id)
        except UnknownJobError:
            raise ApiError(404, schemas.ERR_NOT_FOUND,
                           f"no such job {job_id!r}")
        return JSONResponse(schemas.KIND_TRACE, payload)

    @app.get("/dashboard")
    def dashboard(request: Request) -> Response:
        from repro.observability.serve_obs import DASHBOARD_HTML
        return Response(DASHBOARD_HTML.encode("utf-8"),
                        content_type="text/html; charset=utf-8")

    # -- chaos -------------------------------------------------------------

    @app.post("/chaos")
    def chaos(request: Request) -> JSONResponse:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                           "request body must be a JSON object (a chaos "
                           "instruction; see DESIGN.md "
                           '"Service resilience")')
        try:
            outcome = serve.inject_chaos(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, schemas.ERR_INVALID_REQUEST, str(exc))
        return JSONResponse(schemas.KIND_CHAOS, outcome)

    # -- events ------------------------------------------------------------

    @app.get("/events")
    def events(request: Request):
        follow = request.query.get("follow", "1") not in ("0", "false", "no")
        category = request.query.get("category") or None
        if not follow:
            limit = _int_param(request, "limit", -1)
            items = serve.hub.snapshot(
                limit=None if limit < 0 else limit, category=category)
            return JSONResponse(schemas.KIND_EVENTS, {"events": items})
        replay = _int_param(request, "replay", 0)
        max_events = _int_param(request, "max_events", 0)
        idle_timeout_s = _float_param(request, "idle_timeout_s", 30.0)
        # Reconnect support: a standard Last-Event-ID header (or the
        # ?after= query form for curl) resumes past the last sequence
        # the client saw; it wins over ?replay=.
        after_raw = (request.headers.get("last-event-id")
                     or request.query.get("after"))
        after_seq: Optional[int] = None
        if after_raw is not None and after_raw != "":
            try:
                after_seq = int(after_raw)
            except ValueError:
                raise ApiError(400, schemas.ERR_INVALID_REQUEST,
                               f"Last-Event-ID must be an integer "
                               f"sequence, got {after_raw!r}")
        return event_stream(_event_stream(serve, replay=replay,
                                          after_seq=after_seq,
                                          category=category,
                                          max_events=max_events,
                                          idle_timeout_s=idle_timeout_s))

    return app


def _event_stream(serve: ServeRuntime, replay: int,
                  category: Optional[str], max_events: int,
                  idle_timeout_s: float, after_seq: Optional[int] = None
                  ) -> Generator[bytes, None, None]:
    """SSE frames off the hub: replayed ring items, then live events.

    Subscribes on the first ``next()``. Bounded by ``max_events``
    (0 = unbounded) and by ``idle_timeout_s`` with no event frame
    written (filtered-out events do not count), so a curl without
    ``--max-time`` still terminates. Each ``KEEPALIVE_S`` without a
    frame writes :data:`KEEPALIVE_FRAME`, so a client that went away is
    found by a failed write even on a quiet hub; closing the generator
    early releases the subscription.
    """
    sub, backlog = serve.hub.subscribe(replay=replay, after_seq=after_seq)
    sent = 0
    try:
        for item in backlog:
            if category and item["category"] != category:
                continue
            yield _frame(item)
            sent += 1
            if max_events and sent >= max_events:
                return
        poll_s = 0.1
        last_event = last_frame = time.perf_counter()
        while time.perf_counter() - last_event < idle_timeout_s:
            try:
                item = sub.get(timeout=poll_s)
            except queue.Empty:
                item = None
            if item is not None and (not category
                                     or item["category"] == category):
                yield _frame(item)
                sent += 1
                if max_events and sent >= max_events:
                    return
                last_event = last_frame = time.perf_counter()
            elif time.perf_counter() - last_frame >= KEEPALIVE_S:
                yield KEEPALIVE_FRAME
                last_frame = time.perf_counter()
    finally:
        serve.hub.unsubscribe(sub)


def _frame(item: Dict[str, Any]) -> bytes:
    return sse_frame(item, event=item["category"],
                     event_id=str(item["seq"]))
