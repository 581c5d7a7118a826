"""The service runtime behind ``repro serve``: a long-lived cluster
serving many concurrent job submissions.

Every CLI invocation so far has been batch: build a ClusterRuntime, run
one spec, throw the world away. :class:`ServeRuntime` inverts that —
one process owns a shared simulated cluster for its whole lifetime and
serves traffic against it:

- **Admission control.** Submissions pass a bounded FIFO admission
  queue: at most ``max_concurrent`` jobs run at once, up to
  ``max_queue`` more wait in FIFO order (queued, never dropped), and
  beyond that the submission is rejected with structured backpressure
  (:class:`BackpressureError` → HTTP 503 + a *deterministically
  jittered* ``Retry-After``, so rejected clients never stampede back in
  lockstep).
- **Spec jobs** (``mode="spec"``, the default) execute one isolated
  :class:`~repro.experiments.spec.ExperimentSpec` on a worker thread
  via :func:`~repro.experiments.runner.run_spec` — deterministic, so a
  served job's metrics byte-match the same spec run through
  ``repro run --json``.
- **Pooled jobs** (``mode="pooled"``) join the long-lived
  ClusterRuntime/AppManager as :class:`~repro.cluster.apps.ClusterApp`
  arrivals competing for the shared FIFO/FAIR executor pool. A single
  driver thread owns all simulation state and advances simulated time
  in small steps, so new arrivals interleave with running apps at
  ``sim_step_s`` granularity.
- **Fault tolerance** (see :mod:`repro.api.resilience` and DESIGN.md
  §"Service resilience"): every job has a wall-clock deadline and a
  bounded retry budget — a transient worker failure (a crash, an
  injected fault, a Lambda invoke error) re-queues the job after an
  exponentially backed-off, deterministically jittered delay, while a
  deterministic failure or an exhausted budget lands it in a terminal
  ``failed`` state with a structured
  :class:`~repro.api.schemas.FailureCause`. No silent hangs: a reaper
  thread enforces deadlines even on wedged jobs. The Lambda-bridge
  path is wrapped by a :class:`~repro.api.resilience.CircuitBreaker`
  (consecutive invoke/throttle errors open it; while open the pool
  degrades to VM-only admission; a half-open probe closes it again),
  surfaced as ``serve.breaker.*`` metrics and CAT_SERVE events.
- **Durability.** With a ``state_dir`` configured, every accepted
  submission is journaled to a JSONL write-ahead log
  (:class:`~repro.api.journal.JobJournal`) before it is acknowledged; a
  restarted runtime recovers queued/running jobs idempotently (ids
  resume past everything ever acknowledged, so no duplicates) and
  :meth:`request_drain` checkpoints whatever a graceful shutdown could
  not finish.
- **Telemetry.** An :class:`EventHub` subscribes to the shared
  cluster's EventBus and additionally publishes control-plane lifecycle
  events (``serve.job_queued/started/finished/rejected/retrying/...``,
  registered in the closed taxonomy); ``GET /events`` streams it over
  SSE with bounded per-subscriber buffers and ``Last-Event-ID`` replay.

Thread-safety contract: all simulation objects are touched only by the
driver thread under ``_sim_lock``; HTTP readers take the same lock for
snapshots. The admission table has its own lock and never blocks on
the simulation, which is what keeps admission latency flat under load
(see ``benchmarks/bench_serve_load.py``).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Full, Queue
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.api import schemas
from repro.api.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
    WorkerCrashError,
    is_transient,
    retry_after_s,
)
from repro.api.schemas import (
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    MODE_SPEC,
    FailureCause,
    JobRequest,
    JobStatus,
)
from repro.cluster.apps import build_shared_pool, check_pool_shape
from repro.cluster.pools import DEFAULT_POOL
from repro.observability.categories import (
    CAT_SERVE,
    CAT_TRACE,
    EV_BREAKER_CLOSED,
    EV_BREAKER_HALF_OPEN,
    EV_BREAKER_OPENED,
    EV_CHAOS_INJECTED,
    EV_DRAIN_COMPLETED,
    EV_DRAIN_STARTED,
    EV_JOB_DEADLINE_EXCEEDED,
    EV_JOB_FINISHED,
    EV_JOB_QUEUED,
    EV_JOB_RECOVERED,
    EV_JOB_REJECTED,
    EV_JOB_RETRYING,
    EV_JOB_STARTED,
    validate_event,
)
from repro.observability.serve_obs import (
    MetricFamily,
    MetricSample,
    RollingHistogram,
    SamplingProfiler,
    ServeTracer,
    SLOConfig,
    SLOTracker,
    profiler_families,
    prom_name,
    registry_families,
    render_prometheus,
    rolling_histogram_families,
    slo_families,
    trace_id_for_job,
)

__all__ = [
    "ServeConfig", "ServeRuntime", "EventHub", "Subscription",
    "BackpressureError", "UnknownJobError",
]

#: Cadence of the reaper thread (deadline/retry enforcement). Wall
#: clock; small enough that deadlines land within a few hundredths of a
#: second, large enough to be invisible in admission benchmarks.
_REAPER_TICK_S = 0.02


class BackpressureError(Exception):
    """Admission rejected — the HTTP layer maps this to 503 with a
    structured :class:`~repro.api.schemas.ErrorBody`. ``code`` is
    :data:`~repro.api.schemas.ERR_BACKPRESSURE` for a saturated queue
    or :data:`~repro.api.schemas.ERR_DRAINING` during graceful drain."""

    def __init__(self, message: str, detail: Dict[str, Any],
                 retry_after_s: float,
                 code: str = schemas.ERR_BACKPRESSURE) -> None:
        super().__init__(message)
        self.detail = detail
        self.retry_after_s = retry_after_s
        self.code = code


class UnknownJobError(KeyError):
    """No such job id (HTTP 404)."""


# ---------------------------------------------------------------------------
# Event hub
# ---------------------------------------------------------------------------

class Subscription:
    """One SSE consumer's bounded buffer.

    A slow consumer must never stall the simulation or starve other
    subscribers, so ``put`` drops (and counts) instead of blocking when
    the buffer is full — the drop accounting is deterministic: exactly
    the events published while the buffer sat full are lost, oldest
    kept. A dropped client reconnects with ``Last-Event-ID`` and
    replays what the ring still holds.
    """

    def __init__(self, depth: int) -> None:
        self._queue: Queue = Queue(maxsize=depth)
        self.depth = depth
        #: Events this subscriber lost to backpressure.
        self.dropped = 0

    def put(self, item: Dict[str, Any]) -> bool:
        try:
            self._queue.put_nowait(item)
            return True
        except Full:
            self.dropped += 1
            return False

    def get(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Next event; raises ``queue.Empty`` on timeout."""
        return self._queue.get(timeout=timeout)

    def qsize(self) -> int:
        return self._queue.qsize()


class EventHub:
    """Fan-in/fan-out for the served event stream.

    Exposes the ``record(time, category, name, **fields)`` duck type,
    so the shared cluster's EventBus treats it as one more subscriber;
    the ServeRuntime publishes its own lifecycle events through the
    same method. Events land in a bounded ring (for replay/snapshots)
    and are pushed to every live :class:`Subscription`; a slow consumer
    drops events rather than stalling the simulation.
    """

    def __init__(self, maxlen: int = 4096,
                 subscriber_depth: int = 10000) -> None:
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=maxlen)
        self._subs: List[Subscription] = []
        # Immutable snapshot of ``_subs`` rebuilt on (un)subscribe, so
        # the publish path reads one reference instead of copying the
        # list under the lock on every event.
        self._subs_snapshot: Tuple[Subscription, ...] = ()
        self._lock = threading.Lock()
        self._seq = 0
        self._subscriber_depth = subscriber_depth
        self.dropped = 0

    def record(self, time: float, category: str, name: str,
               **fields: Any) -> None:
        validate_event(category, name)
        item = {"time": time, "category": category, "name": name,
                "fields": dict(fields)}
        with self._lock:
            self._seq += 1
            item["seq"] = self._seq
            self._ring.append(item)
        for sub in self._subs_snapshot:
            sub.put(item)  # a full buffer counts on the subscription

    def snapshot(self, limit: Optional[int] = None,
                 category: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._ring)
        if category:
            items = [i for i in items if i["category"] == category]
        if limit is not None and limit >= 0:
            items = items[-limit:]
        return items

    def subscribe(self, replay: int = 0, after_seq: Optional[int] = None,
                  depth: Optional[int] = None
                  ) -> Tuple[Subscription, List[Dict[str, Any]]]:
        """A live subscription plus its backlog (atomically, so no
        event is missed or duplicated between replay and live).

        ``replay`` asks for the last N ring items; ``after_seq``
        (``Last-Event-ID`` reconnects) asks for every ring item with a
        sequence past the one the client saw, and wins over ``replay``.
        ``depth`` bounds the live buffer (defaults to the hub's).
        """
        sub = Subscription(depth or self._subscriber_depth)
        with self._lock:
            if after_seq is not None:
                items = [i for i in self._ring if i["seq"] > after_seq]
            elif replay > 0:
                items = list(self._ring)[-replay:]
            else:
                items = []
            self._subs.append(sub)
            self._subs_snapshot = tuple(self._subs)
        return sub, items

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)
                self._subs_snapshot = tuple(self._subs)
                # Keep the departed consumer's losses in the total.
                self.dropped += sub.dropped

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"subscribers": len(self._subs),
                    "published": self._seq,
                    "dropped_total": self.dropped
                    + sum(s.dropped for s in self._subs)}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ServeConfig:
    """Control-plane and shared-cluster knobs for one server."""

    #: Jobs allowed to run concurrently (admission bound).
    max_concurrent: int = 8
    #: Submissions allowed to wait beyond the running set; the next one
    #: is rejected with 503 backpressure.
    max_queue: int = 256
    #: Seed of the shared cluster's RandomStreams.
    seed: int = 0
    #: Shared executor pool shape, built as the multijob replay builds
    #: it (:func:`~repro.cluster.apps.build_shared_pool`).
    pool_cores: int = 8
    lambda_cores: int = 0
    pool_style: str = "vm"              # one of POOL_STYLES
    mode: str = "fair"                  # scheduler-pool ordering
    #: Simulated seconds advanced per driver step — the granularity at
    #: which new pooled arrivals interleave with running apps.
    sim_step_s: float = 1.0
    #: Serve state directory; enables the crash-safe job journal
    #: (None = in-memory only, nothing survives a restart).
    state_dir: Optional[str] = None
    #: fsync the journal after every append (durable against power
    #: loss, slower; the default survives process crashes).
    journal_fsync: bool = False
    #: Default wall-clock deadline applied to jobs that do not carry
    #: their own ``deadline_s`` (None = no deadline).
    default_deadline_s: Optional[float] = None
    #: Default bounded-retry cap for transient worker failures.
    max_attempts: int = 3
    #: First-retry backoff (doubles per attempt, deterministic jitter).
    retry_base_backoff_s: float = 0.05
    #: Consecutive Lambda-bridge failures that open the breaker.
    breaker_failure_threshold: int = 5
    #: Seconds an open breaker waits before its half-open probe.
    breaker_cooldown_s: float = 30.0
    #: Graceful-drain budget: seconds running jobs get to finish before
    #: the rest are checkpointed.
    drain_deadline_s: float = 30.0
    #: SLO objectives backing /readyz and the serve.slo.* metric
    #: families (see serve_obs.SLOConfig for semantics).
    slo_window_s: float = 60.0
    slo_availability_target: float = 0.99
    slo_latency_p99_s: float = 0.25
    slo_max_burn_rate: float = 14.4
    #: Attach the sampling profiler to the driver thread (off by
    #: default; `repro serve --profile`). Exposes serve.profile.*
    #: families on /metrics.
    profile: bool = False
    profile_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        if self.sim_step_s <= 0:
            raise ValueError("sim_step_s must be positive")
        check_pool_shape(self.pool_style, self.mode)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if (self.default_deadline_s is not None
                and self.default_deadline_s <= 0):
            raise ValueError("default_deadline_s must be positive")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")
        if self.retry_base_backoff_s < 0:
            raise ValueError("retry_base_backoff_s cannot be negative")
        if self.profile_interval_s <= 0:
            raise ValueError("profile_interval_s must be positive")
        # Range checks for the SLO knobs live in SLOConfig; build one
        # here so a bad value fails at config time, not first scrape.
        self.slo_config()

    def slo_config(self) -> SLOConfig:
        return SLOConfig(window_s=self.slo_window_s,
                         availability_target=self.slo_availability_target,
                         latency_p99_s=self.slo_latency_p99_s,
                         max_burn_rate=self.slo_max_burn_rate)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class _Job:
    """Internal job state; :meth:`status` renders the public model."""

    def __init__(self, job_id: str, request: JobRequest, spec) -> None:
        self.id = job_id
        self.request = request
        self.spec = spec                      # None for pooled jobs
        self.state = JOB_QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.record = None                    # RunRecord (spec jobs)
        self.app = None                       # ClusterApp (pooled jobs)
        self.metrics: Dict[str, Any] = {}
        self.plan: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.done = threading.Event()
        # Resilience state (see repro.api.resilience):
        self.attempts = 0
        self.failure: Optional[FailureCause] = None
        #: Monotonic instant past which the job is failed (None = no
        #: deadline).
        self.deadline_at: Optional[float] = None
        #: Monotonic instant a scheduled retry becomes due.
        self.retry_at: Optional[float] = None
        #: Chaos: crash this many upcoming executions at the worker
        #: boundary (consumed one per attempt).
        self.crash_attempts = 0
        #: True once completion no longer owns a running slot (a
        #: deadline-killed job's worker thread may still be unwinding).
        self.abandoned = False

    def status(self, queue_position: Optional[int] = None) -> JobStatus:
        duration = cost = None
        record_dict = None
        slo_met = None
        if self.record is not None:
            duration = self.record.duration_s
            cost = self.record.cost
            record_dict = self.record.to_dict()
        elif self.app is not None and self.app.latency_s is not None:
            duration = self.app.latency_s
        if (self.request.slo_s is not None and duration is not None
                and duration == duration):  # not NaN
            slo_met = duration <= self.request.slo_s
        return JobStatus(
            job_id=self.id, state=self.state, request=self.request,
            spec_hash=self.spec.spec_hash() if self.spec is not None
            else None,
            queue_position=queue_position,
            submitted_at=self.submitted_at, started_at=self.started_at,
            finished_at=self.finished_at,
            duration_s=duration, cost=cost, slo_met=slo_met,
            metrics=dict(self.metrics), plan=self.plan,
            record=record_dict, error=self.error,
            attempts=self.attempts, failure=self.failure)


class _ChaosWindow:
    """One armed service-level fault with a wall-clock window."""

    def __init__(self, fault, due_at: float,
                 lift_at: Optional[float]) -> None:
        self.fault = fault
        self.due_at = due_at
        self.lift_at = lift_at
        self.applied = False
        self.lifted = lift_at is None
        self.undo = None                      # callable set on apply


# ---------------------------------------------------------------------------
# The service runtime
# ---------------------------------------------------------------------------

class ServeRuntime:
    """One long-lived cluster + admission layer behind the HTTP app."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.hub = EventHub()
        self.started_at = time.time()
        self._t0 = time.monotonic()

        # Live observability plane (see repro.observability.serve_obs):
        # causal spans, rolling admission-latency window, SLO burn
        # rates, and (opt-in) the driver profiler.
        self.tracer = ServeTracer(self.hub, clock=self._now)
        self.slo = SLOTracker(self.config.slo_config())
        self.admission_latency = RollingHistogram(
            window_s=self.config.slo_window_s)
        self.journal_latency = RollingHistogram(
            window_s=self.config.slo_window_s)
        self.profiler: Optional[SamplingProfiler] = None

        # Admission state (its own lock; never blocks on the sim).
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}
        self._pending: Deque[_Job] = deque()
        self._running: set = set()
        self._awaiting_retry: List[_Job] = []
        self._ids = itertools.count(1)
        self._admitted = 0
        self._rejected = 0
        self._recovered = 0
        self._rejections = itertools.count(1)

        # Resilience plumbing.
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.max_attempts,
            base_backoff_s=self.config.retry_base_backoff_s)
        self.breaker: Optional[CircuitBreaker] = None
        self._journal = None
        self._crash_budget = 0
        self._crash_next_submissions = 0
        self._chaos_windows: List[_ChaosWindow] = []
        self._injector = None               # built on the first plan
        self._draining = False
        self._drained = threading.Event()

        # Shared simulated cluster (built in start(); owned by the
        # driver thread under _sim_lock).
        self._sim_lock = threading.RLock()
        self._sim_wakeup = threading.Condition(self._sim_lock)
        self._staged: Deque[Tuple[_Job, Any]] = deque()
        self._active: Dict[str, _Job] = {}
        self._app_index = itertools.count(0)
        self.cluster = None
        self.pool = None
        self.manager = None

        self._planners: Dict[Tuple[int, Optional[float]], Any] = {}
        self._workers = None
        self._driver: Optional[threading.Thread] = None
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServeRuntime":
        """Build the shared cluster, recover the journal, and start
        worker/driver/reaper threads. Idempotent; called by the app's
        startup hook."""
        if self._started:
            return self
        self._started = True
        from concurrent.futures import ThreadPoolExecutor
        self._build_cluster()
        self._wrap_lambda_bridge()
        self._workers = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-serve-job")
        self._driver = threading.Thread(target=self._drive,
                                        name="repro-serve-driver",
                                        daemon=True)
        self._driver.start()
        self._reaper = threading.Thread(target=self._reap,
                                        name="repro-serve-reaper",
                                        daemon=True)
        self._reaper.start()
        if self.config.profile:
            self.profiler = SamplingProfiler(
                interval_s=self.config.profile_interval_s)
            self.profiler.start(self._driver.ident)
        self._open_journal()
        return self

    def close(self) -> None:
        """Stop threads; the cluster object stays readable."""
        if not self._started:
            return
        self._started = False
        self._stop.set()
        if self.profiler is not None:
            self.profiler.stop()
        with self._sim_wakeup:
            self._sim_wakeup.notify_all()
        if self._driver is not None:
            self._driver.join(timeout=5.0)
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
        if self._workers is not None:
            self._workers.shutdown(wait=True)
        if self._journal is not None:
            self._journal.close()

    def hard_stop(self) -> None:
        """Die like ``kill -9`` (tests/chaos): no drain, no checkpoint,
        the journal handle dropped mid-flight. Running worker threads
        are left to unwind on their own; nothing they finish after this
        point reaches the journal — exactly the state a crashed process
        leaves behind for :meth:`start` of the next incarnation."""
        if self._journal is not None:
            self._journal.close()
        self._started = False
        self._stop.set()
        if self.profiler is not None:
            self.profiler.stop()
        with self._sim_wakeup:
            self._sim_wakeup.notify_all()
        if self._workers is not None:
            self._workers.shutdown(wait=False, cancel_futures=True)

    def _build_cluster(self) -> None:
        from repro.cluster.runtime import ClusterRuntime
        from repro.spark.config import SparkConf
        from repro.workloads.registry import make_workload

        cfg = self.config
        self.cluster = ClusterRuntime(cfg.seed, trace_enabled=False)
        self.cluster.bus.subscribe(self.hub)
        shape = make_workload("sparkpi").spec
        self.manager = build_shared_pool(
            self.cluster, SparkConf(), pool_cores=cfg.pool_cores,
            lambda_cores=cfg.lambda_cores, pool_style=cfg.pool_style,
            mode=cfg.mode, max_concurrent=None,
            worker_itype=shape.worker_itype,
            segue_at_s=shape.vm_ready_delay_s)
        self.pool = self.manager.pool

    def _wrap_lambda_bridge(self) -> None:
        """Put the circuit breaker between the pool and the provider's
        ``invoke_lambda``: consecutive invoke/throttle failures open
        it; while open, invocations fast-fail (the pool's existing
        degradation path turns that into VM-only admission) without
        touching the provider."""
        from repro.cloud.lambda_fn import (LambdaInvokeError,
                                           LambdaThrottledError)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            on_transition=self._on_breaker_transition)
        provider = self.cluster.provider
        inner = provider.invoke_lambda
        metrics = self.cluster.metrics

        def guarded(*args: Any, **kwargs: Any):
            if not self.breaker.allow():
                metrics.counter("serve.breaker.fast_fails").inc()
                raise LambdaThrottledError(
                    "circuit breaker open: lambda bridge suspended, "
                    "degrading to VM-only admission")
            try:
                result = inner(*args, **kwargs)
            except LambdaInvokeError:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return result

        provider.invoke_lambda = guarded

    def _on_breaker_transition(self, old: str, new: str) -> None:
        metrics = self.cluster.metrics
        event = {BREAKER_OPEN: EV_BREAKER_OPENED,
                 BREAKER_HALF_OPEN: EV_BREAKER_HALF_OPEN,
                 BREAKER_CLOSED: EV_BREAKER_CLOSED}[new]
        if new == BREAKER_OPEN:
            metrics.counter("serve.breaker.opens").inc()
        elif new == BREAKER_CLOSED:
            metrics.counter("serve.breaker.closes").inc()
        metrics.gauge("serve.breaker.state").set(
            {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1,
             BREAKER_OPEN: 2}[new])
        self.hub.record(self._now(), CAT_SERVE, event, previous=old)
        # Every in-flight job is affected by a breaker transition, so
        # each open trace gets the annotation.
        self.tracer.annotate_active(f"breaker:{old}->{new}", state=new)

    def _open_journal(self) -> None:
        """Open (and recover) the WAL when a state dir is configured."""
        if self.config.state_dir is None:
            return
        from repro.api.journal import JobJournal
        self._journal = JobJournal(self.config.state_dir,
                                   fsync=self.config.journal_fsync,
                                   on_append=self._journal_append_observed)
        if self._journal.max_seq:
            self._ids = itertools.count(self._journal.max_seq + 1)
        for rec in self._journal.recovered_jobs():
            self._requeue_recovered(rec)

    def _journal_append_observed(self, seconds: float) -> None:
        """Journal hook: fold one append's write+flush(+fsync) latency
        into the rolling window and the registry."""
        self.journal_latency.observe(seconds)
        self.cluster.metrics.histogram(
            "serve.journal.append_latency_seconds").observe(seconds)

    def _requeue_recovered(self, rec) -> None:
        """Re-queue one journaled job from the previous incarnation."""
        try:
            request = JobRequest.from_dict(rec.request)
            spec = request.to_spec() if request.mode == MODE_SPEC else None
        except schemas.SchemaError as exc:
            # A journaled request this build can no longer parse is
            # terminal, not a crash loop.
            self._journal.finished(rec.job_id, JOB_FAILED,
                                   error=f"unrecoverable request: {exc}")
            return
        with self._lock:
            job = _Job(rec.job_id, request, spec)
            job.attempts = rec.attempts
            job.deadline_at = self._deadline_for(request)
            self._jobs[job.id] = job
            self._pending.append(job)
            self._recovered += 1
            self.hub.record(self._now(), CAT_SERVE, EV_JOB_RECOVERED,
                            job=job.id, workload=request.workload,
                            mode=request.mode,
                            prior_attempts=rec.attempts,
                            checkpointed=rec.checkpointed)
            self.cluster.metrics.counter("serve.jobs.recovered").inc()
            # The recovered job continues the trace its job id names —
            # trace ids are hash-derived, so the new incarnation's root
            # span lands in the same trace as the lost one's.
            self.tracer.begin_job(job.id, request.workload, request.mode,
                                  recovered=True,
                                  prior_attempts=rec.attempts)
            self._pump_locked()

    def _now(self) -> float:
        """Wall seconds since server start (the serve-event clock)."""
        return round(time.monotonic() - self._t0, 6)

    def _deadline_for(self, request: JobRequest) -> Optional[float]:
        deadline_s = (request.deadline_s
                      if request.deadline_s is not None
                      else self.config.default_deadline_s)
        if deadline_s is None:
            return None
        return time.monotonic() + deadline_s

    def _max_attempts_for(self, job: _Job) -> int:
        return (job.request.max_attempts
                if job.request.max_attempts is not None
                else self.retry_policy.max_attempts)

    # -- submission / admission -------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> JobStatus:
        """Validate, admission-check, journal, and enqueue one
        submission.

        O(1) and simulation-free: this is the path whose p99 latency
        the load bench reports. Raises
        :class:`~repro.api.schemas.SchemaError` on a bad payload and
        :class:`BackpressureError` when saturated or draining.
        """
        t_submit = time.perf_counter()
        request = JobRequest.from_dict(payload)
        if request.mode == MODE_SPEC:
            spec = request.to_spec()
        else:
            spec = None
            self._validate_pooled(request)

        with self._lock:
            if self._draining:
                self._rejected += 1
                self.slo.record_admission(False, 0.0)
                raise BackpressureError(
                    "server is draining; not admitting new jobs",
                    detail={"draining": True},
                    retry_after_s=self._retry_after_locked(request),
                    code=schemas.ERR_DRAINING)
            if (len(self._running) >= self.config.max_concurrent
                    and len(self._pending) >= self.config.max_queue):
                self._rejected += 1
                detail = {"running": len(self._running),
                          "queued": len(self._pending),
                          "max_concurrent": self.config.max_concurrent,
                          "max_queue": self.config.max_queue}
                self.hub.record(self._now(), CAT_SERVE, EV_JOB_REJECTED,
                                workload=request.workload,
                                mode=request.mode, **detail)
                self.slo.record_admission(False, 0.0)
                raise BackpressureError(
                    "admission queue saturated "
                    f"({len(self._running)} running, "
                    f"{len(self._pending)} queued)",
                    detail=detail,
                    retry_after_s=self._retry_after_locked(request))
            job = _Job(f"job-{next(self._ids):06d}", request, spec)
            job.deadline_at = self._deadline_for(request)
            if self._crash_next_submissions > 0:
                # Chaos: marked under the admission lock, so the crash
                # lands on exactly this job no matter how fast the pump
                # starts it.
                self._crash_next_submissions -= 1
                job.crash_attempts += 1
            # WAL discipline: journal before acknowledging.
            if self._journal is not None:
                self._journal.submitted(job.id, request.to_dict())
            self._jobs[job.id] = job
            self._pending.append(job)
            self._admitted += 1
            self.hub.record(self._now(), CAT_SERVE, EV_JOB_QUEUED,
                            job=job.id, workload=request.workload,
                            mode=request.mode,
                            depth=len(self._pending),
                            running=len(self._running))
            # Root + admission spans open before the pump so the first
            # attempt lands inside the trace.
            self.tracer.begin_job(job.id, request.workload, request.mode)
            if self._journal is not None:
                self.tracer.annotate_job(job.id, "journal:submitted")
            position = len(self._pending) - 1
            self._pump_locked()
            latency_s = time.perf_counter() - t_submit
            self.admission_latency.observe(latency_s)
            self.slo.record_admission(True, latency_s)
            return job.status(queue_position=(
                position if job.state == JOB_QUEUED else None))

    def _retry_after_locked(self, request: JobRequest) -> float:
        """Deterministic, spread-out ``Retry-After`` for a rejection.

        Keyed on the submission's identity plus a per-server rejection
        counter — not ``random`` (the lint bans it) and not a constant
        (which would synchronize every shed client into one retry
        storm; see ISSUE 7)."""
        key = (f"{request.workload}:{request.seed}:"
               f"{next(self._rejections)}")
        return retry_after_s(key)

    def _validate_pooled(self, request: JobRequest) -> None:
        from repro.workloads.registry import WORKLOADS
        if request.workload not in WORKLOADS:
            raise schemas.SchemaError(
                f"unknown workload {request.workload!r} for a pooled "
                f"job; known: {', '.join(sorted(WORKLOADS))}")
        if request.pool != DEFAULT_POOL:
            raise schemas.SchemaError(
                f"unknown scheduler pool {request.pool!r}; "
                f"known: {[DEFAULT_POOL]}")

    def _pump_locked(self) -> None:
        """Admit queued jobs while running slots are free (FIFO).
        During a drain nothing new starts — queued jobs wait to be
        checkpointed."""
        if self._draining:
            return
        while (self._pending
               and len(self._running) < self.config.max_concurrent):
            job = self._pending.popleft()
            self._running.add(job.id)
            job.state = JOB_RUNNING
            job.started_at = time.time()
            job.attempts += 1
            if self._journal is not None:
                self._journal.started(job.id, job.attempts)
            self.hub.record(self._now(), CAT_SERVE, EV_JOB_STARTED,
                            job=job.id, mode=job.request.mode,
                            attempt=job.attempts,
                            queued_s=round(job.started_at
                                           - job.submitted_at, 6))
            self.tracer.job_started(job.id, job.attempts)
            if self._journal is not None:
                self.tracer.annotate_job(job.id, "journal:started",
                                         attempt=job.attempts)
            if job.request.mode == MODE_SPEC:
                self._workers.submit(self._run_spec_job, job)
            else:
                self._stage_pooled(job)

    # -- spec jobs ---------------------------------------------------------

    def _run_spec_job(self, job: _Job) -> None:
        from repro.experiments.runner import run_spec
        try:
            self._maybe_inject_crash(job)
            record = run_spec(job.spec)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            self._handle_worker_failure(job, exc)
            return
        job.record = record
        job.metrics = dict(record.metrics)
        planner = {k: v for k, v in record.metrics.items()
                   if k.startswith("planner.")}
        if planner:
            job.plan = planner
        if record.failed:
            # A deterministic simulation failure: retrying replays the
            # identical outcome, so it is terminal on the first try.
            message = record.failure_reason or record.error or "job failed"
            self._finish(job, error=message, cause=FailureCause(
                code=schemas.FAIL_JOB_FAILED, message=message,
                retryable=False, attempts=job.attempts))
        else:
            self._finish(job)

    def _maybe_inject_crash(self, job: _Job) -> None:
        """Chaos hook: consume one crash token at the worker boundary."""
        crash = False
        with self._lock:
            if job.crash_attempts > 0:
                job.crash_attempts -= 1
                crash = True
            elif self._crash_budget > 0:
                self._crash_budget -= 1
                crash = True
        if crash:
            raise WorkerCrashError(
                f"chaos: worker thread killed (attempt {job.attempts})")

    def _handle_worker_failure(self, job: _Job, exc: BaseException) -> None:
        """Classify a worker-boundary exception: schedule a bounded,
        backed-off retry for transient errors, terminal-fail the rest."""
        message = f"{type(exc).__name__}: {exc}"
        transient = is_transient(exc)
        now = time.monotonic()
        deadline_ok = job.deadline_at is None or now < job.deadline_at
        if (transient and deadline_ok and not self._stop.is_set()
                and job.attempts < self._max_attempts_for(job)):
            backoff = self.retry_policy.backoff_s(job.id, job.attempts)
            with self._lock:
                if job.done.is_set():
                    return
                self._running.discard(job.id)
                job.state = JOB_QUEUED
                job.retry_at = now + backoff
                self._awaiting_retry.append(job)
                self.hub.record(self._now(), CAT_SERVE, EV_JOB_RETRYING,
                                job=job.id, attempt=job.attempts,
                                backoff_s=round(backoff, 6), error=message)
                self.cluster.metrics.counter("serve.jobs.retries").inc()
                self.tracer.job_retrying(job.id, job.attempts, backoff,
                                         message)
                self._pump_locked()  # the freed slot can admit others
            return
        if transient:
            code = schemas.FAIL_RETRIES_EXHAUSTED
            if not deadline_ok:
                code = schemas.FAIL_DEADLINE_EXCEEDED
        else:
            code = schemas.FAIL_WORKER_EXCEPTION
        self._finish(job, error=message, cause=FailureCause(
            code=code, message=message, retryable=transient,
            attempts=job.attempts))

    # -- pooled jobs -------------------------------------------------------

    def _stage_pooled(self, job: _Job) -> None:
        from repro.cluster.apps import ClusterApp
        from repro.workloads.registry import make_workload
        workload = make_workload(job.request.workload,
                                 **job.request.workload_params)
        with self._sim_wakeup:
            app = ClusterApp(job.id, next(self._app_index), workload,
                             parallelism=job.request.parallelism,
                             registry_name=job.request.workload)
            job.app = app
            self._staged.append((job, app))
            self._sim_wakeup.notify_all()

    def _drive(self) -> None:
        """The driver thread: sole owner of simulated time."""
        while not self._stop.is_set():
            with self._sim_wakeup:
                while (not self._staged and not self._active
                       and not self._stop.is_set()):
                    self._sim_wakeup.wait(timeout=0.5)
                if self._stop.is_set():
                    return
            self._step_sim()

    def _step_sim(self) -> None:
        """Inject staged arrivals, advance one step, reap completions."""
        finished: List[_Job] = []
        with self._sim_lock:
            env = self.cluster.env
            while self._staged:
                job, app = self._staged.popleft()
                self._active[job.id] = job
                self.manager.submit(app)
            if self._active:
                # Stamp every sim event published during this step with
                # the trace ids of the in-flight pooled jobs: the link
                # from wall-clock spans into the sim's CAT_* events.
                self.cluster.bus.set_context({"trace_ids": ",".join(
                    trace_id_for_job(jid)
                    for jid in sorted(self._active))})
                try:
                    # Batch API: one Python call per driver tick instead
                    # of a stop Timeout + per-event loop re-entry. The
                    # kernel consumes the same sequence number the stop
                    # timeout would have, so event ordering is unchanged.
                    env.step_until(env.now + self.config.sim_step_s)
                finally:
                    self.cluster.bus.set_context(None)
            for job_id in list(self._active):
                job = self._active[job_id]
                if job.app.finish_time is not None:
                    del self._active[job_id]
                    finished.append(job)
        for job in finished:
            self._finish_pooled(job)

    def _finish_pooled(self, job: _Job) -> None:
        app = job.app
        job.metrics = {
            "workload": app.workload.name,
            "latency_s": app.latency_s,
            "queueing_delay_s": app.queueing_delay_s,
            "duration_s": app.run_duration_s,
            "busy_seconds": app.busy_seconds,
        }
        if app.failed:
            message = app.failure_reason or "pooled app failed"
            self._finish(job, error=message, cause=FailureCause(
                code=schemas.FAIL_JOB_FAILED, message=message,
                retryable=False, attempts=job.attempts))
        else:
            self._finish(job)

    # -- the reaper ----------------------------------------------------------

    def _reap(self) -> None:
        """Deadline/retry/chaos enforcement on a small wall-clock tick.

        Runs independently of workers and the sim driver, so a wedged
        job cannot suppress its own deadline — the no-silent-hangs
        guarantee."""
        while not self._stop.wait(_REAPER_TICK_S):
            now = time.monotonic()
            self._fire_due_retries(now)
            self._enforce_deadlines(now)
            self._advance_chaos(now)

    def _fire_due_retries(self, now: float) -> None:
        with self._lock:
            due = [j for j in self._awaiting_retry
                   if j.retry_at is not None and now >= j.retry_at]
            for job in due:
                self._awaiting_retry.remove(job)
                job.retry_at = None
                self._pending.append(job)
            if due:
                self._pump_locked()

    def _enforce_deadlines(self, now: float) -> None:
        with self._lock:
            expired = [j for j in self._jobs.values()
                       if j.deadline_at is not None
                       and now >= j.deadline_at
                       and not j.done.is_set()]
        for job in expired:
            with self._lock:
                if job.done.is_set():
                    continue
                if job in self._pending:
                    self._pending.remove(job)
                if job in self._awaiting_retry:
                    self._awaiting_retry.remove(job)
                # A running job's worker thread cannot be killed from
                # outside; mark it abandoned so its eventual completion
                # is a no-op and its slot accounting stays consistent.
                job.abandoned = True
            self.hub.record(self._now(), CAT_SERVE,
                            EV_JOB_DEADLINE_EXCEEDED, job=job.id,
                            attempts=job.attempts)
            self.cluster.metrics.counter(
                "serve.jobs.deadline_exceeded").inc()
            message = (f"deadline exceeded after "
                       f"{job.attempts} attempt(s)")
            self._finish(job, error=message, cause=FailureCause(
                code=schemas.FAIL_DEADLINE_EXCEEDED, message=message,
                retryable=False, attempts=job.attempts))

    # -- completion --------------------------------------------------------

    def _finish(self, job: _Job, error: Optional[str] = None,
                cause: Optional[FailureCause] = None) -> None:
        """Terminal transition; idempotent (a deadline kill and the
        zombie worker's own completion may both arrive)."""
        with self._lock:
            if job.done.is_set():
                return
            self._running.discard(job.id)
            job.finished_at = time.time()
            job.error = error
            job.failure = cause
            job.state = JOB_FAILED if error is not None else JOB_COMPLETED
            # A checkpointed job is terminal for *this* incarnation only
            # — request_drain already journaled the checkpoint op, and a
            # "finished" line here would stop the next incarnation from
            # recovering it.
            checkpoint = (cause is not None
                          and cause.code == schemas.FAIL_CHECKPOINTED)
            if self._journal is not None and not checkpoint:
                self._journal.finished(job.id, job.state, error=error)
            duration = (job.record.duration_s
                        if job.record is not None else
                        job.metrics.get("latency_s"))
            self.hub.record(self._now(), CAT_SERVE, EV_JOB_FINISHED,
                            job=job.id, state=job.state,
                            attempts=job.attempts,
                            duration_s=duration,
                            cost=(job.record.cost
                                  if job.record is not None else None))
            if self._journal is not None:
                self.tracer.annotate_job(
                    job.id, "journal:checkpointed" if checkpoint
                    else "journal:finished")
            self.tracer.job_finished(job.id, job.state, job.attempts,
                                     error=error)
            self.slo.record_job_outcome(error is None)
            job.done.set()
            self._pump_locked()
            self._idle.notify_all()

    # -- health ---------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Liveness: the process is up and answering. Carries enough
        for probes to alert on WAL growth (``journal_lag_ops`` = ops
        appended since the last compaction; compaction happens at
        open, so this is the replay debt a restart would pay)."""
        return {"status": "ok", "uptime_s": self._now(),
                "started": self._started,
                "schema_version": schemas.SCHEMA_VERSION,
                "journal_enabled": self._journal is not None,
                "journal_lag_ops": (self._journal.ops_since_compaction
                                    if self._journal is not None
                                    else None)}

    def readyz(self) -> Tuple[bool, Dict[str, Any]]:
        """Readiness: may a load balancer send this server traffic?"""
        with self._lock:
            queue_below_max = len(self._pending) < self.config.max_queue
            draining = self._draining
        checks = {
            "driver_alive": (self._driver is not None
                             and self._driver.is_alive()),
            "queue_below_max": queue_below_max,
            "breaker_not_open": (self.breaker is None
                                 or self.breaker.state != BREAKER_OPEN),
            "not_draining": not draining,
            # Error budget burning faster than max_burn_rate means the
            # server is degraded even if every other check is green.
            "slo_burn_ok": self.slo.healthy(),
        }
        return all(checks.values()), checks

    # -- chaos ------------------------------------------------------------------

    def inject_chaos(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Apply one chaos instruction to the live server.

        Keys (combinable):

        - ``plan`` — a named plan from
          :data:`repro.simulation.faults.CHAOS_PLANS` (with optional
          ``start_s``/``duration_s``/``factor`` overrides), or
          ``faults`` — raw FaultSpec dicts, applied by the batch
          ``FaultInjector`` on *host*-clock windows (the serve plane's
          native clock); spec-mode jobs take sim-clock FaultPlans
          through their own ``faults`` field.
        - ``kill_workers`` — crash the next N spec-job executions at
          the worker boundary (exercises the retry path).
        - ``crash_next_submissions`` — crash the first execution of the
          next N *submitted* jobs (marked under the admission lock, so
          the victims are deterministic even when slots are free).
        - ``stall_driver_s`` — hold the sim lock this long (a wedged
          driver); admission and job reads must keep answering.
        - ``scale_lambda`` — invoke N Lambda executors through the
          breaker-wrapped bridge (the chaos harness's breaker probe).

        Returns what was applied plus a breaker snapshot.
        """
        payload = dict(payload)
        applied: Dict[str, Any] = {}
        if "plan" in payload or "faults" in payload:
            applied.update(self._arm_chaos_plan(payload))
        if payload.get("kill_workers"):
            n = int(payload["kill_workers"])
            with self._lock:
                self._crash_budget += n
            applied["kill_workers"] = n
        if payload.get("crash_next_submissions"):
            n = int(payload["crash_next_submissions"])
            with self._lock:
                self._crash_next_submissions += n
            applied["crash_next_submissions"] = n
        if payload.get("stall_driver_s"):
            stall_s = float(payload["stall_driver_s"])
            threading.Thread(target=self._stall_driver, args=(stall_s,),
                             name="repro-chaos-stall",
                             daemon=True).start()
            applied["stall_driver_s"] = stall_s
        if payload.get("scale_lambda"):
            applied["scale_lambda"] = self._chaos_scale_lambda(
                int(payload["scale_lambda"]))
        if applied:
            self.hub.record(self._now(), CAT_SERVE, EV_CHAOS_INJECTED,
                            **{k: v for k, v in applied.items()
                               if k != "scale_lambda"})
            self.cluster.metrics.counter("serve.chaos.injections").inc()
        return {"applied": applied,
                "breaker": (self.breaker.snapshot()
                            if self.breaker is not None else None)}

    def _arm_chaos_plan(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        from repro.simulation.faults import (FaultInjector, FaultPlan,
                                             chaos_plan)
        if "plan" in payload:
            kwargs = {k: payload[k] for k in ("duration_s", "factor")
                      if payload.get(k) is not None}
            plan = chaos_plan(str(payload["plan"]), **kwargs)
        else:
            plan = FaultPlan.coerce(payload["faults"])
        with self._sim_lock:
            if self._injector is None:
                # No plan and no trace sink: windows call apply() and
                # /events stays as it was.
                self._injector = FaultInjector(
                    self.cluster.env, self.cluster.rng, None).attach(
                        scheduler=self.pool.scheduler,
                        provider=self.cluster.provider,
                        storages=self.pool.storages)
        start_s = float(payload.get("start_s", 0.0))
        now = time.monotonic()
        with self._lock:
            for fault in plan:
                due = now + start_s + (fault.at_s or 0.0)
                lift = (due + fault.duration_s
                        if fault.duration_s is not None else None)
                self._chaos_windows.append(_ChaosWindow(fault, due, lift))
        # Apply already-due windows synchronously so a start_s=0 storm
        # is in force when this call returns.
        self._advance_chaos(time.monotonic())
        return {"plan": payload.get("plan", f"{len(plan)} fault(s)"),
                "faults": len(plan)}

    def _advance_chaos(self, now: float) -> None:
        with self._lock:
            due = [w for w in self._chaos_windows
                   if not w.applied and now >= w.due_at]
            lift = [w for w in self._chaos_windows
                    if w.applied and not w.lifted
                    and w.lift_at is not None and now >= w.lift_at]
        for window in due:
            window.applied = True
            with self._sim_lock:
                window.undo = self._injector.apply(window.fault)
        for window in lift:
            window.lifted = True
            if window.undo is not None:
                with self._sim_lock:
                    window.undo()
        with self._lock:
            self._chaos_windows = [w for w in self._chaos_windows
                                   if not (w.applied and w.lifted)]

    def _stall_driver(self, stall_s: float) -> None:
        with self._sim_lock:
            time.sleep(stall_s)

    def _chaos_scale_lambda(self, count: int) -> Dict[str, Any]:
        with self._sim_lock:
            before = self.pool.failed_invocations
            self.pool.invoke_lambda_executors(count)
            return {"requested": count,
                    "failed": self.pool.failed_invocations - before}

    # -- graceful drain ----------------------------------------------------------

    def request_drain(self, deadline_s: Optional[float] = None
                      ) -> Dict[str, Any]:
        """SIGTERM path: stop admitting (503 ``draining``), let running
        jobs finish up to the drain deadline, checkpoint the rest to
        the journal, and report what happened. Idempotent."""
        budget = (self.config.drain_deadline_s
                  if deadline_s is None else float(deadline_s))
        with self._lock:
            already = self._draining
            self._draining = True
        if already:
            self._drained.wait(timeout=budget + 1.0)
            return {"draining": True, "already_draining": True}
        self.hub.record(self._now(), CAT_SERVE, EV_DRAIN_STARTED,
                        deadline_s=budget,
                        running=len(self._running),
                        queued=len(self._pending))
        deadline = time.monotonic() + budget
        with self._idle:
            while self._running:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=min(remaining, 0.1))
        checkpointed: List[str] = []
        with self._lock:
            leftovers = list(self._pending) + list(self._awaiting_retry)
            self._pending.clear()
            self._awaiting_retry.clear()
            still_running = len(self._running)
        for job in leftovers:
            if self._journal is not None:
                self._journal.checkpointed(job.id)
            message = "checkpointed by graceful drain"
            self._finish(job, error=message, cause=FailureCause(
                code=schemas.FAIL_CHECKPOINTED, message=message,
                retryable=True, attempts=job.attempts))
            checkpointed.append(job.id)
        summary = {"drained": still_running == 0,
                   "finished_in_time": still_running == 0,
                   "still_running": still_running,
                   "checkpointed": checkpointed,
                   "deadline_s": budget}
        self.hub.record(self._now(), CAT_SERVE, EV_DRAIN_COMPLETED,
                        **{k: v for k, v in summary.items()
                           if k != "checkpointed"},
                        checkpointed=len(checkpointed))
        self._drained.set()
        return summary

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- queries -----------------------------------------------------------

    def job(self, job_id: str) -> JobStatus:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job.status(queue_position=self._position_locked(job))

    def jobs(self) -> List[JobStatus]:
        with self._lock:
            return [job.status(queue_position=self._position_locked(job))
                    for job in self._jobs.values()]

    def _position_locked(self, job: _Job) -> Optional[int]:
        if job.state != JOB_QUEUED:
            return None
        for pos, queued in enumerate(self._pending):
            if queued.id == job.id:
                return pos
        return None

    def admission_stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "running": len(self._running),
                "queued": len(self._pending),
                "awaiting_retry": len(self._awaiting_retry),
                "finished": sum(1 for j in self._jobs.values() if j.done.is_set()),
                "submitted": self._admitted,
                "rejected": self._rejected,
                "recovered": self._recovered,
                "draining": self._draining,
                "max_concurrent": self.config.max_concurrent,
                "max_queue": self.config.max_queue,
            }

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's span tree plus the sim-time events stamped with
        its trace id (pooled jobs; spec jobs run on an isolated
        cluster, so their sim events never reach this hub)."""
        with self._lock:
            if job_id not in self._jobs:
                raise UnknownJobError(job_id)
        trace_id = self.tracer.trace_id(job_id)
        sim_events = []
        if trace_id is not None:
            for item in self.hub.snapshot():
                if item["category"] in (CAT_SERVE, CAT_TRACE):
                    continue
                stamped = str(item["fields"].get("trace_ids", ""))
                if trace_id in stamped:
                    sim_events.append({
                        "time": item["time"],
                        "category": item["category"],
                        "name": item["name"],
                        "fields": dict(item["fields"])})
        return {"job_id": job_id, "trace_id": trace_id,
                "spans": self.tracer.spans(job_id),
                "sim_events": sim_events}

    def metrics_text(self) -> str:
        """The Prometheus exposition behind ``GET /metrics``.

        Merges the deterministic registry (serve counters, breaker
        state, sim-fed metrics) with the live gauges, the rolling
        admission/journal latency windows, the SLO burn rates, and —
        when ``--profile`` is on — the profiler families. Live
        families win name collisions with registry-derived ones, so
        the exposition never repeats a family.
        """
        stats = self.admission_stats()
        with self._lock:
            failed = sum(1 for j in self._jobs.values()
                         if j.state == JOB_FAILED)
        hub_stats = self.hub.stats()
        live: List[MetricFamily] = []

        def gauge(dotted: str, value: float, help_text: str) -> None:
            live.append(MetricFamily(
                name=prom_name(dotted), type="gauge", help=help_text,
                samples=[MetricSample(float(value))]))

        def counter(dotted: str, value: float, help_text: str) -> None:
            live.append(MetricFamily(
                name=prom_name(dotted) + "_total", type="counter",
                help=help_text, samples=[MetricSample(float(value))]))

        gauge("uptime_seconds", self._now(), "wall seconds since start")
        gauge("serve.jobs.running", stats["running"],
              "jobs holding a running slot")
        gauge("serve.jobs.queued", stats["queued"],
              "jobs waiting in the admission queue")
        gauge("serve.jobs.awaiting_retry", stats["awaiting_retry"],
              "jobs in retry backoff")
        gauge("serve.jobs.failed", failed, "jobs in the failed state")
        gauge("serve.queue.max", self.config.max_queue,
              "admission queue bound")
        counter("serve.jobs.submitted", stats["submitted"],
                "submissions accepted")
        counter("serve.jobs.rejected", stats["rejected"],
                "submissions shed with 503 backpressure")
        counter("serve.events.published", hub_stats["published"],
                "events published to the serve hub")
        counter("serve.events.dropped", hub_stats["dropped_total"],
                "events dropped by slow SSE subscribers")
        if self.breaker is not None:
            gauge("serve.breaker.state",
                  {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1,
                   BREAKER_OPEN: 2}[self.breaker.state],
                  "lambda-bridge breaker (0 closed, 1 half-open, 2 open)")
        if self._journal is not None:
            gauge("serve.journal.lag_ops",
                  self._journal.ops_since_compaction,
                  "journal ops since the last compaction")
        live.extend(rolling_histogram_families(
            prom_name("serve.admission_latency_seconds"),
            self.admission_latency,
            "submit() wall latency over the rolling window"))
        if self._journal is not None:
            live.extend(rolling_histogram_families(
                prom_name("serve.journal.append_seconds"),
                self.journal_latency,
                "journal append latency over the rolling window"))
        live.extend(slo_families(self.slo))
        if self.profiler is not None:
            live.extend(profiler_families(self.profiler))

        families = {f.name: f
                    for f in registry_families(self.cluster.metrics)}
        for fam in live:
            families[fam.name] = fam
        return render_prometheus(families.values())

    def executors(self) -> List[Dict[str, Any]]:
        with self._sim_lock:
            return self.pool.executor_infos()

    def pool_stats(self) -> Dict[str, Any]:
        with self._sim_lock:
            pools = self.pool.pools.stats()
            manager = self.manager.snapshot()
            sim_now = self.cluster.env.now
            capacity = {
                "vm_cores": self.pool.vm_capacity,
                "lambda_executors": self.pool.live_lambda_executors,
                "style": self.config.pool_style,
            }
        return {"pools": pools, "manager": manager,
                "capacity": capacity, "sim_time_s": sim_now,
                "admission": self.admission_stats()}

    def plan(self, workload: str, slo_s: Optional[float] = None,
             margin: Optional[float] = None,
             seed: Optional[int] = None) -> Dict[str, Any]:
        """Dry-run SplitPlanner ranking (memoized per seed+margin, so
        repeated queries for one workload probe it once)."""
        from repro.planner import SplitPlanner
        from repro.planner.planner import DEFAULT_SLO_MARGIN
        use_seed = self.config.seed if seed is None else int(seed)
        use_margin = DEFAULT_SLO_MARGIN if margin is None else float(margin)
        key = (use_seed, use_margin)
        with self._lock:
            planner = self._planners.get(key)
            if planner is None:
                planner = SplitPlanner(seed=use_seed, slo_margin=use_margin)
                self._planners[key] = planner
        plan = planner.plan(workload, slo_s=slo_s)
        return schemas.plan_payload(plan)

    def service_info(self) -> Dict[str, Any]:
        from repro import __version__
        return {
            "service": "repro-serve",
            "version": __version__,
            "schema_version": schemas.SCHEMA_VERSION,
            "started_at": self.started_at,
            "uptime_s": self._now(),
            "seed": self.config.seed,
            "endpoints": ["/", "/jobs", "/jobs/{id}", "/executors",
                          "/pools", "/plan", "/events", "/healthz",
                          "/readyz", "/chaos", "/metrics",
                          "/trace/{job_id}", "/dashboard"],
        }

    # -- synchronization helpers (tests, benches, graceful shutdown) ------

    def drain(self, timeout: float = 120.0) -> bool:
        """Block until every submitted job finished; True on success."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending or self._running or self._awaiting_retry:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=min(remaining, 0.25))
        return True

    def wait_for(self, job_id: str, timeout: float = 120.0) -> JobStatus:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        job.done.wait(timeout=timeout)
        return self.job(job_id)
