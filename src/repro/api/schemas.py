"""One schema module for every JSON surface.

Before the control plane, each CLI command grew its own ad-hoc JSON
shape: ``run``/``profile``/``stream --json`` wrote raw RunRecord rows,
``plan --dry-run --json`` wrote a bare list of plan dicts, and any HTTP
layer would have invented a third vocabulary. This module is the single
source of truth both the CLI and the ``repro serve`` API serialize
through, so the two surfaces can never drift:

- :class:`JobRequest` — what a client submits (``POST /jobs``);
- :class:`JobStatus` — one job's lifecycle + results (``GET /jobs/{id}``
  and, for completed spec jobs, the embedded RunRecord dict);
- :class:`PlanCandidate` — one ranked SplitPlanner entry;
- :class:`ErrorBody` — structured errors (including 503 backpressure);
- :class:`ResponseEnvelope` — the versioned wrapper every payload rides
  in: ``{"schema_version": ..., "kind": ..., "data": ...}``.

Models are frozen-ish dataclasses with explicit validators (the repo
idiom — see ExperimentSpec, FaultSpec, ServeConfig) rather than pydantic,
so the schema layer adds no dependency beyond the standard library and
works identically under the CLI, the HTTP app, and tests.

Serialization is deterministic: :func:`dumps` sorts keys and uses
Python's shortest float repr, so equal payloads are byte-identical —
the property the experiment cache and the golden tests already rely on
for RunRecords now holds for every JSON surface.

Legacy shapes: the one-release pre-envelope RunRecord shim promised in
the consolidation release is gone — :func:`unwrap_record` now raises a
clear :class:`SchemaError` pointing at the envelope format; re-export
old rows with a current ``--json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Version stamp carried by every envelope. Bump on breaking payload
#: changes; readers reject versions they do not understand.
SCHEMA_VERSION = "1"

# Envelope kinds (closed set; extend here, not at call sites).
KIND_RUN_RECORD = "run_record"
KIND_JOB_STATUS = "job_status"
KIND_JOB_LIST = "job_list"
KIND_PLAN = "plan"
KIND_POOL_STATS = "pool_stats"
KIND_EXECUTORS = "executors"
KIND_EVENTS = "events"
KIND_ERROR = "error"
KIND_SERVICE_INFO = "service_info"
KIND_HEALTH = "health"
KIND_CHAOS = "chaos"
KIND_TRACE = "trace"
KINDS = frozenset({
    KIND_RUN_RECORD, KIND_JOB_STATUS, KIND_JOB_LIST, KIND_PLAN,
    KIND_POOL_STATS, KIND_EXECUTORS, KIND_EVENTS, KIND_ERROR,
    KIND_SERVICE_INFO, KIND_HEALTH, KIND_CHAOS, KIND_TRACE,
})

# Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_COMPLETED = "completed"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_COMPLETED, JOB_FAILED)

# Job execution modes.
MODE_SPEC = "spec"       # one isolated, deterministic ExperimentSpec run
MODE_POOLED = "pooled"   # joins the server's long-lived shared cluster
JOB_MODES = (MODE_SPEC, MODE_POOLED)

# Structured error codes.
ERR_BACKPRESSURE = "backpressure"
ERR_NOT_FOUND = "not_found"
ERR_INVALID_REQUEST = "invalid_request"
ERR_INTERNAL = "internal"
ERR_NOT_READY = "not_ready"
ERR_DRAINING = "draining"

# Structured failure-cause codes (JobStatus.failure on terminal
# ``failed`` jobs; see repro.api.resilience).
FAIL_WORKER_EXCEPTION = "worker_exception"
FAIL_RETRIES_EXHAUSTED = "retries_exhausted"
FAIL_DEADLINE_EXCEEDED = "deadline_exceeded"
FAIL_JOB_FAILED = "job_failed"
FAIL_CHECKPOINTED = "checkpointed"
FAILURE_CODES = (FAIL_WORKER_EXCEPTION, FAIL_RETRIES_EXHAUSTED,
                 FAIL_DEADLINE_EXCEEDED, FAIL_JOB_FAILED,
                 FAIL_CHECKPOINTED)


class SchemaError(ValueError):
    """A payload failed schema validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _check_mapping(value: Any, name: str) -> Dict[str, Any]:
    if value is None:
        return {}
    _require(isinstance(value, Mapping), f"{name} must be a JSON object")
    return dict(value)


def _reject_unknown(data: Mapping[str, Any], allowed, what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    _require(not unknown,
             f"unknown {what} field(s): {', '.join(unknown)}; "
             f"allowed: {', '.join(sorted(allowed))}")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Recursively reduce schema models / dataclasses to JSON types."""
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, shortest float repr, no trailing
    whitespace — equal payloads serialize byte-identically."""
    return json.dumps(to_jsonable(obj), sort_keys=True)


# ---------------------------------------------------------------------------
# The envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResponseEnvelope:
    """The versioned wrapper every CLI/API JSON payload rides in."""

    kind: str
    data: Any
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(self.kind in KINDS,
                 f"unknown envelope kind {self.kind!r}; "
                 f"known: {sorted(KINDS)}")

    def to_dict(self) -> Dict[str, Any]:
        return {"schema_version": self.schema_version,
                "kind": self.kind,
                "data": to_jsonable(self.data)}

    def dumps(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResponseEnvelope":
        _require(is_envelope(data), "not a ResponseEnvelope payload")
        version = str(data["schema_version"])
        _require(version == SCHEMA_VERSION,
                 f"unsupported schema_version {version!r}; "
                 f"this build reads {SCHEMA_VERSION!r}")
        return cls(kind=str(data["kind"]), data=data.get("data"),
                   schema_version=version)


def envelope(kind: str, data: Any) -> ResponseEnvelope:
    """Shorthand constructor, the one writers should use."""
    return ResponseEnvelope(kind=kind, data=data)


def is_envelope(data: Any) -> bool:
    return (isinstance(data, Mapping) and "schema_version" in data
            and "kind" in data and "data" in data)


def unwrap_record(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Return the RunRecord dict inside an envelope row.

    The one-release :class:`DeprecationWarning` shim for pre-envelope
    rows (raw RunRecord dicts, the shape ``--json`` exports wrote
    before the ``repro.api.schemas`` consolidation) has been removed as
    promised: a bare row now raises :class:`SchemaError` naming the
    envelope format, so stale fixtures fail loudly instead of parsing
    silently. Re-export old data with a current ``--json``.
    """
    _require(
        is_envelope(data),
        "not a ResponseEnvelope row: expected "
        '{"schema_version": "' + SCHEMA_VERSION + '", "kind": "'
        + KIND_RUN_RECORD + '", "data": {...}}; pre-envelope RunRecord '
        "rows are no longer read (the one-release DeprecationWarning "
        "shim is gone) — re-export with a current --json")
    env = ResponseEnvelope.from_dict(data)
    _require(env.kind == KIND_RUN_RECORD,
             f"expected a {KIND_RUN_RECORD!r} envelope, "
             f"got {env.kind!r}")
    return dict(env.data)


# ---------------------------------------------------------------------------
# JobRequest
# ---------------------------------------------------------------------------

@dataclass
class JobRequest:
    """What a client submits to ``POST /jobs``.

    ``mode="spec"`` (default) runs one isolated, deterministic
    :class:`~repro.experiments.spec.ExperimentSpec` — byte-identical to
    the same spec run via ``repro run --json``. ``mode="pooled"`` joins
    the server's long-lived shared cluster as a
    :class:`~repro.cluster.apps.ClusterApp` competing for the shared
    executor pool.
    """

    workload: str
    scenario: str = "spark_R_vm"
    seed: int = 0
    mode: str = MODE_SPEC
    #: Deadline the job is scored against (``slo_met`` on the status).
    slo_s: Optional[float] = None
    #: Wall-clock deadline: the service fails the job (terminal
    #: ``failed``, cause ``deadline_exceeded``) this many seconds after
    #: submission if it has not finished. None = the server default.
    deadline_s: Optional[float] = None
    #: Bounded-retry cap for transient worker failures (>= 1).
    #: None = the server default.
    max_attempts: Optional[int] = None
    #: Split/provisioning policy (``{"name": ...}`` + parameters), as in
    #: ``ExperimentSpec.policy``.
    policy: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)
    conf_overrides: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Declarative fault plan (FaultSpec dicts).
    faults: List[Dict[str, Any]] = field(default_factory=list)
    parallelism: Optional[int] = None
    segue_at_s: Optional[float] = None
    #: Scheduler pool to register in (pooled mode). A pooled cluster
    #: has one, ``default``; the server rejects any other name.
    pool: str = "default"

    def __post_init__(self) -> None:
        _require(bool(self.workload) and isinstance(self.workload, str),
                 "workload must be a non-empty string")
        _require(self.mode in JOB_MODES,
                 f"mode must be one of {JOB_MODES}, got {self.mode!r}")
        self.seed = int(self.seed)
        if self.slo_s is not None:
            self.slo_s = float(self.slo_s)
            _require(self.slo_s > 0, "slo_s must be positive")
        if self.deadline_s is not None:
            self.deadline_s = float(self.deadline_s)
            _require(self.deadline_s > 0, "deadline_s must be positive")
        if self.max_attempts is not None:
            self.max_attempts = int(self.max_attempts)
            _require(self.max_attempts >= 1, "max_attempts must be >= 1")
        self.policy = _check_mapping(self.policy, "policy")
        self.workload_params = _check_mapping(self.workload_params,
                                              "workload_params")
        self.conf_overrides = _check_mapping(self.conf_overrides,
                                             "conf_overrides")
        self.extra = _check_mapping(self.extra, "extra")
        _require(isinstance(self.faults, (list, tuple)),
                 "faults must be a list of fault objects")
        self.faults = [dict(f) for f in self.faults]

    def to_spec(self):
        """The :class:`ExperimentSpec` this request describes (spec
        mode). Raises :class:`SchemaError` on an invalid combination."""
        from repro.experiments.spec import ExperimentSpec
        try:
            return ExperimentSpec(
                workload=self.workload, scenario=self.scenario,
                seed=self.seed, parallelism=self.parallelism,
                workload_params=self.workload_params,
                conf_overrides=self.conf_overrides,
                segue_at_s=self.segue_at_s, extra=self.extra,
                faults=self.faults, policy=self.policy)
        except (TypeError, ValueError) as exc:
            raise SchemaError(str(exc)) from exc

    def to_dict(self) -> Dict[str, Any]:
        return to_jsonable(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRequest":
        _require(isinstance(data, Mapping),
                 "job request must be a JSON object")
        allowed = {f for f in cls.__dataclass_fields__}  # noqa: C416
        _reject_unknown(data, allowed, "JobRequest")
        _require("workload" in data, "workload is required")
        return cls(**{k: data[k] for k in data})


# ---------------------------------------------------------------------------
# FailureCause
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureCause:
    """Structured cause on a terminal ``failed`` job.

    ``code`` is one of :data:`FAILURE_CODES`; ``retryable`` records
    whether the service classified the underlying error as transient
    (it may still be terminal because retries were exhausted or the
    deadline passed); ``attempts`` is how many executions were tried.
    """

    code: str
    message: str
    retryable: bool = False
    attempts: int = 1
    detail: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(self.code in FAILURE_CODES,
                 f"unknown failure code {self.code!r}; "
                 f"known: {list(FAILURE_CODES)}")

    def to_dict(self) -> Dict[str, Any]:
        return {"code": self.code, "message": self.message,
                "retryable": self.retryable, "attempts": self.attempts,
                "detail": to_jsonable(self.detail)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureCause":
        _require(isinstance(data, Mapping) and "code" in data,
                 "failure cause must be a JSON object with a code")
        return cls(code=str(data["code"]),
                   message=str(data.get("message", "")),
                   retryable=bool(data.get("retryable", False)),
                   attempts=int(data.get("attempts", 1)),
                   detail=dict(data.get("detail") or {}))


# ---------------------------------------------------------------------------
# JobStatus
# ---------------------------------------------------------------------------

@dataclass
class JobStatus:
    """One job's lifecycle and (once finished) its results.

    ``metrics`` for a completed spec-mode job is exactly
    ``RunRecord.metrics`` — byte-identical to the same spec run through
    ``repro run --json`` — and ``record`` carries the full RunRecord
    dict so ``repro report`` can render a served run. Wall-clock
    fields (``*_at``) are machine-dependent, like
    ``RunRecord.wall_time_s``.
    """

    job_id: str
    state: str
    request: JobRequest
    spec_hash: Optional[str] = None
    queue_position: Optional[int] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration_s: Optional[float] = None
    cost: Optional[float] = None
    slo_met: Optional[bool] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The planner's split decision for this job, when one was made.
    plan: Optional[Dict[str, Any]] = None
    #: Full RunRecord dict (completed spec-mode jobs).
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Executions tried so far (retries bump this past 1).
    attempts: int = 0
    #: Structured cause, set exactly when ``state == "failed"``.
    failure: Optional[FailureCause] = None

    def __post_init__(self) -> None:
        _require(self.state in JOB_STATES,
                 f"state must be one of {JOB_STATES}, got {self.state!r}")
        if isinstance(self.request, Mapping):
            self.request = JobRequest.from_dict(self.request)
        if isinstance(self.failure, Mapping):
            self.failure = FailureCause.from_dict(self.failure)

    @property
    def done(self) -> bool:
        return self.state in (JOB_COMPLETED, JOB_FAILED)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request.to_dict(),
            "spec_hash": self.spec_hash,
            "queue_position": self.queue_position,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "cost": self.cost,
            "slo_met": self.slo_met,
            "metrics": to_jsonable(self.metrics),
            "plan": to_jsonable(self.plan),
            "error": self.error,
            "attempts": self.attempts,
        }
        if self.failure is not None:
            out["failure"] = self.failure.to_dict()
        if self.record is not None:
            out["record"] = to_jsonable(self.record)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        _require(isinstance(data, Mapping),
                 "job status must be a JSON object")
        _require("job_id" in data and "state" in data,
                 "job status needs job_id and state")
        return cls(
            job_id=str(data["job_id"]), state=str(data["state"]),
            request=JobRequest.from_dict(data.get("request")
                                         or {"workload": "unknown"}),
            spec_hash=data.get("spec_hash"),
            queue_position=data.get("queue_position"),
            submitted_at=data.get("submitted_at"),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            duration_s=data.get("duration_s"),
            cost=data.get("cost"),
            slo_met=data.get("slo_met"),
            metrics=dict(data.get("metrics") or {}),
            plan=data.get("plan"),
            record=data.get("record"),
            error=data.get("error"),
            attempts=int(data.get("attempts", 0)),
            failure=data.get("failure"))


def looks_like_job_status(data: Any) -> bool:
    """Shape-sniff for report inputs: a JobStatus dict (raw or
    enveloped)."""
    if is_envelope(data):
        return data.get("kind") == KIND_JOB_STATUS
    return (isinstance(data, Mapping) and "job_id" in data
            and "state" in data)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanCandidate:
    """One ranked SplitPlanner entry (``GET /plan`` and
    ``repro plan --json``)."""

    rank: int
    name: str
    vm_cores: int
    lambda_cores: int
    segue_cores: int
    segue_at_s: Optional[float]
    predicted_runtime_s: float
    predicted_cost: float
    meets_slo: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def plan_payload(plan) -> Dict[str, Any]:
    """Reduce a :class:`~repro.planner.planner.SplitPlan` to the shared
    plan payload (the CLI's ``plan --json`` and ``GET /plan`` both emit
    this, wrapped in a :data:`KIND_PLAN` envelope)."""
    candidates = []
    for rank, entry in enumerate(plan.candidates, start=1):
        c = entry.candidate
        candidates.append(PlanCandidate(
            rank=rank, name=c.name, vm_cores=c.vm_cores,
            lambda_cores=c.lambda_cores, segue_cores=c.segue_cores,
            segue_at_s=c.segue_at_s,
            predicted_runtime_s=entry.predicted_runtime_s,
            predicted_cost=entry.predicted_cost,
            meets_slo=entry.meets_slo))
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "slo_s": plan.slo_s,
        "feasible": plan.feasible,
        "chosen": candidates[0].name if candidates else None,
        "candidates": [c.to_dict() for c in candidates],
    }


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBody:
    """Structured error payload (rides in a :data:`KIND_ERROR`
    envelope; the 503 backpressure path returns one)."""

    code: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)
    retry_after_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"code": self.code, "message": self.message,
                               "detail": to_jsonable(self.detail)}
        if self.retry_after_s is not None:
            out["retry_after_s"] = self.retry_after_s
        return out


# ---------------------------------------------------------------------------
# Report-input sniffing (shared by `repro report` and tests)
# ---------------------------------------------------------------------------

def parse_any_document(text: str) -> List[Dict[str, Any]]:
    """Parse a report input into a list of row dicts.

    Accepts a single JSON document (object or list — e.g. a curl'd
    ``GET /jobs/{id}`` envelope) or JSONL (one object per line — the
    ``--json`` / ``--events-out`` exports). Raises ``ValueError`` on
    unparseable input.
    """
    stripped = text.strip()
    if not stripped:
        return []
    try:
        doc = json.loads(stripped)
    except ValueError:
        doc = None
    if isinstance(doc, Mapping):
        return [dict(doc)]
    if isinstance(doc, list):
        return [dict(row) for row in doc]
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


__all__: Tuple[str, ...] = (
    "SCHEMA_VERSION", "KINDS", "KIND_RUN_RECORD", "KIND_JOB_STATUS",
    "KIND_JOB_LIST", "KIND_PLAN", "KIND_POOL_STATS", "KIND_EXECUTORS",
    "KIND_EVENTS", "KIND_ERROR", "KIND_SERVICE_INFO", "KIND_HEALTH",
    "KIND_CHAOS", "KIND_TRACE",
    "JOB_QUEUED", "JOB_RUNNING", "JOB_COMPLETED", "JOB_FAILED",
    "JOB_STATES", "JOB_MODES", "MODE_SPEC", "MODE_POOLED",
    "ERR_BACKPRESSURE", "ERR_NOT_FOUND", "ERR_INVALID_REQUEST",
    "ERR_INTERNAL", "ERR_NOT_READY", "ERR_DRAINING",
    "FAIL_WORKER_EXCEPTION", "FAIL_RETRIES_EXHAUSTED",
    "FAIL_DEADLINE_EXCEEDED", "FAIL_JOB_FAILED", "FAIL_CHECKPOINTED",
    "FAILURE_CODES", "FailureCause",
    "SchemaError", "ResponseEnvelope", "envelope", "is_envelope",
    "unwrap_record", "JobRequest", "JobStatus", "looks_like_job_status",
    "PlanCandidate", "plan_payload",
    "ErrorBody", "dumps", "to_jsonable", "parse_any_document",
)
