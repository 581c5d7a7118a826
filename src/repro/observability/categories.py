"""The event taxonomy: every trace/event category and name, in one place.

Emitters across the spark/cloud/core/simulation layers used to pass
free-form string literals to ``TraceRecorder.record``; any typo silently
created a new category that no consumer would ever select. This module
is the single source of truth: emitters import the ``CAT_*`` / ``EV_*``
constants, :func:`validate_event` rejects unknown pairs (the
:class:`~repro.observability.bus.EventBus` calls it on every publish),
and a lint-style test asserts no literal category strings remain at
``record(...)`` call sites.

Adding an event is a two-line change here (a constant and its entry in
``EVENTS``); emitting an unregistered one raises immediately in any
bus-routed run, so the registry cannot rot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

# ---------------------------------------------------------------------------
# Categories (one per emitting subsystem)
# ---------------------------------------------------------------------------

CAT_EXECUTOR = "executor"      # repro.spark.executor.Executor
CAT_DAG = "dag"                # repro.spark.dag_scheduler.DAGScheduler
CAT_SCHEDULER = "scheduler"    # repro.spark.task_scheduler.TaskScheduler
CAT_PROVIDER = "provider"      # repro.cloud.provisioner.CloudProvider
CAT_LAMBDA = "lambda"          # repro.cloud.lambda_fn.LambdaInstance
CAT_VM = "vm"                  # repro.cloud.vm / repro.cloud.spot
CAT_FAULT = "fault"            # repro.simulation.faults
CAT_LAUNCHING = "launching"    # repro.core.launching.LaunchingFacility
CAT_SEGUE = "segue"            # repro.core.segue.SegueingFacility
CAT_CLUSTER = "cluster"        # repro.cluster.apps.AppManager
CAT_PLANNER = "planner"        # repro.planner (split planning + enforcement)
CAT_SERVE = "serve"            # repro.api.service.ServeRuntime
CAT_TRACE = "trace"            # repro.observability.serve_obs.ServeTracer

# ---------------------------------------------------------------------------
# Event names, grouped by category
# ---------------------------------------------------------------------------

# executor
EV_REGISTERED = "registered"
EV_CACHE_EVICT = "cache_evict"
EV_TASK_START = "task_start"
EV_TASK_END = "task_end"
EV_DRAINING = "draining"
EV_DEAD = "dead"

# dag
EV_JOB_SUBMITTED = "job_submitted"
EV_STAGE_SUBMITTED = "stage_submitted"
EV_STAGE_OUTPUTS_LOST = "stage_outputs_lost"
EV_STAGE_COMPLETE = "stage_complete"
EV_FETCH_FAILED = "fetch_failed"
EV_EXECUTOR_LOST = "executor_lost"
EV_JOB_COMPLETE = "job_complete"
EV_JOB_FAILED = "job_failed"

# scheduler
EV_EXECUTOR_REGISTERED = "executor_registered"
EV_EXECUTOR_DRAINED = "executor_drained"
EV_MAP_OUTPUTS_LOST = "map_outputs_lost"
EV_TASKSET_SUBMITTED = "taskset_submitted"
EV_SPECULATIVE_LAUNCH = "speculative_launch"
EV_EXECUTOR_BLACKLISTED = "executor_blacklisted"
EV_BLACKLIST_SUPPRESSED = "blacklist_suppressed"

# provider
EV_LAMBDA_THROTTLED = "lambda_throttled"
EV_LAMBDA_INVOKE_FAILED = "lambda_invoke_failed"

# lambda
EV_INVOKED = "invoked"
EV_RUNNING = "running"
EV_EXPIRED = "expired"
EV_FINISHED = "finished"

# vm
EV_REQUESTED = "requested"
EV_TERMINATED = "terminated"
EV_REVOKED = "revoked"

# fault (injections + the recovery milestone)
EV_EXECUTOR_KILLED = "executor_killed"
EV_VM_REVOKED = "vm_revoked"
EV_THROTTLE_START = "throttle_start"
EV_THROTTLE_END = "throttle_end"
EV_BROWNOUT_START = "brownout_start"
EV_BROWNOUT_END = "brownout_end"
EV_STRAGGLER_START = "straggler_start"
EV_STRAGGLER_END = "straggler_end"
EV_INVOKE_FAILED = "invoke_failed"
EV_RECOVERED = "recovered"

# launching
EV_DEGRADED_TO_VM_CORE = "degraded_to_vm_core"
EV_SLOT_UNFILLED = "slot_unfilled"

# segue
EV_SEGUE_TRIGGERED = "triggered"

# cluster (multi-application admission)
EV_APP_SUBMITTED = "app_submitted"
EV_APP_ADMITTED = "app_admitted"
EV_APP_COMPLETED = "app_completed"
EV_APP_FAILED = "app_failed"

# planner (model-based split planning and its online enforcement)
EV_PLAN_REQUESTED = "plan_requested"
EV_PLAN_CHOSEN = "plan_chosen"
EV_PLAN_INFEASIBLE = "plan_infeasible"
EV_PLAN_ENFORCED = "plan_enforced"
EV_SPLIT_DECIDED = "split_decided"
EV_BRIDGE_DRAINED = "bridge_drained"

# serve (control-plane job lifecycle, wall-clock times)
EV_JOB_QUEUED = "job_queued"
EV_JOB_STARTED = "job_started"
EV_JOB_FINISHED = "job_finished"
EV_JOB_REJECTED = "job_rejected"
EV_JOB_RETRYING = "job_retrying"
EV_JOB_DEADLINE_EXCEEDED = "job_deadline_exceeded"
EV_JOB_RECOVERED = "job_recovered"
EV_BREAKER_OPENED = "breaker_opened"
EV_BREAKER_HALF_OPEN = "breaker_half_open"
EV_BREAKER_CLOSED = "breaker_closed"
EV_DRAIN_STARTED = "drain_started"
EV_DRAIN_COMPLETED = "drain_completed"
EV_CHAOS_INJECTED = "chaos_injected"

# trace (causal span boundaries mirrored onto the serve hub; span
# payloads live in the ServeTracer store, these are the live feed)
EV_SPAN_START = "span_start"
EV_SPAN_END = "span_end"
EV_SPAN_EVENT = "span_event"


#: category -> the event names it may emit. ``validate_event`` enforces
#: membership; the EventBus checks every published record against this.
EVENTS: Dict[str, FrozenSet[str]] = {
    CAT_EXECUTOR: frozenset({
        EV_REGISTERED, EV_CACHE_EVICT, EV_TASK_START, EV_TASK_END,
        EV_DRAINING, EV_DEAD,
    }),
    CAT_DAG: frozenset({
        EV_JOB_SUBMITTED, EV_STAGE_SUBMITTED, EV_STAGE_OUTPUTS_LOST,
        EV_STAGE_COMPLETE, EV_FETCH_FAILED, EV_EXECUTOR_LOST,
        EV_JOB_COMPLETE, EV_JOB_FAILED,
    }),
    CAT_SCHEDULER: frozenset({
        EV_EXECUTOR_REGISTERED, EV_EXECUTOR_DRAINED, EV_MAP_OUTPUTS_LOST,
        EV_TASKSET_SUBMITTED, EV_SPECULATIVE_LAUNCH,
        EV_EXECUTOR_BLACKLISTED, EV_BLACKLIST_SUPPRESSED,
    }),
    CAT_PROVIDER: frozenset({
        EV_LAMBDA_THROTTLED, EV_LAMBDA_INVOKE_FAILED,
    }),
    CAT_LAMBDA: frozenset({
        EV_INVOKED, EV_RUNNING, EV_EXPIRED, EV_FINISHED,
    }),
    CAT_VM: frozenset({
        EV_REQUESTED, EV_RUNNING, EV_TERMINATED, EV_REVOKED,
    }),
    CAT_FAULT: frozenset({
        EV_EXECUTOR_KILLED, EV_VM_REVOKED, EV_THROTTLE_START,
        EV_THROTTLE_END, EV_BROWNOUT_START, EV_BROWNOUT_END,
        EV_STRAGGLER_START, EV_STRAGGLER_END, EV_INVOKE_FAILED,
        EV_RECOVERED,
    }),
    CAT_LAUNCHING: frozenset({
        EV_LAMBDA_INVOKE_FAILED, EV_DEGRADED_TO_VM_CORE, EV_SLOT_UNFILLED,
    }),
    CAT_SEGUE: frozenset({EV_SEGUE_TRIGGERED}),
    CAT_CLUSTER: frozenset({
        EV_APP_SUBMITTED, EV_APP_ADMITTED, EV_APP_COMPLETED, EV_APP_FAILED,
    }),
    CAT_PLANNER: frozenset({
        EV_PLAN_REQUESTED, EV_PLAN_CHOSEN, EV_PLAN_INFEASIBLE,
        EV_PLAN_ENFORCED, EV_SPLIT_DECIDED, EV_BRIDGE_DRAINED,
    }),
    CAT_SERVE: frozenset({
        EV_JOB_QUEUED, EV_JOB_STARTED, EV_JOB_FINISHED, EV_JOB_REJECTED,
        EV_JOB_RETRYING, EV_JOB_DEADLINE_EXCEEDED, EV_JOB_RECOVERED,
        EV_BREAKER_OPENED, EV_BREAKER_HALF_OPEN, EV_BREAKER_CLOSED,
        EV_DRAIN_STARTED, EV_DRAIN_COMPLETED, EV_CHAOS_INJECTED,
    }),
    CAT_TRACE: frozenset({
        EV_SPAN_START, EV_SPAN_END, EV_SPAN_EVENT,
    }),
}


def known_categories() -> List[str]:
    """All registered categories, sorted."""
    return sorted(EVENTS)


def validate_event(category: str, name: str) -> None:
    """Raise ``ValueError`` if (category, name) is not registered."""
    names = EVENTS.get(category)
    if names is None:
        raise ValueError(
            f"unknown event category {category!r}; "
            f"known: {known_categories()} "
            f"(register it in repro.observability.categories)")
    if name not in names:
        raise ValueError(
            f"unknown event {category}/{name!r}; "
            f"known names for {category!r}: {sorted(names)} "
            f"(register it in repro.observability.categories)")
