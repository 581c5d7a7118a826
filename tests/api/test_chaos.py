"""Chaos semantics of the serve plane: retries, deadlines, the
breaker, journal recovery, and graceful drain.

Each test constructs its fault deterministically (chaos tokens applied
under the admission lock, gated ``custom:`` scenarios) instead of
racing timers, and asserts the recovery invariant the robustness issue
pins: every submitted job reaches a terminal state, transient failures
are retried within their bounded budget, the breaker opens and
recovers, and a killed process's journal restores its queued jobs
exactly once with byte-identical results.
"""

import threading
import time

import pytest

from repro.api import schemas
from repro.api.resilience import BREAKER_CLOSED, BREAKER_OPEN
from repro.api.service import BackpressureError, ServeConfig, ServeRuntime
from repro.experiments.runner import run_spec
from repro.observability.categories import (
    CAT_SERVE,
    EV_BREAKER_CLOSED,
    EV_BREAKER_OPENED,
    EV_DRAIN_COMPLETED,
    EV_DRAIN_STARTED,
    EV_JOB_DEADLINE_EXCEEDED,
    EV_JOB_RECOVERED,
    EV_JOB_RETRYING,
)

#: Gates for the blocking scenario, keyed per test (see test_admission).
_GATES = {}


def _gate(name: str) -> threading.Event:
    return _GATES.setdefault(name, threading.Event())


def blocking_job(spec):
    """``custom:`` scenario: hold a running slot until released."""
    gate = _GATES[dict(spec.extra)["gate"]]
    assert gate.wait(timeout=30.0), "gate never released"
    return {"workload": "blocker", "duration_s": 1.0, "cost": 0.0}


def broken_job(spec):
    """``custom:`` scenario: a deterministic bug — never retryable."""
    raise ValueError("deterministic scenario bug")


def _blocker(seed: int, gate: str, **extra) -> dict:
    return {"workload": "blocker",
            "scenario": "custom:tests.api.test_chaos:blocking_job",
            "seed": seed, "extra": {"gate": gate}, **extra}


def _sparkpi(seed: int) -> dict:
    return {"workload": "sparkpi", "scenario": "spark_R_vm", "seed": seed}


def _fast_config(**overrides) -> ServeConfig:
    defaults = dict(max_concurrent=2, max_queue=16, seed=0, pool_cores=4,
                    retry_base_backoff_s=0.01)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _serve_events(service, name):
    return [e for e in service.hub.snapshot(category=CAT_SERVE)
            if e["name"] == name]


# ---------------------------------------------------------------------------
# Retry path
# ---------------------------------------------------------------------------

def test_transient_crash_is_retried_to_completion():
    service = ServeRuntime(_fast_config()).start()
    try:
        service.inject_chaos({"crash_next_submissions": 1})
        status = service.submit(_sparkpi(seed=7))
        final = service.wait_for(status.job_id, timeout=60.0)
        assert final.state == schemas.JOB_COMPLETED, final.error
        assert final.attempts == 2
        assert final.failure is None
        assert final.duration_s > 0

        retrying = _serve_events(service, EV_JOB_RETRYING)
        assert len(retrying) == 1
        assert retrying[0]["fields"]["job"] == status.job_id
        assert retrying[0]["fields"]["backoff_s"] > 0
        snap = service.cluster.metrics.snapshot(prefix="serve.")
        assert snap["serve.jobs.retries"] == 1
    finally:
        service.close()


def test_retries_exhausted_is_terminal_failed():
    service = ServeRuntime(_fast_config(max_attempts=2)).start()
    try:
        # Budget larger than the retry cap: every execution crashes.
        service.inject_chaos({"kill_workers": 10})
        status = service.submit(_sparkpi(seed=3))
        final = service.wait_for(status.job_id, timeout=60.0)
        assert final.state == schemas.JOB_FAILED
        assert final.attempts == 2
        assert final.failure is not None
        assert final.failure.code == schemas.FAIL_RETRIES_EXHAUSTED
        assert final.failure.retryable  # transient, just out of budget
        assert "WorkerCrashError" in final.error
    finally:
        service.close()


def test_per_request_max_attempts_overrides_config():
    service = ServeRuntime(_fast_config(max_attempts=5)).start()
    try:
        service.inject_chaos({"kill_workers": 10})
        status = service.submit(dict(_sparkpi(seed=4), max_attempts=1))
        final = service.wait_for(status.job_id, timeout=60.0)
        assert final.state == schemas.JOB_FAILED
        assert final.attempts == 1
        assert final.failure.code == schemas.FAIL_RETRIES_EXHAUSTED
    finally:
        service.close()


def test_deterministic_failure_is_terminal_on_first_attempt():
    service = ServeRuntime(_fast_config()).start()
    try:
        status = service.submit(
            {"workload": "blocker",
             "scenario": "custom:tests.api.test_chaos:broken_job",
             "seed": 0})
        final = service.wait_for(status.job_id, timeout=60.0)
        assert final.state == schemas.JOB_FAILED
        assert final.attempts == 1  # retrying would replay the same bug
        assert final.failure.code == schemas.FAIL_JOB_FAILED
        assert not final.failure.retryable
        assert not _serve_events(service, EV_JOB_RETRYING)
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Deadlines (the no-silent-hangs invariant)
# ---------------------------------------------------------------------------

def test_deadline_fails_a_wedged_job_without_hanging():
    gate = _gate("deadline")
    service = ServeRuntime(_fast_config()).start()
    try:
        status = service.submit(
            _blocker(0, "deadline", deadline_s=0.3))
        t0 = time.monotonic()
        final = service.wait_for(status.job_id, timeout=10.0)
        waited = time.monotonic() - t0
        # The reaper fired the deadline; nobody waited for the wedged
        # worker thread.
        assert final.state == schemas.JOB_FAILED
        assert final.failure.code == schemas.FAIL_DEADLINE_EXCEEDED
        assert waited < 5.0
        events = _serve_events(service, EV_JOB_DEADLINE_EXCEEDED)
        assert [e["fields"]["job"] for e in events] == [status.job_id]
        snap = service.cluster.metrics.snapshot(prefix="serve.")
        assert snap["serve.jobs.deadline_exceeded"] == 1
    finally:
        gate.set()  # let the zombie worker unwind before shutdown
        service.close()


def test_queued_job_deadline_fires_without_ever_running():
    gate = _gate("queued-deadline")
    service = ServeRuntime(_fast_config(max_concurrent=1)).start()
    try:
        service.submit(_blocker(0, "queued-deadline"))
        queued = service.submit(_blocker(1, "queued-deadline",
                                         deadline_s=0.2))
        assert queued.state == schemas.JOB_QUEUED
        final = service.wait_for(queued.job_id, timeout=10.0)
        assert final.state == schemas.JOB_FAILED
        assert final.failure.code == schemas.FAIL_DEADLINE_EXCEEDED
        assert final.attempts == 0  # never got a slot
    finally:
        gate.set()
        service.close()


# ---------------------------------------------------------------------------
# Circuit breaker around the Lambda bridge
# ---------------------------------------------------------------------------

def test_throttle_storm_opens_then_recovers_breaker():
    service = ServeRuntime(_fast_config(
        breaker_failure_threshold=2, breaker_cooldown_s=0.1)).start()
    try:
        service.inject_chaos({"plan": "throttle_storm",
                              "duration_s": 0.5})
        opened = closed = False
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            outcome = service.inject_chaos({"scale_lambda": 1})
            state = outcome["breaker"]["state"]
            if state == BREAKER_OPEN:
                opened = True
                # VM-only degradation: readiness tells the balancer.
                ready, checks = service.readyz()
                assert not ready
                assert not checks["breaker_not_open"]
            if opened and state == BREAKER_CLOSED:
                closed = True
                break
            time.sleep(0.02)
        assert opened, "breaker never opened under the throttle storm"
        assert closed, "breaker never recovered after the storm lifted"

        names = [e["name"]
                 for e in service.hub.snapshot(category=CAT_SERVE)]
        assert names.index(EV_BREAKER_OPENED) < names.index(
            EV_BREAKER_CLOSED)
        snap = service.cluster.metrics.snapshot(prefix="serve.breaker.")
        assert snap["serve.breaker.opens"] >= 1
        assert snap["serve.breaker.closes"] >= 1
        assert snap["serve.breaker.state"] == 0  # closed again
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Host-clock fault windows on the shared cluster
# ---------------------------------------------------------------------------

#: Per-kind parameters of the all-kinds plan below (each fault fires at
#: arm time and carries a 0.3 s host-clock window).
_LIVE_FAULT_PARAMS = {
    "executor_kill": {"target": "vm", "count": 2},
    "spot_revocation": {},
    "lambda_invoke_failure": {"probability": 1.0},
    "lambda_throttle": {"limit": 0},
    "storage_brownout": {"factor": 2.0},
    "straggler": {"count": 2, "factor": 3.0},
}


def test_live_fault_plan_applies_every_kind_then_lifts():
    service = ServeRuntime(_fast_config(
        pool_style="hybrid_segue", lambda_cores=2)).start()
    try:
        scheduler = service.pool.scheduler
        provider = service.cluster.provider
        faults = [dict(kind=kind, at_s=0.0, duration_s=0.3, **params)
                  for kind, params in _LIVE_FAULT_PARAMS.items()]
        applied = service.inject_chaos({"faults": faults})["applied"]
        assert applied == {"plan": "6 fault(s)", "faults": 6}

        with service._sim_lock:
            slowdowns = {ex.executor_id: ex.cpu_slowdown
                         for ex in scheduler.registered_executors}
            limit = provider.concurrency_limit
            vm_states = {vm.name: vm.state.value for vm in provider.vms}
            invoke_fault = provider.invoke_fault
            [hdfs] = service.pool.storages
            degradation = hdfs.degradation_factor
        # The seeded victim draw kills two of the four VM executors and
        # slows the two survivors; of the hybrid pool's two VMs, the
        # revocation draw picks its HDFS master.
        dead = [e for e in service.hub.snapshot(category="executor")
                if e["name"] == "dead"]
        assert [e["fields"]["executor"] for e in dead] \
            == ["pool:vm-exec-2", "pool:vm-exec-3"]
        # Kills go through the batch FaultInjector, so they carry its
        # reason string.
        assert {e["fields"]["reason"] for e in dead} \
            == {"fault: executor_kill"}
        assert slowdowns == {"pool:vm-exec-0": 3.0, "pool:vm-exec-1": 3.0}
        assert limit == 0
        assert vm_states == {"pool-master": "terminated", "vm-0": "running"}
        # The brownout reaches the one storage service the pool mounts,
        # its HDFS shuffle store on the master.
        assert hdfs.datanode.name == "pool-master"
        assert degradation == 2.0
        # No per-invocation gate is armed, so invoke failures are no-ops
        # on a live server, and no fault event reaches the hub.
        assert invoke_fault is None
        assert service.hub.snapshot(category="fault") == []

        # The reaper lifts the throttle, the slowdowns and the brownout
        # once the windows close.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with service._sim_lock:
                slowdowns = {ex.executor_id: ex.cpu_slowdown
                             for ex in scheduler.registered_executors}
                limit = provider.concurrency_limit
                degradation = hdfs.degradation_factor
            if (limit is None and set(slowdowns.values()) == {1.0}
                    and degradation == 1.0):
                break
            time.sleep(0.02)
        assert slowdowns == {"pool:vm-exec-0": 1.0, "pool:vm-exec-1": 1.0}
        assert limit is None
        assert degradation == 1.0
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Journal: kill -9 + restart
# ---------------------------------------------------------------------------

def test_hard_stop_restart_recovers_journaled_jobs_exactly_once(tmp_path):
    gate = _gate("kill9")
    config = _fast_config(max_concurrent=1, state_dir=str(tmp_path))
    first = ServeRuntime(config).start()
    running = first.submit(_blocker(0, "kill9"))
    queued = [first.submit(_sparkpi(seed=s)) for s in (11, 12)]
    first.hard_stop()
    gate.set()  # the orphaned worker unwinds; the closed WAL ignores it

    second = ServeRuntime(config).start()
    try:
        assert second.drain(timeout=120.0)
        finals = second.jobs()
        # Exactly the three acknowledged jobs — no duplicates, none
        # lost, original ids preserved, all terminal.
        expected = [running.job_id] + [s.job_id for s in queued]
        assert [s.job_id for s in finals] == expected
        for s in finals:
            assert s.state == schemas.JOB_COMPLETED, s.error
        assert second.admission_stats()["recovered"] == 3
        recovered_events = _serve_events(second, EV_JOB_RECOVERED)
        assert [e["fields"]["job"] for e in recovered_events] == expected
        # The restarted id counter resumes past everything the dead
        # process ever acknowledged.
        fresh = second.submit(_sparkpi(seed=13))
        assert fresh.job_id == "job-000004"

        # Determinism across the crash: the recovered job's sim-side
        # record byte-matches a fault-free run of the same spec.
        served = second.job(queued[0].job_id).record
        reference = run_spec(
            schemas.JobRequest.from_dict(_sparkpi(seed=11))
            .to_spec()).to_dict()
        served.pop("wall_time_s")
        reference.pop("wall_time_s")
        assert schemas.dumps(served) == schemas.dumps(reference)
    finally:
        second.close()


# ---------------------------------------------------------------------------
# Graceful drain (the SIGTERM path)
# ---------------------------------------------------------------------------

def test_drain_checkpoints_leftovers_and_restart_resumes_them(tmp_path):
    gate = _gate("drain")
    config = _fast_config(max_concurrent=1, state_dir=str(tmp_path))
    service = ServeRuntime(config).start()
    blocker = service.submit(_blocker(0, "drain"))
    queued = [service.submit(_sparkpi(seed=s)) for s in (21, 22)]

    summary = service.request_drain(deadline_s=0.4)
    # The running job outlived the budget; the queued ones were
    # checkpointed to the journal instead of silently dropped.
    assert not summary["drained"]
    assert summary["still_running"] == 1
    assert summary["checkpointed"] == [s.job_id for s in queued]
    for s in queued:
        final = service.job(s.job_id)
        assert final.state == schemas.JOB_FAILED
        assert final.failure.code == schemas.FAIL_CHECKPOINTED
        assert final.failure.retryable

    # Draining servers shed new work with the dedicated 503 code.
    with pytest.raises(BackpressureError) as exc_info:
        service.submit(_sparkpi(seed=23))
    assert exc_info.value.code == schemas.ERR_DRAINING
    assert 0.5 <= exc_info.value.retry_after_s < 2.0

    names = [e["name"] for e in service.hub.snapshot(category=CAT_SERVE)]
    assert names.index(EV_DRAIN_STARTED) < names.index(EV_DRAIN_COMPLETED)

    gate.set()
    assert service.wait_for(blocker.job_id, timeout=30.0).state \
        == schemas.JOB_COMPLETED
    service.close()

    # A later incarnation owes the checkpointed jobs another run.
    second = ServeRuntime(config).start()
    try:
        assert second.drain(timeout=120.0)
        recovered = {s.job_id: s for s in second.jobs()}
        assert set(recovered) == {s.job_id for s in queued}
        for s in recovered.values():
            assert s.state == schemas.JOB_COMPLETED, s.error
        events = _serve_events(second, EV_JOB_RECOVERED)
        assert all(e["fields"]["checkpointed"] for e in events)
    finally:
        second.close()


# ---------------------------------------------------------------------------
# Wedged sim driver
# ---------------------------------------------------------------------------

def test_reads_and_admission_answer_while_driver_is_stalled():
    service = ServeRuntime(_fast_config()).start()
    try:
        service.inject_chaos({"stall_driver_s": 0.5})
        t0 = time.monotonic()
        service.submit(_sparkpi(seed=31))
        service.jobs()
        service.admission_stats()
        assert service.healthz()["status"] == "ok"
        assert time.monotonic() - t0 < 0.4, \
            "control-plane reads blocked on the stalled sim driver"
        assert service.drain(timeout=60.0)
    finally:
        service.close()
