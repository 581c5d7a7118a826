"""Run spans on faulted runs: spans close, never dangle.

Two real fault shapes (an executor killed mid-task, a Lambda reaped at
its lifetime) plus synthetic truncated traces. In every case
``run_spans`` must close each task span with ``end >= start`` —
in-flight work destroyed by the fault lands as a ``"lost"`` span at the
time its executor left, not as a dangling record.
"""

from repro.cloud import LambdaConfig
from repro.observability.export import event_log_dicts
from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_SEGUE,
    ROLE_TASK,
    run_spans,
    span_role,
)
from repro.simulation import TraceRecorder

from tests.spark.helpers import MiniCluster, single_stage_rdd


def _spans(trace):
    return run_spans(event_log_dicts(trace))


def _executor(spans, executor_id):
    return next(s for s in spans if span_role(s) == ROLE_EXECUTOR
                and s["name"] == executor_id)


def _tasks(spans, executor):
    return [s for s in spans if span_role(s) == ROLE_TASK
            and s["parent_span_id"] == executor["span_id"]]


def _segue_time(trace):
    (segue,) = [s for s in _spans(trace) if span_role(s) == ROLE_SEGUE]
    return segue["start_s"]


def _assert_all_spans_closed(spans):
    for span in spans:
        assert span["end_s"] >= span["start_s"], span
        assert span["status"], span


def test_executor_killed_mid_task_spans_close():
    cluster = MiniCluster()
    victim = cluster.vm_executors(1)[0]
    cluster.vm_executors(1)
    rdd = single_stage_rdd(cluster.builder, tasks=6, seconds=10.0)
    job = cluster.driver.submit(rdd)

    def sabotage(env):
        yield env.timeout(4.0)
        cluster.driver.task_scheduler.decommission_executor(
            victim, graceful=False, reason="fault: executor_kill")

    cluster.env.process(sabotage(cluster.env))
    cluster.env.run(until=job.done)
    assert not job.failed

    spans = _spans(cluster.trace)
    _assert_all_spans_closed(spans)
    victim_span = _executor(spans, victim.executor_id)
    assert victim_span["status"] == "dead"
    # The task the kill interrupted still occupies timeline real estate,
    # closed at the kill (state "killed" via its task_end record).
    killed = [t for t in _tasks(spans, victim_span)
              if t["status"] in ("killed", "lost")]
    assert killed
    assert all(t["end_s"] <= victim_span["end_s"] + 1e-9 for t in killed)


def test_lambda_lifetime_expiry_spans_close():
    cluster = MiniCluster()
    cluster.vm_executors(1)
    fn = cluster.provider.invoke_lambda(
        LambdaConfig(memory_mb=1536, lifetime_s=5.0))
    cluster.env.run(until=fn.ready)
    la_ex = cluster.driver.add_lambda_executor(fn)

    # Tasks outlive the Lambda: the one it picks up dies with the
    # container and reruns on the VM executor.
    rdd = single_stage_rdd(cluster.builder, tasks=2, seconds=8.0)
    job = cluster.driver.submit(rdd)
    cluster.env.run(until=job.done)
    assert not job.failed

    spans = _spans(cluster.trace)
    _assert_all_spans_closed(spans)
    la_span = _executor(spans, la_ex.executor_id)
    assert la_span["attrs"]["kind"] == "lambda"
    assert la_span["status"] in ("dead", "drained")
    # Its in-flight task closed at/before the reap, never past it.
    la_tasks = _tasks(spans, la_span)
    assert la_tasks
    assert all(t["end_s"] <= la_span["end_s"] + 1e-9 for t in la_tasks)
    assert not any(t["status"] == "finished" for t in la_tasks)


def test_truncated_trace_closes_open_task_as_lost():
    # A task_start with no matching task_end (trace ended mid-task):
    # the span closes at the executor's death with state "lost".
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0", kind="vm")
    trace.record(2.0, "executor", "task_start", executor="e0",
                 task="stage0/p0")
    trace.record(5.0, "executor", "dead", executor="e0")
    spans = _spans(trace)
    (task,) = _tasks(spans, _executor(spans, "e0"))
    assert task["status"] == "lost"
    assert task["start_s"] == 2.0
    assert task["end_s"] == 5.0


def test_open_task_without_death_closes_at_trace_end():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0", kind="vm")
    trace.record(2.0, "executor", "task_start", executor="e0",
                 task="stage0/p0")
    trace.record(7.0, "executor", "task_start", executor="e0",
                 task="stage0/p1")
    spans = _spans(trace)
    tasks = _tasks(spans, _executor(spans, "e0"))
    assert [t["status"] for t in tasks] == ["lost", "lost"]
    # Both close at the last record's time; the later start never goes
    # backwards (end >= start even at zero width).
    assert [t["end_s"] for t in tasks] == [7.0, 7.0]
    _assert_all_spans_closed(spans)


def test_task_start_pairs_with_matching_end():
    # With explicit start/end records the span uses the true start, not
    # the duration back-projection.
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0", kind="vm")
    trace.record(1.0, "executor", "task_start", executor="e0", task="t")
    trace.record(4.0, "executor", "task_end", executor="e0", task="t",
                 state="finished", duration=2.5)
    spans = _spans(trace)
    (task,) = _tasks(spans, _executor(spans, "e0"))
    assert task["start_s"] == 1.0
    assert task["end_s"] == 4.0
    assert task["status"] == "finished"


def test_segue_time_prefers_segue_event_over_drain():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0",
                 kind="lambda")
    trace.record(6.0, "segue", "triggered", vm="vm1", cores=4)
    trace.record(8.0, "executor", "draining", executor="e0")
    assert _segue_time(trace) == 6.0


def test_segue_time_falls_back_to_drain_for_older_traces():
    trace = TraceRecorder()
    trace.record(0.0, "executor", "registered", executor="e0",
                 kind="lambda")
    trace.record(8.0, "executor", "draining", executor="e0")
    assert _segue_time(trace) == 8.0
