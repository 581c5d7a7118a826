"""One rule for the kind of executor a task attempt ran on: the
per-kind aggregates and a job's task counts both read it, whatever
prefix a pool gives the executor's id."""

from repro.cluster.apps import AppManager
from repro.cluster.multijob import run_multijob
from repro.experiments.spec import ExperimentSpec
from repro.observability.stage_metrics import (
    executor_kind,
    kind_metrics_from_job,
)
from repro.spark.application import JobResult


def test_executor_kind_reads_prefixed_ids():
    assert executor_kind("la-exec-3") == "lambda"
    assert executor_kind("pool:la-exec-0") == "lambda"
    assert executor_kind("vm-exec-1") == "vm"
    assert executor_kind("pool:vm-exec-2") == "vm"


def test_kind_metrics_file_pooled_lambda_attempts_under_lambda(monkeypatch):
    admitted = []
    admit = AppManager._admit

    def recording_admit(manager, app):
        admit(manager, app)
        admitted.append(app)

    monkeypatch.setattr(AppManager, "_admit", recording_admit)
    record = run_multijob(ExperimentSpec(
        workload="multijob", scenario="multijob", seed=0,
        extra={"mix": "sparkpi", "n_jobs": 2, "pool_cores": 4,
               "pool_style": "hybrid_segue", "lambda_cores": 4}))
    pooled = [a for app in admitted for a in app.job.task_attempts
              if a.executor_id.startswith("pool:la-exec-")]
    assert pooled
    lambda_tasks = 0
    for app in admitted:
        by_kind = {kind: group.tasks for kind, group
                   in kind_metrics_from_job(app.job).items()}
        assert by_kind == JobResult.from_job(app.job).tasks_by_kind
        lambda_tasks += by_kind.get("lambda", 0)
    assert lambda_tasks == len(pooled) == record.tasks_by_kind["lambda"]
