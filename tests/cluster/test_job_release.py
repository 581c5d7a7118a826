"""A finished pooled job frees its memory: reference counting alone
frees its driver, DAG, lineage and task attempts once its app completes
(``run_spec`` pauses the cyclic collector, so a reference cycle would
keep them until the world ends), and the app keeps a summary that
equals what the job itself reports at the end of the run."""

import gc
import weakref
from collections import Counter

import pytest

from repro.cluster.apps import AppManager
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_spec
from repro.spark.application import JobResult
from repro.spark.dag_scheduler import Job, Stage
from repro.spark.rdd import RDD
from repro.spark.task import TaskAttempt, TaskSpec


def _spec(seed=0, faults=(), conf_overrides=(), **extra):
    return ExperimentSpec(
        workload="multijob", scenario="multijob", seed=seed,
        faults=faults, conf_overrides=conf_overrides,
        extra={"mix": "sparkpi,pagerank-small", "n_jobs": 6,
               "mean_interarrival_s": 20.0, "pool_cores": 8,
               "mode": "fair", **extra})


def _capture_jobs(monkeypatch, capture):
    admit = AppManager._admit

    def recording_admit(manager, app):
        admit(manager, app)
        capture(app)

    monkeypatch.setattr(AppManager, "_admit", recording_admit)


FAULTS = (
    {"kind": "executor_kill", "at_s": 30.0},
    {"kind": "executor_kill", "at_s": 80.0},
    {"kind": "executor_kill", "at_s": 150.0},
    {"kind": "straggler", "at_s": 0.0, "count": 2, "factor": 4.0},
)
SPECULATION = {"spark.speculation": True}


@pytest.mark.parametrize("faulted", [False, True])
def test_finished_jobs_are_freed_without_the_cyclic_collector(
        monkeypatch, faulted):
    """Under faults, fetch-failed and killed attempts must not form
    cycles either."""
    spec = (_spec(faults=FAULTS, conf_overrides=SPECULATION) if faulted
            else _spec())
    refs = []
    _capture_jobs(monkeypatch, lambda app: refs.extend(
        (weakref.ref(app.job), weakref.ref(app.job.final_rdd))))
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        record = run_spec(spec)
        assert record.metrics["jobs"] == 6 and not record.failed
        alive = [ref() for ref in refs if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = Counter(type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, (Job, TaskAttempt, TaskSpec,
                                             Stage, RDD)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert len(refs) == 12
    assert alive == []
    assert cyclic == Counter()


@pytest.mark.parametrize("seed,pool_style", [
    (0, "vm"), (1, "vm"), (0, "hybrid_segue"), (2, "hybrid_segue")])
def test_stored_summary_equals_the_job_at_the_end_of_the_run(
        monkeypatch, seed, pool_style):
    """The summary is taken when the app completes; an attempt reporting
    to the job after that (a speculative copy, a killed executor) would
    make it differ from the job read at the end of the run."""
    admitted = []
    _capture_jobs(monkeypatch, lambda app: admitted.append((app, app.job)))
    extra = {"pool_style": pool_style}
    if pool_style == "hybrid_segue":
        extra["lambda_cores"] = 4
    record = run_spec(_spec(seed, faults=FAULTS,
                            conf_overrides=SPECULATION, **extra))
    assert record.error is None and record.metrics["faults_injected"]
    assert len(admitted) == 6
    for app, job in admitted:
        assert app.job is None and app.driver is None
        assert app.result == JobResult.from_job(job)
        busy = sum(a.metrics.duration for a in job.task_attempts)
        busy += sum(a.metrics.duration for a in job.failed_attempts)
        assert app.busy_seconds == busy
