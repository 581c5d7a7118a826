"""Run isolation: every world numbers its own RDDs and shuffles.

RDD and shuffle ids are minted by the world's ``ClusterRuntime.lineage``
builder. Two properties follow, one per test:

- a run's event log (``cache_evict`` events carry RDD ids) is the same
  bytes whatever ran before it in the process, i.e. what a fresh
  ``repro run --events-out`` process writes;
- the applications of one pooled world, which share one task scheduler
  (its map-output tracker and executor caches key on these ids), never
  share an id. A builder made per job or per application would pass
  every single-job test; only a pooled world tells them apart.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.cluster.apps import AppManager
from repro.cluster.multijob import run_multijob
from repro.experiments import ExperimentSpec

KMEANS = ("kmeans", "spark_r_vm", 0)
SPARKPI = ("sparkpi", "ss_hybrid_segue", 3)


def _run_args(case, events):
    workload, scenario, seed = case
    return ["run", "--workload", workload, "--scenario", scenario,
            "--seed", str(seed), "--events-out", str(events)]


@pytest.fixture(scope="module")
def fresh_logs(tmp_path_factory):
    """The event log a fresh ``repro run`` process writes, per case."""
    root = tmp_path_factory.mktemp("fresh")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    logs = {}
    for case in (KMEANS, SPARKPI):
        events = root / f"{case[0]}.jsonl"
        subprocess.run([sys.executable, "-m", "repro",
                        *_run_args(case, events)],
                       cwd=root, env=env, check=True, capture_output=True)
        logs[case] = events.read_bytes()
    return logs


def test_event_logs_do_not_depend_on_earlier_runs(fresh_logs, tmp_path):
    # The K-means run evicts cached partitions, so its log names RDDs.
    assert b'"cache_evict"' in fresh_logs[KMEANS]
    # K-means twice, then after SparkPi, then SparkPi after K-means.
    for i, case in enumerate((KMEANS, KMEANS, SPARKPI, KMEANS, SPARKPI)):
        events = tmp_path / f"run{i}.jsonl"
        assert main(_run_args(case, events)) == 0
        assert events.read_bytes() == fresh_logs[case], (
            f"in-process run {i} of {case} wrote a different event log "
            "than a fresh process")


def _lineage(final_rdd):
    seen, stack = {}, [final_rdd]
    while stack:
        rdd = stack.pop()
        if id(rdd) not in seen:
            seen[id(rdd)] = rdd
            stack.extend(dep.parent for dep in rdd.deps)
    return list(seen.values())


def test_pooled_apps_never_share_an_id(monkeypatch):
    # A completed app drops its job, so each job is captured at
    # admission.
    admitted, jobs = [], []
    admit = AppManager._admit

    def recording_admit(manager, app):
        admit(manager, app)
        admitted.append(app)
        jobs.append(app.job)

    monkeypatch.setattr(AppManager, "_admit", recording_admit)
    spec = ExperimentSpec(
        workload="multijob", scenario="multijob", seed=3,
        extra={"mix": "sparkpi,pagerank-small", "n_jobs": 6,
               "mean_interarrival_s": 20.0, "pool_cores": 8,
               "pool_style": "vm", "mode": "fair", "max_concurrent": 0})
    record = run_multijob(spec)
    assert record.metrics["jobs"] == 6
    assert not record.metrics["jobs_failed"]
    assert {app.workload.name for app in admitted} == {"sparkpi",
                                                       "pagerank-25000"}

    rdd_ids, shuffle_ids = [], []
    for job in jobs:
        rdds = _lineage(job.final_rdd)
        rdd_ids.append([rdd.rdd_id for rdd in rdds])
        shuffle_ids.append([dep.shuffle_id for rdd in rdds
                            for dep in rdd.shuffle_deps])
    assert min(rdd_ids[0]) == 0 and min(shuffle_ids[0]) == 0
    every_rdd = [i for ids in rdd_ids for i in ids]
    every_shuffle = [i for ids in shuffle_ids for i in ids]
    assert len(every_rdd) == len(set(every_rdd))
    assert len(every_shuffle) == len(set(every_shuffle))
