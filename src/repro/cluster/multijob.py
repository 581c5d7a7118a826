"""The ``multijob`` workload: a seeded job-arrival process against one
shared executor pool.

The paper evaluates SplitServe one job at a time; its premise only pays
off when a *cluster* faces concurrent, bursty arrivals. This scenario
replays a seeded Poisson arrival process of mixed registry workloads
through the :class:`~repro.cluster.apps.AppManager` onto a FIFO or FAIR
:class:`~repro.cluster.pool.ExecutorPool` (built, as ``repro serve``
builds its pool, by :func:`~repro.cluster.apps.build_shared_pool`), and
reports p50/p95 job latency, queueing delay, and cost per job through
the standard ``RunRecord.metrics`` / ``repro report`` path.

Parameters come through ``ExperimentSpec.extra``:

======================  =====================================================
``mix``                 comma-separated registry workload names cycled over
                        arrivals (default ``sparkpi,pagerank-small``)
``n_jobs``              arrivals to replay (default 6)
``mean_interarrival_s`` Poisson arrival mean gap (default 45.0)
``pool_cores``          VM executor slots in the shared pool (default 8)
``lambda_cores``        extra Lambda-backed slots (``hybrid_segue`` style)
``pool_style``          ``vm`` (VM slots only, the ``spark_R_vm`` shape) or
                        ``hybrid_segue`` (VM + Lambda slots, segued onto
                        procured VMs — the ``ss_hybrid_segue`` shape)
``mode``                ``fair`` or ``fifo`` ordering of apps in the pool
``max_concurrent``      admission bound (0 = unlimited, the default)
``worker_itype``        instance type for pool VMs (default from the first
                        workload in the mix)
======================  =====================================================

An admission-time split policy rides in ``ExperimentSpec.policy``
(``{"name": "planner", ...}``, resolved through
:mod:`repro.core.policies`): each arriving app then gets a per-job
FaaS/IaaS decision — queue on free VM slots, bridge the shortfall with
Lambdas, or bridge and segue — and the record grows ``planner.*``
metrics summarizing the decisions. Without a policy the run is
byte-identical to pre-planner records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.cluster.apps import AppManager, ClusterApp, build_shared_pool
from repro.cluster.pools import FAIR
from repro.cluster.runtime import ClusterRuntime
from repro.experiments.spec import MULTIJOB_SCENARIO
from repro.observability.instrumentation import attribute_costs
from repro.observability.metrics import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.records import RunRecord
    from repro.experiments.spec import ExperimentSpec


def _params(spec: "ExperimentSpec") -> Dict[str, object]:
    extra = dict(spec.extra)
    mix = [name.strip()
           for name in str(extra.get("mix", "sparkpi,pagerank-small")).split(",")
           if name.strip()]
    if not mix:
        raise ValueError("multijob needs a non-empty workload mix")
    max_concurrent = int(extra.get("max_concurrent", 0)) or None
    return {
        "mix": mix,
        "n_jobs": int(extra.get("n_jobs", 6)),
        "mean_interarrival_s": float(extra.get("mean_interarrival_s", 45.0)),
        "pool_cores": int(extra.get("pool_cores", 8)),
        "lambda_cores": int(extra.get("lambda_cores", 0)),
        "pool_style": str(extra.get("pool_style", "vm")),
        "mode": str(extra.get("mode", FAIR)),
        "max_concurrent": max_concurrent,
        "worker_itype": extra.get("worker_itype"),
    }


def _split_policy(spec: "ExperimentSpec"):
    """Build the admission-time split policy named in ``spec.policy``
    (``{"name": ..., **params}``); None when the spec carries no policy
    — that path must stay byte-identical to pre-planner records."""
    cfg = dict(spec.policy)
    if not cfg:
        return None
    from repro.core.policies import SPLIT, make_policy
    name = str(cfg.pop("name", "planner"))
    cfg.setdefault("seed", spec.seed)
    return make_policy(name, expect_kind=SPLIT, **cfg)


def run_multijob(spec: "ExperimentSpec") -> "RunRecord":
    """Execute one multijob arrival replay and return its record."""
    from repro.workloads.registry import make_workload

    params = _params(spec)
    runtime = ClusterRuntime(spec.seed, trace_enabled=False,
                             faults=spec.faults)
    conf = spec.conf()

    workloads = [make_workload(name) for name in params["mix"]]
    worker_itype = (params["worker_itype"]
                    or workloads[0].spec.worker_itype)

    manager = build_shared_pool(
        runtime, conf, pool_cores=params["pool_cores"],
        lambda_cores=params["lambda_cores"],
        pool_style=params["pool_style"], mode=params["mode"],
        max_concurrent=params["max_concurrent"], worker_itype=worker_itype,
        segue_at_s=(spec.segue_at_s if spec.segue_at_s is not None
                    else workloads[0].spec.vm_ready_delay_s),
        split_policy=_split_policy(spec))

    n_jobs = params["n_jobs"]
    apps = [ClusterApp(f"app{i}", i, workloads[i % len(workloads)],
                       registry_name=params["mix"][i % len(workloads)])
            for i in range(n_jobs)]

    def arrivals(env):
        for i, app in enumerate(apps):
            manager.submit(app)
            if i + 1 < n_jobs:
                yield env.timeout(runtime.rng.exponential(
                    "multijob.arrival", params["mean_interarrival_s"]))

    runtime.env.process(arrivals(runtime.env))
    runtime.env.run(until=manager.completion_event(n_jobs))
    end = runtime.env.now
    manager.pool.settle(end)
    runtime.listener.finalize(end)
    attribute_costs(runtime.metrics, runtime.meter.total(),
                    runtime.meter.breakdown())

    return _build_record(spec, runtime, manager, params, end)


def _build_record(spec, runtime: ClusterRuntime, manager: AppManager,
                  params, end: float) -> "RunRecord":
    from repro.experiments.records import RunRecord

    completed = [app for app in manager.finished if not app.failed]
    latencies = [app.latency_s for app in completed]
    queue_delays = [app.queueing_delay_s for app in manager.finished
                    if app.queueing_delay_s is not None]
    total_cost = runtime.meter.total()
    n_jobs = len(manager.finished)

    # Apportion the shared pool's cost across applications by their
    # task-occupancy share (marginal-cost flavour of §5.1 at app grain).
    busy = {app.app_id: app.busy_seconds for app in manager.finished}
    total_busy = sum(busy.values())
    metrics: Dict[str, object] = {}
    tasks = 0
    tasks_by_kind: Dict[str, int] = {}
    for app in manager.finished:
        share = (busy[app.app_id] / total_busy if total_busy > 0
                 else 1.0 / max(n_jobs, 1))
        metrics[f"app.{app.app_id}.cost"] = share * total_cost
        metrics[f"app.{app.app_id}.workload"] = app.workload.name
        if not app.failed:
            tasks += app.result.num_tasks
            for kind, count in app.result.tasks_by_kind.items():
                tasks_by_kind[kind] = tasks_by_kind.get(kind, 0) + count

    metrics.update(runtime.metrics.snapshot())
    metrics.update({
        "events_processed": runtime.env.events_processed,
        "jobs": n_jobs,
        "jobs_failed": sum(1 for app in manager.finished if app.failed),
        "p50_latency_s": percentile(latencies, 0.50),
        "p95_latency_s": percentile(latencies, 0.95),
        "mean_latency_s": (sum(latencies) / len(latencies)
                           if latencies else float("nan")),
        "p50_queueing_delay_s": percentile(queue_delays, 0.50),
        "p95_queueing_delay_s": percentile(queue_delays, 0.95),
        "cost_per_job": total_cost / max(n_jobs, 1),
        "mode": params["mode"],
        "pool_style": params["pool_style"],
        "pool_cores": params["pool_cores"],
        "lambda_cores": params["lambda_cores"],
    })
    if runtime.recovery is not None:
        metrics.update(runtime.recovery.metrics())
        metrics["faults_injected"] = len(runtime.injector.injected)
    if manager.split_policy is not None:
        decisions = manager.decisions
        metrics["planner.split_decisions"] = len(decisions)
        metrics["planner.choices"] = ",".join(d.choice for d in decisions)
        metrics["planner.bridged_lambda_cores"] = sum(
            d.lambda_cores for d in decisions)
        metrics["planner.segue_cores"] = sum(
            d.segue_cores for d in decisions)
        metrics["planner.predicted_slo_met"] = sum(
            1 for d in decisions if d.meets_slo)

    failed = bool(manager.finished) and all(app.failed
                                            for app in manager.finished)
    failure_reason = None
    if failed:
        failure_reason = manager.finished[0].failure_reason
    return RunRecord(
        spec=spec, workload=MULTIJOB_SCENARIO,
        duration_s=end, cost=total_cost,
        failed=failed, failure_reason=failure_reason,
        cost_breakdown=runtime.meter.breakdown(),
        tasks=tasks or None, tasks_by_kind=tasks_by_kind,
        metrics=metrics)
