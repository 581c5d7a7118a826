"""Parallel, cached execution of experiment specs.

:class:`ExperimentRunner` fans a list of specs out over a
``ProcessPoolExecutor``. Each spec builds its own simulation
:class:`~repro.simulation.Environment` and seeded
:class:`~repro.simulation.RandomStreams`, so worker processes share no
state and the resulting records are bit-identical to a serial run —
only ``wall_time_s`` differs.

The pool prefers the ``fork`` start method where available (workers
inherit the already-imported interpreter instead of re-importing numpy)
and falls back to the platform default elsewhere.
"""

from __future__ import annotations

import gc
import importlib
import math
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.experiments.cache import ResultCache, cache_enabled
from repro.experiments.records import RunRecord
from repro.experiments.spec import (
    CUSTOM_PREFIX,
    MULTIJOB_SCENARIO,
    PLANNED_SCENARIO,
    PROFILE_SCENARIOS,
    STREAM_SCENARIO,
    ExperimentSpec,
)


def run_spec(spec: ExperimentSpec) -> RunRecord:
    """Execute one spec in-process and return its record.

    Python-level errors are captured on the record (``error`` +
    ``failed``) rather than raised, so one bad spec never aborts a
    fan-out batch.
    """
    started = time.perf_counter()
    # Pause the cyclic collector for the (bounded) lifetime of one run:
    # a replay allocates hundreds of thousands of short-lived objects
    # that die by refcount, and gen-0 sweeps every ~700 net allocations
    # re-scan live sim state for 5-15% of the run's wall time. Collection
    # timing has no observable effect on results (nothing in the sim is
    # finalizer-driven), but it has on memory: a cycle made during the
    # run lives until the run ends, so it adds to the run's peak and is
    # not only swept at the caller's next threshold crossing after
    # re-enable. A finished job must therefore die by refcount (see
    # tests/cluster/test_job_release.py).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        record = _dispatch(spec)
    except Exception as exc:
        record = RunRecord(
            spec=spec, workload=spec.workload, failed=True,
            failure_reason=f"harness error: {exc}",
            error=traceback.format_exc())
    finally:
        if gc_was_enabled:
            gc.enable()
    record.wall_time_s = time.perf_counter() - started
    return record


def _dispatch(spec: ExperimentSpec) -> RunRecord:
    scenario = spec.scenario
    if scenario in PROFILE_SCENARIOS:
        from repro.analysis.profiling import profile_point
        return profile_point(spec)
    if scenario == STREAM_SCENARIO:
        return _run_stream(spec)
    if scenario == MULTIJOB_SCENARIO:
        from repro.cluster.multijob import run_multijob
        return run_multijob(spec)
    if scenario == PLANNED_SCENARIO:
        from repro.planner.planned import run_planned
        return run_planned(spec)
    if scenario.startswith(CUSTOM_PREFIX):
        module_name, func_name = scenario[len(CUSTOM_PREFIX):].split(":")
        fn = getattr(importlib.import_module(module_name), func_name)
        out = fn(spec)
        if isinstance(out, RunRecord):
            return out
        return RunRecord(spec=spec, **out)
    from repro.core.scenarios import run_scenario
    return run_scenario(spec)


def _run_stream(spec: ExperimentSpec) -> RunRecord:
    """The §4.1 day-of-jobs simulation, parameterized via ``spec.extra``
    (hours, k, policy, bridge, base_cores, peak_cores). ``policy`` names
    a registered provisioning policy (default ``ksigma``, which consumes
    ``k``); named fixed policies like ``2sigma`` ignore ``k``."""
    from repro.core.policies import PROVISIONING, make_policy
    from repro.core.stream import JobStreamSimulator
    from repro.workloads.traces import DiurnalTrace

    params = dict(spec.extra)
    hours = float(params.get("hours", 1.0))
    demand = DiurnalTrace(base_cores=float(params.get("base_cores", 20.0)),
                          peak_cores=float(params.get("peak_cores", 80.0)),
                          sigma_fraction=float(params.get("sigma_fraction", 0.2)),
                          seed=spec.seed).generate(hours=hours + 1)
    policy_name = str(params.get("policy", "ksigma"))
    policy_params = ({"k": float(params.get("k", 0.0))}
                     if policy_name == "ksigma" else {})
    sim = JobStreamSimulator(demand,
                             make_policy(policy_name,
                                         expect_kind=PROVISIONING,
                                         **policy_params),
                             bridge=str(params.get("bridge", "lambda")),
                             seed=spec.seed)
    report = sim.run(hours * 3600.0)
    return RunRecord(
        spec=spec, workload="diurnal-stream",
        duration_s=hours * 3600.0, cost=report.total_cost,
        cost_breakdown={"vm": report.vm_cost, "lambda": report.lambda_cost},
        metrics={"policy": report.policy_label,
                 "bridge": report.bridge,
                 "jobs": len(report.jobs),
                 "slo_attainment": report.slo_attainment,
                 "mean_duration": report.mean_duration,
                 "lambda_bridged_jobs": report.lambda_bridged_jobs,
                 "vm_cost": report.vm_cost,
                 "lambda_cost": report.lambda_cost})


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point (dicts cross the pipe, not dataclasses)."""
    return run_spec(ExperimentSpec.from_dict(payload)).to_dict()


def _pool_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class ExperimentRunner:
    """Execute specs in parallel, memoizing results on disk.

    :param workers: worker processes; default ``os.cpu_count()``.
        ``workers=1`` runs everything in-process (identical numbers).
    :param cache_dir: cache root; default ``$REPRO_CACHE_DIR`` or
        ``.repro_cache``.
    :param cache: set False to bypass the cache entirely. ``custom:``
        scenarios are never cached — their code lives outside the
        ``repro`` package, so the code-version key cannot see it change.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 cache: bool = True) -> None:
        self.workers = max(1, int(workers) if workers else
                           (os.cpu_count() or 1))
        self.cache: Optional[ResultCache] = None
        if cache and cache_enabled():
            self.cache = ResultCache(cache_dir)

    def run(self, specs: Iterable[ExperimentSpec],
            keep_errors: bool = True) -> List[RunRecord]:
        """Execute the specs, returning records in the input order.

        Duplicate specs are executed once and share a record. With
        ``keep_errors=False``, the first harness error is re-raised
        instead of being returned on its record.
        """
        ordered = list(specs)
        unique: Dict[ExperimentSpec, Optional[RunRecord]] = {}
        for spec in ordered:
            unique.setdefault(spec, None)

        misses: List[ExperimentSpec] = []
        for spec in unique:
            hit = self.cache.get(spec) if self._cacheable(spec) else None
            if hit is not None:
                unique[spec] = hit
            else:
                misses.append(spec)

        for spec, record in zip(misses, self._execute(misses)):
            if not keep_errors and record.error is not None:
                raise RuntimeError(
                    f"spec {spec.short_hash} ({spec.workload}, "
                    f"{spec.scenario}) failed:\n{record.error}")
            if self._cacheable(spec) and record.error is None:
                self.cache.put(spec, record)
            unique[spec] = record
        return [unique[spec] for spec in ordered]

    def _cacheable(self, spec: ExperimentSpec) -> bool:
        return (self.cache is not None
                and not spec.scenario.startswith(CUSTOM_PREFIX))

    def _execute(self, specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
        if not specs:
            return []
        workers = min(self.workers, len(specs))
        if workers <= 1:
            return [run_spec(spec) for spec in specs]
        payloads = [spec.to_dict() for spec in specs]
        # Chunk to amortize IPC for many small specs while keeping the
        # workers evenly loaded.
        chunksize = max(1, math.ceil(len(payloads) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=_pool_context()) as pool:
            results = list(pool.map(_execute_payload, payloads,
                                    chunksize=chunksize))
        return [RunRecord.from_dict(data) for data in results]
