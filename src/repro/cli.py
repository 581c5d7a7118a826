"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — available workloads, scenarios, and policies;
- ``run`` — one (workload, scenario) execution, optionally with the
  Figure 7-style executor timeline;
- ``plan`` — rank FaaS/IaaS split candidates against an SLO with the
  calibrated planner, then execute the chosen split and report
  predicted-vs-actual;
- ``profile`` — a §5.1 offline-profiling sweep (the Figure 4 curves);
- ``stream`` — the §4.1 day-of-jobs simulation under a chosen policy;
- ``serve`` — the long-lived control plane: a shared simulated cluster
  behind an HTTP API (``POST /jobs``, ``GET /jobs/{id}``, ``GET
  /executors``, ``GET /pools``, ``GET /plan``, ``GET /events`` SSE,
  ``GET /healthz``/``/readyz``, ``POST /chaos``);
- ``chaos`` — stand up a throwaway control plane, drive a seeded chaos
  scenario (Lambda throttle storms, worker-thread kills, sim-driver
  stalls, kill-9 + journal recovery) against it, assert the recovery
  invariants, and print/export the availability report (see DESIGN.md
  "Service resilience");
- ``trace`` — render the causal span tree of one served job (fetched
  from a live ``repro serve`` via ``GET /trace/{job_id}``, or from a
  saved trace document), optionally exporting the merged host-span +
  sim-event Chrome trace;
- ``report`` — render a breakdown from any export: RunRecord JSONL,
  event logs, or a ``GET /jobs/{id}`` JobStatus document.

Every command shares the same flag set: ``--seed`` picks the RNG seed,
``--workers N`` fans independent runs out over N processes (default:
all cores), and ``--json PATH`` exports the results as JSONL — each
line a versioned :class:`repro.api.schemas.ResponseEnvelope`, the same
shape the serve API returns. Runs go through
:class:`repro.experiments.ExperimentRunner`, so repeated invocations
hit the on-disk result cache (``.repro_cache``; see README).

The full table/figure reproduction lives in the benchmark harness
(``pytest benchmarks/ --benchmark-only``); the CLI is for interactive
exploration.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.analysis.reporting import format_series, format_table, relative_to
from repro.analysis.timeline import render_timeline
from repro.cluster.apps import POOL_STYLES
from repro.cluster.pools import POOL_MODES
from repro.core.scenarios import SCENARIO_NAMES, run_scenario
from repro.experiments import ExperimentRunner, ExperimentSpec, write_jsonl
from repro.observability.export import (
    event_log_dicts,
    save_chrome_trace,
    save_event_log,
)
from repro.observability.spans import event_marks, render_span_tree, run_spans
from repro.simulation.faults import CHAOS_PLANS, FaultSpec
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS
from repro.workloads.registry import make_workload as _registry_make


def make_workload(name: str) -> Workload:
    try:
        return _registry_make(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_faults(arg: Optional[str]) -> Tuple[FaultSpec, ...]:
    """Parse ``--faults`` — inline JSON or ``@file`` — into FaultSpecs.

    Accepts a JSON list of fault objects or a single object; each object
    uses the :class:`~repro.simulation.faults.FaultSpec` vocabulary
    (``kind``, one of ``at_s``/``on_event``/``probability``, ``target``,
    ...). See DESIGN.md, "Fault model".
    """
    if not arg:
        return ()
    text = arg
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SystemExit(f"cannot read fault plan {arg[1:]}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"--faults is not valid JSON: {exc}")
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise SystemExit("--faults must be a JSON object or list of objects")
    try:
        return tuple(FaultSpec.from_dict(item) for item in data)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid fault plan: {exc}")


def _export_json(path: Optional[str], records) -> None:
    if not path:
        return
    try:
        count = write_jsonl(records, path)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}")
    print(f"\nwrote {count} RunRecord(s) to {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_list(_args: argparse.Namespace) -> int:
    from repro.core.policies import known_policies, policy_entry

    print("workloads:")
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    print("  multijob (job-arrival replay on a shared pool; --mj-* flags)")
    print("\nscenarios (paper §5.1):")
    for name in SCENARIO_NAMES:
        print(f"  {name}")
    print("\npolicies:")
    for name in known_policies():
        entry = policy_entry(name)
        print(f"  {name} ({entry.kind}): {entry.description}")
    return 0


def _start_profiler(args: argparse.Namespace):
    """``--profile``: attach the statistical sampler to this thread."""
    if not getattr(args, "profile", False):
        return None
    from repro.observability.serve_obs import SamplingProfiler
    return SamplingProfiler().start()


def _finish_profiler(profiler, records) -> None:
    """Stop the sampler, fold its top-N frames into each record's
    metrics (flat ``profile.*`` keys, exported by ``--json``), and
    print the hot-path table."""
    if profiler is None:
        return
    profiler.stop()
    flat = profiler.metrics()
    for record in records:
        record.metrics.update(flat)
    total = max(1, profiler.sample_count)
    rows = [[label, count, f"{count / total:.1%}"]
            for label, count in profiler.top_frames(10)]
    buckets = ", ".join(f"{b} {frac:.0%}" for b, frac
                        in sorted(profiler.bucket_fractions().items(),
                                  key=lambda kv: -kv[1]))
    print()
    print(format_table(
        ["frame", "samples", "share"], rows,
        title=f"profiler: {profiler.sample_count} samples "
              f"({buckets or 'no samples — run too short or cached'})"))


def cmd_run(args: argparse.Namespace) -> int:
    if args.workload == "multijob":
        return _run_multijob(args)
    workload = make_workload(args.workload)
    scenarios = ([args.scenario] if args.scenario != "all"
                 else SCENARIO_NAMES)
    faults = _parse_faults(args.faults)
    specs = [ExperimentSpec(workload=args.workload, scenario=name,
                            seed=args.seed, faults=faults)
             for name in scenarios]
    wants_trace = bool(args.trace_out or args.events_out)
    if wants_trace and len(specs) != 1:
        raise SystemExit("--trace-out/--events-out need a single scenario; "
                         "pass --scenario <name>, not all")
    if args.timeline or wants_trace or args.profile:
        # Timelines and trace exports need the in-memory trace, which
        # only an in-process record keeps (the runner's records cross
        # processes and the cache as JSON); the profiler needs the run
        # on this thread. Either way: run in-process.
        profiler = _start_profiler(args)
        records = [run_scenario(spec,
                                keep_trace=args.timeline or wants_trace)
                   for spec in specs]
        _finish_profiler(profiler, records)
        for record in records:
            if args.timeline and not record.failed:
                print(f"\n--- timeline: {record.label(workload.spec)} ---")
                print(render_timeline(
                    run_spans(event_log_dicts(record.trace))))
        if wants_trace:
            trace = records[0].trace
            if args.events_out:
                count = save_event_log(trace, args.events_out)
                print(f"wrote {count} event(s) to {args.events_out}")
            if args.trace_out:
                count = save_chrome_trace(
                    run_spans(event_log_dicts(trace)), args.trace_out)
                print(f"wrote {count} traceEvents to {args.trace_out} "
                      f"(load in https://ui.perfetto.dev)")
    else:
        records = ExperimentRunner(workers=args.workers).run(specs)

    base: Optional[float] = None
    for record in records:
        if record.scenario == "spark_R_vm" and not record.failed:
            base = record.duration_s
    rows = []
    for record in records:
        if record.failed:
            rows.append([record.label(workload.spec), "FAILED", "-", "-"])
            continue
        rows.append([record.label(workload.spec),
                     f"{record.duration_s:.1f}s",
                     relative_to(base, record.duration_s) if base else "",
                     f"${record.cost:.4f}"])
    print()
    print(format_table(["scenario", "time", "vs baseline", "cost"], rows,
                       title=f"{workload.name} (seed {args.seed})"))
    _export_json(args.json, records)
    return 0


def _run_multijob(args: argparse.Namespace) -> int:
    """``repro run --workload multijob``: a job-arrival replay against
    one shared FIFO/FAIR executor pool (see DESIGN.md, "Cluster
    runtime"). Pool knobs come from the ``--mj-*`` flags."""
    if args.timeline or args.trace_out or args.events_out:
        raise SystemExit("--timeline/--trace-out/--events-out are "
                         "single-job options; multijob reports pool "
                         "metrics instead")
    faults = _parse_faults(args.faults)
    policy = {}
    if args.mj_split_policy != "none":
        from repro.core.policies import SPLIT, known_policies
        if args.mj_split_policy not in known_policies(SPLIT):
            raise SystemExit(
                f"unknown split policy {args.mj_split_policy!r}; known: "
                f"{', '.join(known_policies(SPLIT))}")
        policy = {"name": args.mj_split_policy}
    spec = ExperimentSpec(
        workload="multijob", scenario="multijob", seed=args.seed,
        faults=faults, policy=policy,
        extra={"mix": args.mj_mix, "n_jobs": args.mj_jobs,
               "mean_interarrival_s": args.mj_interarrival,
               "pool_cores": args.mj_pool_cores,
               "lambda_cores": args.mj_lambda_cores,
               "pool_style": args.mj_pool_style, "mode": args.mj_mode,
               "max_concurrent": args.mj_max_concurrent})
    [record] = ExperimentRunner(workers=args.workers).run([spec])
    if record.failed:
        raise SystemExit(record.failure_reason or record.error
                         or "multijob run failed")
    m = record.metrics
    print(format_table(
        ["metric", "value"],
        [["pool", f"{args.mj_pool_style} ({args.mj_mode}, "
                  f"{args.mj_pool_cores} VM + "
                  f"{args.mj_lambda_cores} La cores)"],
         ["split policy", args.mj_split_policy],
         ["jobs", m["jobs"]],
         ["jobs failed", m["jobs_failed"]],
         ["p50 / p95 latency", f"{m['p50_latency_s']:.1f}s / "
                               f"{m['p95_latency_s']:.1f}s"],
         ["p50 / p95 queueing", f"{m['p50_queueing_delay_s']:.1f}s / "
                                f"{m['p95_queueing_delay_s']:.1f}s"],
         ["cost per job", f"${m['cost_per_job']:.4f}"],
         ["makespan", f"{record.duration_s:.1f}s"],
         ["total cost", f"${record.cost:.4f}"]],
        title=f"multijob: {args.mj_mix} x{args.mj_jobs} "
              f"(seed {args.seed})"))
    _export_json(args.json, [record])
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``repro plan``: rank split candidates for one or more workloads
    against an SLO, then (unless ``--dry-run``) execute each chosen
    split and score the prediction (the planner's calibration loop)."""
    from repro.planner import SplitPlanner
    from repro.planner.planner import DEFAULT_SLO_MARGIN

    if args.margin is None:
        args.margin = DEFAULT_SLO_MARGIN
    if args.workload == "all":
        names = sorted(WORKLOADS)
    else:
        names = [n.strip() for n in args.workload.split(",") if n.strip()]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}; "
                         f"see `repro list`")

    planner = SplitPlanner(seed=args.seed, slo_margin=args.margin)
    runner = ExperimentRunner(workers=args.workers)
    records, plans = [], []
    for name in names:
        plan = planner.plan(name, slo_s=args.slo)
        plans.append(plan)
        rows = []
        for rank, entry in enumerate(plan.candidates, start=1):
            c = entry.candidate
            rows.append([
                rank, c.name, c.vm_cores, c.lambda_cores,
                (f"{c.segue_cores}@{c.segue_at_s:g}s"
                 if c.segue_cores else "-"),
                f"{entry.predicted_runtime_s:.1f}s",
                f"${entry.predicted_cost:.4f}",
                "yes" if entry.meets_slo else "NO"])
        print()
        print(format_table(
            ["rank", "candidate", "vm", "lambda", "segue", "pred time",
             "pred cost", "SLO"],
            rows,
            title=f"{name}: ranked split plan "
                  f"(SLO {plan.slo_s:g}s, seed {args.seed})"))
        if not plan.feasible:
            best = plan.chosen
            print(f"INFEASIBLE: no candidate is predicted to meet the "
                  f"{plan.slo_s:g}s SLO; fastest is "
                  f"{best.candidate.name} at "
                  f"{best.predicted_runtime_s:.1f}s")
        if args.dry_run:
            continue
        [record] = runner.run([planner.spec_for(plan)])
        if record.failed:
            raise SystemExit(record.failure_reason or record.error
                             or f"planned run failed for {name}")
        records.append(record)
        m = record.metrics
        print(f"executed {m['planner.candidate']}: "
              f"{record.duration_s:.1f}s actual vs "
              f"{m['planner.predicted_runtime_s']:.1f}s predicted "
              f"({m['planner.error_runtime_frac']:.1%} error), "
              f"${record.cost:.4f} — "
              f"SLO {'met' if m['planner.slo_met'] else 'MISSED'}")
    if args.dry_run and args.json:
        from repro.api import schemas
        with open(args.json, "w", encoding="utf-8") as handle:
            for plan in plans:
                handle.write(schemas.envelope(
                    schemas.KIND_PLAN,
                    schemas.plan_payload(plan)).dumps() + "\n")
        print(f"\nwrote {len(plans)} plan(s) to {args.json}")
    else:
        _export_json(args.json, records)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload)
    try:
        sweep = [int(x) for x in args.parallelism.split(",")]
        if any(p <= 0 for p in sweep):
            raise ValueError
    except ValueError:
        raise SystemExit(f"--parallelism must be a comma-separated list of "
                         f"positive integers, got {args.parallelism!r}")
    specs = [ExperimentSpec(workload=args.workload,
                            scenario=f"profile_{args.kind}",
                            parallelism=p, seed=args.seed) for p in sweep]
    records = ExperimentRunner(workers=args.workers).run(specs)
    print(format_series(
        "executors", sweep,
        {"time (s)": [r.duration_s for r in records],
         "cost ($)": [r.cost for r in records]},
        title=f"{workload.name}, all-{args.kind} profiling",
        value_format="{:.3f}"))
    _export_json(args.json, records)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    extra = {"hours": args.hours, "k": args.k, "bridge": args.bridge,
             "base_cores": args.base_cores, "peak_cores": args.peak_cores}
    if args.policy != "ksigma":
        # Only non-default policies enter the spec, so pre-registry
        # stream specs keep their hashes (and cached records).
        from repro.core.policies import PROVISIONING, known_policies
        if args.policy not in known_policies(PROVISIONING):
            raise SystemExit(
                f"unknown provisioning policy {args.policy!r}; known: "
                f"{', '.join(known_policies(PROVISIONING))}")
        extra["policy"] = args.policy
    spec = ExperimentSpec(
        workload="diurnal", scenario="stream", seed=args.seed, extra=extra)
    # One simulation: --workers is accepted for flag-set consistency but
    # a single spec always runs in-process.
    [record] = ExperimentRunner(workers=args.workers).run([spec])
    m = record.metrics
    print(format_table(
        ["metric", "value"],
        [["policy", m["policy"]],
         ["bridge", m["bridge"]],
         ["jobs", m["jobs"]],
         ["SLO attainment", f"{m['slo_attainment']:.1%}"],
         ["mean duration", f"{m['mean_duration']:.1f}s"],
         ["Lambda-bridged jobs", m["lambda_bridged_jobs"]],
         ["VM cost", f"${m['vm_cost']:.2f}"],
         ["Lambda cost", f"${m['lambda_cost']:.3f}"],
         ["total cost", f"${record.cost:.2f}"]],
        title=f"{args.hours:g}h job stream"))
    _export_json(args.json, [record])
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: start the control plane over a long-lived
    shared cluster (see DESIGN.md, "Control plane") on the stdlib HTTP
    server."""
    from repro.api.app import create_app
    from repro.api.server import run
    from repro.api.service import ServeConfig

    try:
        config = ServeConfig(
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
            seed=args.seed,
            pool_cores=args.pool_cores,
            lambda_cores=args.lambda_cores,
            pool_style=args.pool_style,
            mode=args.mode,
            sim_step_s=args.sim_step,
            state_dir=args.state_dir,
            journal_fsync=args.journal_fsync,
            default_deadline_s=args.deadline,
            max_attempts=args.max_attempts,
            breaker_failure_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            drain_deadline_s=args.drain_deadline,
            slo_window_s=args.slo_window,
            slo_availability_target=args.slo_availability,
            slo_latency_p99_s=args.slo_latency_p99,
            slo_max_burn_rate=args.slo_max_burn,
            profile=args.profile,
            profile_interval_s=args.profile_interval)
    except ValueError as exc:
        raise SystemExit(str(exc))
    app = create_app(config)

    # SIGTERM = graceful drain: stop admitting (503 "draining"), let
    # running jobs finish up to the drain deadline, checkpoint the rest
    # to the journal, then fall out of serve_forever.
    import signal

    def _graceful(signum, frame):  # pragma: no cover - signal path
        summary = app.runtime.request_drain()
        print(f"drained: {summary}")
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:
        pass  # not the main thread (embedded); drain via POST or close

    journal = (f"journal: {args.state_dir}" if args.state_dir
               else "journal: off (no --state-dir)")
    print(f"repro serve on http://{args.host}:{args.port} "
          f"(pool: {args.pool_cores} VM + {args.lambda_cores} La cores, "
          f"{args.mode}; admission: {args.max_concurrent} running / "
          f"{args.max_queue} queued; seed {args.seed}; {journal})")
    print(f"try: curl -s http://{args.host}:{args.port}/ | python -m "
          f"json.tool")
    run(app, host=args.host, port=args.port)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: drive one seeded chaos scenario against a
    throwaway live control plane and report recovery/availability.

    The run *asserts* its recovery invariants (every job terminal, the
    breaker opens and recovers, kill-9 + restart recovers journaled
    jobs with no duplicates) — a failed invariant is a non-zero exit,
    so this doubles as an operational smoke test against a build."""
    import tempfile

    from repro.api import schemas
    from repro.api.resilience import run_chaos

    def _run(state_dir: Optional[str]) -> dict:
        return run_chaos(plan=args.plan, seed=args.seed, n_jobs=args.jobs,
                         kill_workers=args.kill_workers,
                         stall_driver_s=args.stall,
                         lambda_probes=args.lambda_probes,
                         storm_duration_s=args.storm_duration,
                         state_dir=state_dir)

    try:
        if args.no_journal:
            report = _run(None)
        elif args.state_dir is not None:
            report = _run(args.state_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = _run(tmp)
    except AssertionError as exc:
        raise SystemExit(f"chaos invariant violated: {exc}")

    rows = [["plan", report["plan"]],
            ["seed", report["seed"]],
            ["submitted", report["submitted"]],
            ["completed", report["completed"]],
            ["failed", report["failed"]],
            ["rejected (503)", report["rejected_503"]],
            ["retried jobs", report["retried_jobs"]],
            ["availability", f"{report['availability']:.1%}"],
            ["total wall", f"{report['total_wall_s']:.2f}s"]]
    if "breaker_recovery_s" in report:
        rows.append(["breaker recovery",
                     f"{report['breaker_recovery_s']:.3f}s"])
    if report.get("crash_recovery_s"):
        rows.append(["crash recovery",
                     ", ".join(f"{t:.3f}s"
                               for t in report["crash_recovery_s"])])
    if "recovery" in report:
        rec = report["recovery"]
        rows.append(["journal recovery",
                     f"{rec['recovered_jobs']}/{rec['journaled_jobs']} "
                     f"jobs, {rec['duplicates']} dup, "
                     f"{rec['recovery_wall_s']:.2f}s"])
    print(format_table(["metric", "value"], rows,
                       title=f"chaos: {args.plan}"))
    for phase in report["phases"]:
        detail = {k: v for k, v in phase.items()
                  if k not in ("name", "duration_s")}
        print(f"  {phase['name']:<8} {phase['duration_s']:8.3f}s  {detail}")
    print("all recovery invariants held")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(schemas.envelope(schemas.KIND_CHAOS, report).dumps()
                     + "\n")
        print(f"report written to {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace JOB_ID``: render a served job's causal span tree.

    Fetches ``GET /trace/{job_id}`` from a live ``repro serve`` (or
    reads a saved copy of that document with ``--file``) and renders
    the parent-linked span tree; ``--chrome-out`` additionally merges
    the host wall-clock spans with the trace-stamped sim events into
    one Chrome-trace timeline."""
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {args.file}: {exc}")
    else:
        from urllib import error as urlerror
        from urllib import request as urlrequest
        url = args.url.rstrip("/") + f"/trace/{args.job_id}"
        try:
            with urlrequest.urlopen(url, timeout=args.timeout) as resp:
                text = resp.read().decode("utf-8")
        except urlerror.HTTPError as exc:
            if exc.code == 404:
                raise SystemExit(f"no such job {args.job_id!r} at "
                                 f"{args.url}")
            raise SystemExit(f"GET {url} failed: {exc}")
        except (urlerror.URLError, OSError) as exc:
            raise SystemExit(f"cannot reach {args.url}: {exc} "
                             f"(is `repro serve` running?)")

    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"trace document is not JSON: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit("trace document must be a JSON object")
    data = doc.get("data", doc)  # envelope or bare payload
    spans = data.get("spans") or []
    if not spans:
        raise SystemExit(f"job {args.job_id!r} has no spans (was it "
                         f"submitted before this server started "
                         f"tracing?)")
    try:
        print(render_span_tree(spans, include_times=not args.no_times))
    except ValueError as exc:
        raise SystemExit(f"broken span tree: {exc}")
    sim_events = data.get("sim_events") or []
    if sim_events:
        print(f"{len(sim_events)} sim event(s) stamped with this trace")
    if args.chrome_out:
        root = next(s for s in spans if s.get("parent_span_id") is None)
        n = save_chrome_trace(spans + event_marks(sim_events, root),
                              args.chrome_out)
        print(f"chrome trace ({n} records) written to {args.chrome_out} "
              f"(open in Perfetto / chrome://tracing)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"trace document written to {args.json}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.observability.report import render_report_file

    try:
        print(render_report_file(args.path, index=args.index))
    except OSError as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    except (ValueError, IndexError) as exc:
        raise SystemExit(f"cannot render {args.path}: {exc}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SplitServe reproduction (Middleware '20)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by every executing command (satellite of the
    # ExperimentSpec redesign: one flag set, not per-command one-offs).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for the run(s)")
    common.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for independent runs "
                             "(default: all cores)")
    common.add_argument("--json", default=None, metavar="PATH",
                        help="export results as JSONL to PATH (one "
                             "versioned run_record envelope per line)")

    sub.add_parser("list", help="list workloads and scenarios")

    run_p = sub.add_parser("run", help="run one scenario",
                           parents=[common])
    run_p.add_argument("--workload", default="pagerank")
    run_p.add_argument("--scenario", default="all",
                       choices=["all", *SCENARIO_NAMES])
    run_p.add_argument("--timeline", action="store_true",
                       help="print the Figure 7-style executor timeline")
    run_p.add_argument("--faults", default=None, metavar="JSON|@FILE",
                       help="declarative fault plan: a JSON list of fault "
                            "objects (or @path to a file holding one); "
                            "see DESIGN.md \"Fault model\"")
    run_p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome-trace (Perfetto) JSON of the "
                            "run (single scenario only)")
    run_p.add_argument("--events-out", default=None, metavar="PATH",
                       help="write the raw event log as JSONL (single "
                            "scenario only; same seed => byte-identical)")
    run_p.add_argument("--profile", action="store_true",
                       help="attach the sampled driver profiler to the "
                            "run (forces in-process execution); prints "
                            "the hot-frame table and folds profile.* "
                            "keys into the exported metrics")
    mj = run_p.add_argument_group(
        "multijob options", "apply with --workload multijob: replay a "
        "seeded job-arrival process against one shared executor pool")
    mj.add_argument("--mj-mix", default="sparkpi,pagerank-small",
                    metavar="W1,W2,...",
                    help="registry workloads cycled over arrivals")
    mj.add_argument("--mj-jobs", type=int, default=6, metavar="N",
                    help="number of arrivals to replay")
    mj.add_argument("--mj-interarrival", type=float, default=45.0,
                    metavar="SECONDS",
                    help="mean Poisson interarrival gap")
    mj.add_argument("--mj-pool-cores", type=int, default=8, metavar="N",
                    help="VM executor slots in the shared pool")
    mj.add_argument("--mj-lambda-cores", type=int, default=0, metavar="N",
                    help="extra Lambda-backed slots (hybrid_segue pool)")
    mj.add_argument("--mj-pool-style", choices=POOL_STYLES,
                    default="vm",
                    help="spark_R_vm-style vs ss_hybrid_segue-style pool")
    mj.add_argument("--mj-mode", choices=POOL_MODES, default="fair",
                    help="scheduler-pool ordering for concurrent apps")
    mj.add_argument("--mj-max-concurrent", type=int, default=0,
                    metavar="N",
                    help="admission bound on concurrent apps "
                         "(0 = unlimited)")
    mj.add_argument("--mj-split-policy", default="none",
                    metavar="NAME",
                    help="admission-time split policy (a registered "
                         "'split' policy, e.g. planner); 'none' keeps "
                         "the fixed --mj-* pool shape")

    plan_p = sub.add_parser(
        "plan", help="rank FaaS/IaaS split candidates against an SLO, "
                     "execute the chosen split, and report "
                     "predicted-vs-actual",
        parents=[common])
    plan_p.add_argument("--workload", default="all",
                        metavar="NAME[,NAME...]|all",
                        help="registry workload(s) to plan for "
                             "(default: every registry workload)")
    plan_p.add_argument("--slo", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline to plan against (default: each "
                             "workload's own slo_seconds)")
    plan_p.add_argument("--margin", type=float, default=None,
                        metavar="FRAC",
                        help="prediction-risk headroom as a fraction of "
                             "the SLO (default 0.1)")
    plan_p.add_argument("--dry-run", action="store_true",
                        help="print (and with --json, export) the "
                             "ranked plans without executing them")

    prof_p = sub.add_parser("profile", help="Figure 4-style sweep",
                            parents=[common])
    prof_p.add_argument("--workload", default="pagerank-large")
    prof_p.add_argument("--kind", choices=["lambda", "vm"],
                        default="lambda")
    prof_p.add_argument("--parallelism", default="1,2,4,8,16,32,64,128",
                        help="comma-separated executor counts")

    stream_p = sub.add_parser("stream", help="day-of-jobs simulation",
                              parents=[common])
    stream_p.add_argument("--hours", type=float, default=1.0)
    stream_p.add_argument("--k", type=float, default=0.0,
                          help="provision at m(t)+k*sigma(t) "
                               "(with --policy ksigma)")
    stream_p.add_argument("--policy", default="ksigma", metavar="NAME",
                          help="registered provisioning policy "
                               "(ksigma, mean, 1sigma, 2sigma, 3sigma; "
                               "see `repro list`)")
    stream_p.add_argument("--bridge", choices=["lambda", "none"],
                          default="lambda")
    stream_p.add_argument("--base-cores", type=float, default=20.0)
    stream_p.add_argument("--peak-cores", type=float, default=80.0)

    serve_p = sub.add_parser(
        "serve", help="start the HTTP control plane over a long-lived "
                      "shared cluster")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8000)
    serve_p.add_argument("--seed", type=int, default=0,
                         help="RNG seed of the shared cluster")
    serve_p.add_argument("--max-concurrent", type=int, default=8,
                         metavar="N",
                         help="jobs allowed to run at once (admission "
                              "bound)")
    serve_p.add_argument("--max-queue", type=int, default=256, metavar="N",
                         help="submissions allowed to queue beyond the "
                              "running set before 503 backpressure")
    serve_p.add_argument("--pool-cores", type=int, default=8, metavar="N",
                         help="VM executor slots in the shared pool")
    serve_p.add_argument("--lambda-cores", type=int, default=0,
                         metavar="N",
                         help="extra Lambda-backed slots (hybrid_segue "
                              "pool)")
    serve_p.add_argument("--pool-style", choices=POOL_STYLES,
                         default="vm",
                         help="vm slots only, or vm + Lambda slots segued "
                              "onto VMs over HDFS shuffle")
    serve_p.add_argument("--mode", choices=POOL_MODES,
                         default="fair",
                         help="scheduler-pool ordering for pooled jobs")
    serve_p.add_argument("--sim-step", type=float, default=1.0,
                         metavar="SECONDS",
                         help="simulated seconds advanced per driver "
                              "step (pooled-job arrival granularity)")
    resil = serve_p.add_argument_group(
        "resilience options", "fault tolerance of the control plane "
        'itself; see DESIGN.md "Service resilience"')
    resil.add_argument("--state-dir", default=None, metavar="DIR",
                       help="serve state directory: enables the "
                            "crash-safe job journal; a restarted "
                            "server recovers queued/running jobs "
                            "(default: in-memory only)")
    resil.add_argument("--journal-fsync", action="store_true",
                       help="fsync the journal after every append "
                            "(durable against power loss, slower)")
    resil.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job wall-clock deadline; "
                            "jobs fail terminally past it (default: "
                            "no deadline)")
    resil.add_argument("--max-attempts", type=int, default=3,
                       metavar="N",
                       help="bounded retries for transient worker "
                            "failures (1 = never retry)")
    resil.add_argument("--breaker-threshold", type=int, default=5,
                       metavar="N",
                       help="consecutive Lambda-bridge failures that "
                            "open the circuit breaker")
    resil.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="open-breaker cooldown before the "
                            "half-open probe")
    resil.add_argument("--drain-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="SIGTERM graceful-drain budget before "
                            "queued jobs are checkpointed")
    obs = serve_p.add_argument_group(
        "observability options", "live telemetry of the serve plane; "
        'see DESIGN.md "Serve observability"')
    obs.add_argument("--profile", action="store_true",
                     help="sample the sim driver thread and export "
                          "profile.* frames via GET /metrics "
                          "(statistical, off by default)")
    obs.add_argument("--profile-interval", type=float, default=0.005,
                     metavar="SECONDS",
                     help="profiler sampling interval")
    obs.add_argument("--slo-window", type=float, default=60.0,
                     metavar="SECONDS",
                     help="rolling window for latency quantiles and "
                          "SLO burn rates")
    obs.add_argument("--slo-availability", type=float, default=0.99,
                     metavar="FRAC",
                     help="availability objective (accepted + "
                          "completed fraction)")
    obs.add_argument("--slo-latency-p99", type=float, default=0.25,
                     metavar="SECONDS",
                     help="admission-latency p99 objective")
    obs.add_argument("--slo-max-burn", type=float, default=14.4,
                     metavar="X",
                     help="burn-rate threshold that flips readyz "
                          "slo_burn_ok (14.4 = page-now in SRE "
                          "convention)")

    chaos_p = sub.add_parser(
        "chaos", help="drive a seeded chaos scenario against a live "
                      "control plane and report recovery/availability "
                      "(asserts the recovery invariants)")
    chaos_p.add_argument("--plan", default="throttle_storm",
                         choices=sorted(CHAOS_PLANS),
                         help="named fault storm to arm against the "
                              "shared cluster")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="seed of the throwaway cluster (same "
                              "seed => same sim-side results)")
    chaos_p.add_argument("--jobs", type=int, default=12, metavar="N",
                         help="spec/pooled jobs submitted as load")
    chaos_p.add_argument("--kill-workers", type=int, default=2,
                         metavar="N",
                         help="worker-thread crashes injected at the "
                              "execution boundary")
    chaos_p.add_argument("--stall", type=float, default=0.2,
                         metavar="SECONDS",
                         help="how long the sim driver is wedged "
                              "(reads must keep answering)")
    chaos_p.add_argument("--lambda-probes", type=int, default=8,
                         metavar="N",
                         help="Lambda-bridge probes hammered through "
                              "the circuit breaker")
    chaos_p.add_argument("--storm-duration", type=float, default=2.0,
                         metavar="SECONDS",
                         help="how long the armed fault storm holds "
                              "before lifting (host clock)")
    chaos_p.add_argument("--state-dir", default=None, metavar="DIR",
                         help="journal directory for the kill-9 + "
                              "restart recovery phase (default: a "
                              "temp dir)")
    chaos_p.add_argument("--no-journal", action="store_true",
                         help="skip the journal recovery phase")
    chaos_p.add_argument("--json", default=None, metavar="PATH",
                         help="export the chaos report as one "
                              "versioned envelope")

    trace_p = sub.add_parser(
        "trace", help="render the causal span tree of one served job "
                      "(GET /trace/{job_id} of a live `repro serve`)")
    trace_p.add_argument("job_id", metavar="JOB_ID",
                         help="the job to trace, e.g. job-000001")
    trace_p.add_argument("--url", default="http://127.0.0.1:8000",
                         metavar="URL",
                         help="base URL of the control plane")
    trace_p.add_argument("--file", default=None, metavar="PATH",
                         help="read a saved /trace/{job_id} document "
                              "instead of fetching")
    trace_p.add_argument("--timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="HTTP timeout for the fetch")
    trace_p.add_argument("--no-times", action="store_true",
                         help="hide wall-clock timings (prints the "
                              "deterministic tree the tests "
                              "fingerprint)")
    trace_p.add_argument("--chrome-out", default=None, metavar="PATH",
                         help="write the merged host-span + sim-event "
                              "Chrome trace JSON")
    trace_p.add_argument("--json", default=None, metavar="PATH",
                         help="save the raw trace document")

    report_p = sub.add_parser(
        "report", help="render a per-run breakdown from a RunRecord "
                       "JSONL (repro run --json), an event log "
                       "(repro run --events-out), or a JobStatus "
                       "document (curl of GET /jobs/{id})")
    report_p.add_argument("path", metavar="PATH",
                          help="RunRecord JSONL, event-log JSONL, or "
                               "JobStatus JSON file")
    report_p.add_argument("--index", type=int, default=None,
                          help="render only the Nth record of a "
                               "RunRecord file (0-based)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "plan": cmd_plan,
                "profile": cmd_profile, "stream": cmd_stream,
                "serve": cmd_serve, "chaos": cmd_chaos,
                "trace": cmd_trace, "report": cmd_report}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
