"""Figure 4: offline profiling — time & cost vs degree of parallelism.

(a) all-Lambda executors, (b) all-VM executors on the fewest instances,
for the small/medium/large (25k/50k/100k pages) PageRank inputs. The
paper's findings: classic U-shaped curves, the same performance-optimal
parallelism for both substrates, and much lower absolute times on VMs.

Every (size, parallelism) point is one ExperimentSpec fanned out over
the ExperimentRunner, so the 48-point sweep scales with available cores
and re-runs hit the on-disk cache.
"""

import pytest

from repro.analysis.profiling import optimal_parallelism
from repro.analysis.reporting import format_series
from repro.experiments import ExperimentRunner, ExperimentSpec
from benchmarks.conftest import run_once

SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)
SIZES = {"small(25k)": "pagerank-small",
         "medium(50k)": "pagerank-medium",
         "large(100k)": "pagerank-large"}


def profile_specs(kind):
    return {label: [ExperimentSpec(workload=workload,
                                   scenario=f"profile_{kind}",
                                   parallelism=p) for p in SWEEP]
            for label, workload in SIZES.items()}


def run_profiles(kind, runner=None):
    runner = runner if runner is not None else ExperimentRunner()
    by_size = profile_specs(kind)
    flat = [spec for specs in by_size.values() for spec in specs]
    by_spec = dict(zip(flat, runner.run(flat, keep_errors=False)))
    return {label: [by_spec[s] for s in specs]
            for label, specs in by_size.items()}


def _render(points_by_size):
    times = {label: [p.duration_s for p in pts]
             for label, pts in points_by_size.items()}
    costs = {f"{label} $": [p.cost for p in pts]
             for label, pts in points_by_size.items()}
    return (format_series("executors", list(SWEEP), times,
                          title="execution time (s)")
            + "\n\n"
            + format_series("executors", list(SWEEP), costs,
                            title="cost ($)", value_format="{:.4f}"))


def test_fig4a_lambda_profiling(benchmark, emit):
    profiles = run_once(benchmark, lambda: run_profiles("lambda"))
    emit("Figure 4(a) — PageRank profiling, all-Lambda executors",
         _render(profiles))
    for label, points in profiles.items():
        durations = [p.duration_s for p in points]
        best = optimal_parallelism(points)
        # U-shape: the optimum is interior, not at either extreme.
        assert durations[0] > best.duration_s
        assert durations[-1] > best.duration_s
        assert 2 <= best.spec.parallelism <= 64


def test_fig4b_vm_profiling(benchmark, emit):
    vm_profiles = run_once(benchmark, lambda: run_profiles("vm"))
    emit("Figure 4(b) — PageRank profiling, all-VM executors",
         _render(vm_profiles))
    lambda_profiles = run_profiles("lambda")
    for label in SIZES:
        vm_points = {p.spec.parallelism: p for p in vm_profiles[label]}
        la_points = {p.spec.parallelism: p for p in lambda_profiles[label]}
        # "the overall execution time for the job is much lower when
        # running on VMs" at moderate parallelism.
        for parallelism in (4, 8, 16):
            assert (vm_points[parallelism].duration_s
                    <= la_points[parallelism].duration_s * 1.05)


@pytest.mark.smoke
def test_smoke_one_profile_point(tmp_path):
    runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path))
    [record] = runner.run([ExperimentSpec("pagerank-small", "profile_lambda",
                                          parallelism=4)])
    assert record.error is None
    assert record.duration_s > 0 and record.cost > 0
