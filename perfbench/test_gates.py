"""Self-tests of the benchmark's gates.

A gate that cannot catch a planted fault is not a gate: each test here
plants one (a wrong pinned digest, a serve job that never finishes, a
metric name the run does not produce, a missing source tree) and checks
that the command fails. A tiny pass of every workload must print exactly
the metric names ``BENCHMARK.json`` declares.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark entry point, imported as a module)

WORKLOADS = sorted(run.WORKLOADS["tiny"])


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _main(capsys, *argv) -> tuple:
    code = run.main(list(argv))
    return code, _last_json(capsys.readouterr().out)


@pytest.fixture(scope="module", autouse=True)
def _repro_importable():
    run.import_repro()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--size", "tiny", "--seconds", "1", "--trace",
         str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.declared_metrics(bool(trace))
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)


def test_planted_wrong_digest_fails(tmp_path, monkeypatch, capsys):
    expected = run.load_expected()
    world = expected["tiny"]["replay-fair"]["0"][0][0]
    world[0] = "0" * 64
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", str(planted))
    code, result = _main(capsys, "--workload", "replay-fair", "--size",
                         "tiny", "--seconds", "1", "--seed", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_pinned_held_out_seed_passes(capsys):
    code, result = _main(capsys, "--workload", "sweep-fig5", "--size",
                         "tiny", "--seconds", "1", "--seed",
                         str(run.HELD_OUT_SEED))
    assert code == 0 and result["correct"]


def test_dropped_serve_job_fails(monkeypatch, capsys):
    from repro.api.service import ServeRuntime

    finish_pooled = ServeRuntime._finish_pooled
    dropped = []

    def drop_first(self, job):
        if not dropped:
            dropped.append(job.id)   # never reaches a terminal state
            return
        finish_pooled(self, job)

    monkeypatch.setattr(ServeRuntime, "_finish_pooled", drop_first)
    monkeypatch.setattr(run, "DRAIN_TIMEOUT_S", 2.0)
    code, result = _main(capsys, "--workload", "serve-pooled", "--size",
                         "tiny", "--seconds", "1")
    assert dropped
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_missing_metric_name_fails(monkeypatch, capsys):
    declared = run.declared_metrics

    def with_extra(trace):
        names = dict(declared(trace))
        names["never_produced_s"] = "s"
        return names

    monkeypatch.setattr(run, "declared_metrics", with_extra)
    code, result = _main(capsys, "--workload", "replay-fair", "--size",
                         "tiny", "--seconds", "1")
    assert code == 1
    assert not result["correct"]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-fair",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
