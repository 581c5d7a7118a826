"""Tests for the command-line interface."""

import pytest

from repro.cli import WORKLOADS, build_parser, main, make_workload


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pagerank" in out
    assert "ss_hybrid" in out


def test_workload_registry_covers_paper_workloads():
    for name in ("pagerank", "kmeans", "sparkpi", "tpcds-q5", "tpcds-q95"):
        assert name in WORKLOADS


def test_make_workload_unknown_exits():
    with pytest.raises(SystemExit, match="unknown workload"):
        make_workload("mapreduce-2004")


def test_run_single_scenario(capsys):
    assert main(["run", "--workload", "sparkpi",
                 "--scenario", "ss_R_la"]) == 0
    out = capsys.readouterr().out
    assert "SS 64 La" in out
    assert "$" in out


def test_run_with_timeline(capsys):
    assert main(["run", "--workload", "sparkpi",
                 "--scenario", "ss_R_la", "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline" in out
    assert "#" in out


def test_timeline_header_and_table_row_share_one_label(capsys):
    """PageRank's 13 Lambda slots against a concurrency cap of 2: 11
    fall back to VM cores, and both the timeline header and the table
    row count the 2 Lambda executors that registered."""
    assert main(["run", "--workload", "pagerank", "--scenario", "ss_hybrid",
                 "--timeline", "--faults",
                 '[{"kind": "lambda_throttle", "at_s": 0.0, "limit": 2, '
                 '"duration_s": 500.0}]']) == 0
    out = capsys.readouterr().out
    assert "--- timeline: SS 3 VM / 2 La ---" in out
    assert out.count("SS 3 VM / 2 La") == 2
    assert "13 La" not in out


def test_profile_command(capsys):
    assert main(["profile", "--workload", "pagerank-small",
                 "--kind", "vm", "--parallelism", "2,8"]) == 0
    out = capsys.readouterr().out
    assert "executors" in out
    assert "all-vm" in out


def test_stream_command(capsys):
    assert main(["stream", "--hours", "0.1", "--base-cores", "8",
                 "--peak-cores", "16"]) == 0
    out = capsys.readouterr().out
    assert "SLO attainment" in out


def test_parser_rejects_bad_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scenario", "warp-drive"])


def test_common_flags_on_every_command():
    parser = build_parser()
    for command in ("run", "profile", "stream"):
        args = parser.parse_args([command, "--seed", "3", "--workers", "2",
                                  "--json", "out.jsonl"])
        assert args.seed == 3
        assert args.workers == 2
        assert args.json == "out.jsonl"


def test_run_json_export_emits_run_records(tmp_path, capsys):
    from repro.experiments import read_jsonl

    path = str(tmp_path / "records.jsonl")
    assert main(["run", "--workload", "sparkpi", "--scenario", "ss_R_la",
                 "--seed", "1", "--json", path]) == 0
    [record] = read_jsonl(path)
    assert record.spec.scenario == "ss_R_la"
    assert record.spec.workload == "sparkpi"
    assert record.spec.seed == 1
    assert record.duration_s > 0
    assert "wrote 1 RunRecord" in capsys.readouterr().out


def test_profile_json_export_and_workers(tmp_path, capsys):
    from repro.experiments import read_jsonl

    path = str(tmp_path / "profile.jsonl")
    assert main(["profile", "--workload", "pagerank-small", "--kind", "vm",
                 "--parallelism", "2,8", "--workers", "1",
                 "--json", path]) == 0
    records = read_jsonl(path)
    assert [r.spec.parallelism for r in records] == [2, 8]
    assert all(r.spec.scenario == "profile_vm" for r in records)


def test_stream_json_export(tmp_path, capsys):
    from repro.experiments import read_jsonl

    path = str(tmp_path / "stream.jsonl")
    assert main(["stream", "--hours", "0.1", "--base-cores", "8",
                 "--peak-cores", "16", "--json", path]) == 0
    [record] = read_jsonl(path)
    assert record.spec.scenario == "stream"
    assert record.metrics["jobs"] > 0
    assert "SLO attainment" in capsys.readouterr().out


def test_run_faults_flag(tmp_path, capsys):
    from repro.experiments import read_jsonl

    path = str(tmp_path / "faulted.jsonl")
    assert main(["run", "--workload", "sparkpi", "--scenario", "ss_R_vm",
                 "--workers", "1", "--json", path, "--faults",
                 '[{"kind": "executor_kill", "at_s": 5.0}]']) == 0
    [record] = read_jsonl(path)
    assert len(record.spec.faults) == 1
    assert record.spec.faults[0].kind == "executor_kill"
    assert record.metrics["faults_injected"] == 1


def test_run_faults_from_file_and_single_object(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"kind": "executor_kill", "at_s": 5.0}')
    assert main(["run", "--workload", "sparkpi", "--scenario", "ss_R_vm",
                 "--workers", "1", "--faults", f"@{plan}"]) == 0
    assert "$" in capsys.readouterr().out


def test_run_faults_rejects_bad_input(tmp_path):
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["run", "--workload", "sparkpi", "--scenario", "ss_R_vm",
              "--faults", "{nope"])
    with pytest.raises(SystemExit, match="invalid fault plan"):
        main(["run", "--workload", "sparkpi", "--scenario", "ss_R_vm",
              "--faults", '[{"kind": "meteor_strike"}]'])
    with pytest.raises(SystemExit, match="cannot read fault plan"):
        main(["run", "--workload", "sparkpi", "--scenario", "ss_R_vm",
              "--faults", f"@{tmp_path}/missing.json"])
