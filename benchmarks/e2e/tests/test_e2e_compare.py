"""The --compare verdicts: ok, worse, unresolved; ratio with its base."""

import json

from compare import compare_files, judge, load_run_set


def test_judge_directions_and_bound():
    assert judge([100.0], [105.0], "lower", 0.10)["status"] == "ok"
    assert judge([100.0], [111.0], "lower", 0.10)["status"] == "worse"
    assert judge([100.0], [80.0], "lower", 0.10)["status"] == "ok"
    assert judge([10.0], [8.5], "higher", 0.12)["status"] == "worse"
    assert judge([10.0], [12.0], "higher", 0.12)["status"] == "ok"
    verdict = judge([100.0], [111.0], "lower", 0.10)
    assert abs(verdict["ratio"] - 1.11) < 1e-12 and verdict["spread"] is None


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [80.0, 95.0, 100.0, 105.0, 130.0]
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert judge(noisy, steady, "lower", 0.10)["status"] == "unresolved"
    assert judge(steady, noisy, "lower", 0.10)["status"] == "unresolved"
    assert judge(steady, [v * 1.2 for v in steady], "lower", 0.10)["status"] \
        == "worse"
    assert judge(steady, steady, "lower", 0.10)["status"] == "ok"


def _write_runs(folder, factor):
    folder.mkdir()
    for i, jitter in enumerate((0.99, 1.0, 1.01, 1.0)):
        result = {"workload": "olap_paper", "values": {
            "wall_norm_ms_p50": 600.0 * factor * jitter,
            "cycles_per_s": 1.6 / factor, "sim_s_per_cycle": 150.0,
            "setup_s": 2.5, "peak_rss_mb": 80.0,
            "shc.cells_decoded": 100000.0 * factor}}
        (folder / f"run_{i}.json").write_text(json.dumps(
            {"workloads": {"olap_paper": result}}))


def test_compare_directories_end_to_end(tmp_path, capsys):
    import run

    spec = run.load_spec()
    _write_runs(tmp_path / "a", 1.0)
    _write_runs(tmp_path / "b", 1.3)
    assert len(load_run_set(str(tmp_path / "a"))["olap_paper"]["setup_s"]) == 4
    assert compare_files(str(tmp_path / "a"), str(tmp_path / "a"), spec) == 0
    capsys.readouterr()
    assert compare_files(str(tmp_path / "a"), str(tmp_path / "b"), spec) == 1
    table = capsys.readouterr().out
    assert "base A" in table
    rows = {line.split()[1]: line.split()[-1] for line in table.splitlines()
            if line.startswith("olap_paper")}
    assert rows["wall_norm_ms_p50"] == "worse"
    assert rows["cycles_per_s"] == "worse"
    assert rows["sim_s_per_cycle"] == "ok"
    assert rows["shc.cells_decoded"] == "-"


def test_compare_reads_the_out_directory_a_real_run_leaves(tmp_path, monkeypatch,
                                                           capsys):
    """Trace files and merged run files share ``out/``: one run must count
    once, and the trace file must not be taken for a result."""
    import argparse
    import os

    import run

    spec = run.load_spec()
    one = dict(spec, workloads=[w for w in spec["workloads"]
                                if w["name"] == "ingest_views"])
    out = tmp_path / "out"
    monkeypatch.setattr(run, "OUT_DIR", str(out))
    args = argparse.Namespace(seed=5, seconds=2.0, quick=True, out=None)
    assert run.run_all(args, one) == 0
    assert sorted(os.listdir(out)) == ["run_seed5.json",
                                       "trace_ingest_views.json"]
    runs = load_run_set(str(out))
    assert list(runs) == ["ingest_views"]
    assert all(len(values) == 1 for values in runs["ingest_views"].values())
    capsys.readouterr()
    assert compare_files(str(out), str(out), spec) == 0
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("ingest_views")]
    assert verdicts == ["ok"] * len(spec["end_to_end"])
