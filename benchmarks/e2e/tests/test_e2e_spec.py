"""BENCHMARK.json obeys the driver's schema, and a run emits exactly it."""

import argparse
import json
import os
import re

import pytest

import run
from passes import run_workload
from workloads import WORKLOADS, IngestViews, OlapPaper

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_schema_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(run.SPEC_PATH) <= 64 * 1024
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(c, str) and len(c) <= 200 for c in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    # the command names no repo file outside the benchmark's own paths
    for part in spec["command"][1:]:
        assert any(part.startswith(p + "/") for p in spec["paths"]), part
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_declared_workloads_are_the_implemented_ones(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for declared in spec["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why


@pytest.fixture(scope="module")
def small_result():
    """One real run, both passes, at smoke scale (seconds, not minutes)."""
    return run_workload("ingest_views", seed=5, seconds=2.0, trace="both",
                        quick=True)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_json_carries_exactly_the_declared_names(spec, small_result,
                                                         trace):
    assert small_result["correct"], small_result["failures"]
    emitted = run.to_driver_result(small_result, spec, trace)
    assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert set(emitted["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = emitted["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    assert emitted["attempted"] >= 1 and emitted["failed"] == 0
    json.dumps(emitted)  # serialisable as is


def test_nothing_measured_goes_undeclared(spec, small_result):
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(small_result["values"]) == declared
    # end-to-end metrics are never zero
    for metric in spec["end_to_end"]:
        assert small_result["values"][metric["name"]] > 0


def test_ingest_model_tracks_what_the_cycles_wrote():
    workload = IngestViews(seed=5)
    workload.build()
    steps = workload.steps(0)
    assert [s.label for s in steps] == ["append", "overwrite", "dashboard"]
    assert [s.label for s in workload.steps(7)][-1] == "compact"
    days = {row[0] for row in workload.dashboard_from_model()}
    assert len(days) == len(workload._base_days) + 3  # cold cycle, 0 and 7
    workload.teardown()


def test_a_wrong_expected_answer_fails_the_run(spec, monkeypatch, capsys):
    monkeypatch.setattr(OlapPaper, "size_gb", 5)
    honest = OlapPaper.prepare_checks

    def corrupt(self):
        honest(self)
        self.expected["q38"] = [(-1,)]
    monkeypatch.setattr(OlapPaper, "prepare_checks", corrupt)

    args = argparse.Namespace(workload="olap_paper", seed=5, seconds=1.0,
                              trace="0", quick=True, out=None)
    status = run.run_single(args, spec)
    assert status != 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    emitted = json.loads(last)
    assert emitted["correct"] is False
    assert emitted["failed"] == emitted["attempted"] > 0
