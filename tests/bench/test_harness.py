"""Tests for the benchmark harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    QueryRun,
    SHC_SYSTEM,
    SPARKSQL_SYSTEM,
    SystemUnderTest,
    run_query,
    sweep_data_sizes,
)
from repro.bench.reporting import format_series_table, format_table
from repro.workloads import load_tpcds
from repro.workloads.tpcds_schema import Q39_TABLES


@pytest.fixture(scope="module")
def env():
    return load_tpcds(5, Q39_TABLES)


def test_run_query_collects_measurements(env):
    run = run_query(env, SHC_SYSTEM, "count",
                    "select count(*) from inventory")
    assert run.system == "SHC"
    assert run.size_gb == 5
    assert run.seconds > 0
    assert run.rows == 1
    assert "hbase.bytes_scanned" in run.metrics


def test_run_query_resets_connection_cache(env):
    cache = env.cluster.connection_cache
    run_query(env, SHC_SYSTEM, "count", "select count(*) from item")
    first_misses = cache.misses
    run_query(env, SHC_SYSTEM, "count", "select count(*) from item")
    # the cache was cleared, so the second run pays its own setups again
    assert first_misses > 0
    assert cache.misses == first_misses


def test_system_under_test_options_flow(env):
    from repro.core.catalog import HBaseSparkConf

    toggled = SystemUnderTest(
        "SHC-noprune", SHC_SYSTEM.format_name,
        extra_options={HBaseSparkConf.PRUNING: "false"},
    )
    sql = "select count(*) from inventory where inv_date_sk >= 2451800"
    pruned = run_query(env, SHC_SYSTEM, "q", sql)
    full = run_query(env, toggled, "q", sql)
    assert pruned.rows == full.rows
    assert full.metrics["hbase.rows_visited"] > pruned.metrics["hbase.rows_visited"]


def test_run_query_tracing_exports(env, tmp_path):
    import json

    from repro.cli import print_trace

    run = run_query(env, SHC_SYSTEM, "count",
                    "select count(*) from inventory", tracing=True)
    assert run.trace is not None
    assert run.trace["kind"] == "query"

    trace_path = tmp_path / "trace.json"
    run.export_trace(str(trace_path))
    import io

    out = io.StringIO()
    print_trace(str(trace_path), show_metrics=True, stdout=out)
    assert "query [query]" in out.getvalue()
    assert "stage-" in out.getvalue()

    run_path = tmp_path / "run.json"
    run.export_json(str(run_path))
    doc = json.loads(run_path.read_text())
    assert doc["system"] == "SHC"
    assert doc["trace"] == run.trace
    assert doc["metrics"] == run.metrics


def test_untraced_run_refuses_trace_export(env, tmp_path):
    run = run_query(env, SHC_SYSTEM, "count",
                    "select count(*) from warehouse")
    assert run.trace is None
    with pytest.raises(ValueError, match="not traced"):
        run.export_trace(str(tmp_path / "nope.json"))


def test_sweep_produces_one_run_per_size_and_system():
    cache = {}
    runs = sweep_data_sizes(
        [5], Q39_TABLES, [SHC_SYSTEM, SPARKSQL_SYSTEM], "count",
        lambda: "select count(*) from warehouse", env_cache=cache,
    )
    assert {(r.system, r.size_gb) for r in runs} == {("SHC", 5), ("SparkSQL", 5)}
    assert 5 in cache


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 22]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert all(len(line) == len(lines[1]) for line in lines[2:])


def test_format_series_table_pivot():
    runs = [
        QueryRun("SHC", "q", 5, 1.0, 10.0, 1.0, 0, {}),
        QueryRun("SHC", "q", 10, 2.0, 20.0, 1.0, 0, {}),
        QueryRun("SparkSQL", "q", 5, 3.0, 30.0, 1.0, 0, {}),
    ]
    text = format_series_table(runs, "seconds", unit="s")
    assert "5 GB" in text and "10 GB" in text
    assert "1.0s" in text and "3.0s" in text
    assert "-" in text  # the missing SparkSQL/10GB cell
