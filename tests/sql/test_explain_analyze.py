"""EXPLAIN ANALYZE: the report's numbers must equal the run's metrics.

The acceptance bar for the observability layer: on a real TPC-DS query the
per-operator annotations (regions pruned/scanned, filters pushed/residual)
and the stage/summary numbers are exactly the `MetricsRegistry` counters of
the same execution -- no second run, no estimates.
"""

import re

import pytest

from repro.sql.explain import explain_analyze_report
from repro.workloads import load_tpcds
from repro.workloads.queries import q39a
from repro.workloads.tpcds_schema import Q39_TABLES


@pytest.fixture(scope="module")
def env():
    return load_tpcds(5, Q39_TABLES)


@pytest.fixture
def session(env):
    from repro.hbase.cluster import _CLUSTER_REGISTRY

    _CLUSTER_REGISTRY[env.cluster.quorum] = env.cluster
    return env.new_session()


def _sum_notes(report: str, pattern: str) -> float:
    return sum(float(m) for m in re.findall(pattern, report))


def test_explain_analyze_matches_metrics_on_q39a(session):
    df = session.sql(q39a())
    report = df.explain(analyze=True)
    result = df.last_analyzed
    metrics = result.metrics

    for heading in ("== Physical Plan (EXPLAIN ANALYZE) ==",
                    "== Stages ==", "== Query Summary =="):
        assert heading in report

    # per-operator scan annotations sum to the run's connector counters
    assert _sum_notes(report, r"regions: scanned=(\d+)") == \
        metrics.get("shc.regions_scanned")
    assert _sum_notes(report, r"pruned=(\d+) of") == \
        metrics.get("shc.regions_pruned")
    assert _sum_notes(report, r"filters: pushed=(\d+)") == \
        metrics.get("shc.filters_pushed")
    assert _sum_notes(report, r"residual=(\d+)") == \
        metrics.get("shc.filters_residual")
    # locality annotations sum to the engine's locality counter
    assert _sum_notes(report, r"locality: hits=(\d+)") == \
        metrics.get("engine.local_tasks")

    # the summary quotes the exact headline numbers of this run
    assert f"{len(result.rows)}" in report
    assert f"{result.seconds:.4f}" in report
    assert f"{metrics.get('engine.tasks'):.0f}" in report

    # the scan operators' scoped counters are the whole of the counters
    scans = [op for op, s in result.operator_stats.items() if "relation" in s]
    assert scans, "no scan operators recorded stats"
    for name in ("shc.regions_scanned", "shc.regions_pruned",
                 "shc.filters_pushed", "shc.filters_residual"):
        assert sum(metrics.for_op(op)[name] for op in scans) == \
            metrics.get(name), name


def test_explain_analyze_join_rows_match_ledger_on_q39a(session):
    """Join operators surface their output through the report and their
    scoped counters, and both are the ``engine.join.rows_out`` counter of
    the same run."""
    # DataFrame.explain's two calls spelled out, to keep the planned tree
    planned = session.plan_query(session.sql(q39a()).query)
    result = session.execute_planned(planned)
    report = explain_analyze_report(planned.physical, result)
    metrics = result.metrics

    ledger_rows = metrics.get("engine.join.rows_out")
    assert ledger_rows > 0, "q39a must execute at least one hash join"
    # the per-operator annotation lines quote the same totals
    assert _sum_notes(report, r"join: rows_out=(\d+)") == ledger_rows
    # the join operators' scoped counters are the whole counter
    joins = [metrics.for_op(op.op_id) for op in planned.physical.walk()]
    joins = [c for c in joins if "engine.join.rows_out" in c]
    assert joins and sum(c["engine.join.rows_out"] for c in joins) == ledger_rows
    assert sum(c["engine.join.bytes_out"] for c in joins) == \
        metrics.get("engine.join.bytes_out")
    # every join row was booked by a task, so the stages' registries hold it
    assert sum(s.metrics.get("engine.join.rows_out")
               for s in result.stages) == ledger_rows
    assert "join stages:" not in report


def test_explain_analyze_trace_totals_match(session):
    df = session.sql("select count(*) from inventory "
                     "where inv_date_sk >= 2451800")
    df.explain(analyze=True)
    result = df.last_analyzed
    trace = result.trace
    assert trace is not None

    # the root span's metric snapshot is the run's snapshot
    assert trace.metrics == dict(result.metrics.snapshot())
    assert trace.sim_seconds == result.seconds
    # stage spans cover every scheduled stage, in order
    stage_spans = trace.find("stage")
    assert [s.name for s in stage_spans] == \
        [f"stage-{info.stage_id}" for info in result.stages]
    for span, info in zip(stage_spans, result.stages):
        assert span.sim_seconds == info.duration_s
        assert span.attrs["num_tasks"] == info.num_tasks


def test_plain_explain_does_not_execute(session):
    df = session.sql("select count(*) from warehouse")
    text = df.explain()
    assert "EXPLAIN ANALYZE" not in text
    assert getattr(df, "last_analyzed", None) is None
