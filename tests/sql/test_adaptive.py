"""Adaptive query execution: rules, stats plumbing and EXPLAIN output.

Workloads are built from local relations where the *estimates* mislead the
planner (a filtered dimension the size model overestimates, a hot join key
the uniform model cannot see), so the adaptive layer has real decisions to
make.  Every adaptive run is checked row-identical to its non-adaptive
twin -- re-optimisation may only move work around, never change answers.
"""

import pytest

from repro.common.tracing import Span
from repro.engine.shuffle import ShuffleBlockStore
from repro.sql.adaptive import plan_skew_chunks
from tests.differential.strategies import (  # noqa: F401 - small_skew is a fixture
    SKEW_SQL,
    dim_rows,
    fact_rows,
    make_session,
    register,
    run_rows,
    skew_conf,
    small_skew,
)


# -- unit: what the re-planner reads ----------------------------------------------

def test_runtime_stats_accumulate_map_outputs():
    """The re-planner's statistics are the block store's per-block bytes."""
    store = ShuffleBlockStore()
    store.put_block(1, 0, 0, ["a"], 10)
    store.put_block(1, 0, 2, ["b", "c"], 20)
    store.put_block(1, 1, 1, ["d", "e", "f", "g"], 40)
    store.put_block(2, 0, 0, ["other"], 99)
    assert store.partition_bytes(1, 3) == [10, 40, 20]
    assert [(m, n) for m, __, n in store.blocks_for(1, 2)] == [(0, 20)]


def test_plan_skew_chunks_partitions_map_outputs():
    store = ShuffleBlockStore()
    for map_id in range(4):
        store.put_block(3, map_id, 0, ["row"], 500)
    chunks = plan_skew_chunks(store, 3, partition=0, target_bytes=1000)
    assert chunks == [[0, 1], [2, 3]]
    # a partition nothing wrote to yields one empty chunk (no split)
    assert plan_skew_chunks(store, 3, partition=1, target_bytes=1000) == [[]]


# -- rule 1: broadcast conversion --------------------------------------------------

CONVERSION_SQL = """
    SELECT f.fk, f.payload, d.name
    FROM fact f JOIN (SELECT * FROM dim WHERE id < 3) d ON f.fk = d.id
"""


def conversion_conf():
    # the filtered dimension is *estimated* at parent//4 (over the threshold)
    # but actually writes only 3 tagged rows (far under it)
    return {"sql.autoBroadcastJoinThreshold": 1024}


def test_broadcast_conversion_fires_and_preserves_rows():
    baseline_session = make_session(False, **conversion_conf())
    register(baseline_session, fact_rows(), dim_rows(64))
    base_rows, base = run_rows(baseline_session, CONVERSION_SQL)
    assert base.metrics.get("engine.aqe.broadcast_conversions") == 0.0

    aqe_session = make_session(True, **conversion_conf())
    register(aqe_session, fact_rows(), dim_rows(64))
    aqe_rows, res = run_rows(aqe_session, CONVERSION_SQL)

    assert aqe_rows == base_rows
    assert res.metrics.get("engine.aqe.broadcast_conversions") == 1.0
    assert any(e["rule"] == "broadcast-conversion" for e in res.reopt_events)
    strategies = [s.get("final_strategy") for s in res.operator_stats.values()]
    assert "BroadcastHashJoin" in strategies


def test_swapped_conversion_builds_on_small_left():
    conf = conversion_conf()
    sql = """
        SELECT d.name, f.payload
        FROM (SELECT * FROM dim WHERE id < 3) d JOIN fact f ON d.id = f.fk
    """
    baseline_session = make_session(False, **conf)
    register(baseline_session, fact_rows(), dim_rows(64))
    base_rows, __ = run_rows(baseline_session, sql)

    aqe_session = make_session(True, **conf)
    register(aqe_session, fact_rows(), dim_rows(64))
    aqe_rows, res = run_rows(aqe_session, sql)

    assert aqe_rows == base_rows
    assert res.metrics.get("engine.aqe.broadcast_conversions") == 1.0
    strategies = [s.get("final_strategy") for s in res.operator_stats.values()]
    assert "BroadcastHashJoin (build side swapped)" in strategies


def test_small_left_not_swapped_for_outer_join():
    conf = conversion_conf()
    sql = """
        SELECT d.name, f.payload
        FROM (SELECT * FROM dim WHERE id < 3) d LEFT JOIN fact f ON d.id = f.fk
    """
    baseline_session = make_session(False, **conf)
    register(baseline_session, fact_rows(), dim_rows(64))
    base_rows, __ = run_rows(baseline_session, sql)

    aqe_session = make_session(True, **conf)
    register(aqe_session, fact_rows(), dim_rows(64))
    aqe_rows, res = run_rows(aqe_session, sql)

    assert aqe_rows == base_rows
    # the stream (right) side is big and LEFT JOIN cannot swap build sides,
    # so the join stays shuffled
    assert res.metrics.get("engine.aqe.broadcast_conversions") == 0.0
    strategies = [s.get("final_strategy", "") for s in res.operator_stats.values()]
    assert any(s.startswith("ShuffledHashJoin") for s in strategies)


# -- rule 2: skew splitting ---------------------------------------------------------

def test_skew_split_fires_and_preserves_rows(small_skew):
    fact = fact_rows(n=600, hot_fraction=0.8)
    baseline_session = make_session(False, **skew_conf())
    register(baseline_session, fact, dim_rows())
    base_rows, base = run_rows(baseline_session, SKEW_SQL)

    aqe_session = make_session(True, **skew_conf())
    register(aqe_session, fact, dim_rows())
    aqe_rows, res = run_rows(aqe_session, SKEW_SQL)

    assert aqe_rows == base_rows
    assert res.metrics.get("engine.aqe.skew_splits") >= 1.0
    skew_events = [e for e in res.reopt_events if e["rule"] == "skew-split"]
    assert skew_events and "hot key" in skew_events[0]["detail"]
    # splitting the hot partition must beat the serialized baseline
    assert res.seconds < base.seconds


def test_skew_split_names_the_partitions_heaviest_key_by_rows(small_skew):
    """The hot key is counted exactly from the split partition's blocks, by
    rows: key 7's many short rows outnumber the few wide rows of key 15,
    which hashes to the same partition and outweighs it in bytes."""
    fact = ([(7, "short") for __ in range(400)]
            + [(15, "wide-" + "w" * 400) for __ in range(100)]
            + fact_rows(n=96))
    session = make_session(True, **skew_conf())
    register(session, fact, dim_rows())
    __, res = run_rows(session, SKEW_SQL)
    details = [e["detail"] for e in res.reopt_events if e["rule"] == "skew-split"]
    hot_rows = sum(1 for fk, __ in fact if fk == 7)
    assert len(details) == 1
    assert details[0].endswith(f"hot key (7,) ({hot_rows} rows)")


@pytest.mark.parametrize("sql", [
    "SELECT fk, count(*) AS c FROM fact GROUP BY fk",
    "SELECT DISTINCT fk FROM fact",
    "SELECT fk FROM fact INTERSECT SELECT id FROM dim",
], ids=["aggregate", "distinct", "intersect"])
def test_only_joins_are_adaptive(sql):
    """AQE is one operator: an aggregation, DISTINCT or INTERSECT runs with
    no stage barrier and costs exactly what it does statically."""
    baseline_session = make_session(False)
    register(baseline_session, fact_rows(n=60), dim_rows())
    base_rows, base = run_rows(baseline_session, sql)

    aqe_session = make_session(True)
    register(aqe_session, fact_rows(n=60), dim_rows())
    aqe_rows, res = run_rows(aqe_session, sql)

    assert aqe_rows == base_rows
    assert res.seconds == base.seconds
    assert dict(res.metrics.snapshot()) == dict(base.metrics.snapshot())
    assert not res.reopt_events


# -- observability -----------------------------------------------------------------

def test_explain_analyze_shows_adaptive_section():
    session = make_session(True, **conversion_conf())
    register(session, fact_rows(), dim_rows(64))
    df = session.sql(CONVERSION_SQL)
    report = df.explain(analyze=True)
    assert "== Adaptive Execution ==" in report
    assert "broadcast-conversion" in report
    assert "=> BroadcastHashJoin" in report
    assert "final plan:" in report


def test_explain_analyze_has_no_adaptive_section_when_disabled():
    session = make_session(False, **conversion_conf())
    register(session, fact_rows(), dim_rows(64))
    report = session.sql(CONVERSION_SQL).explain(analyze=True)
    assert "== Adaptive Execution ==" not in report


def test_reopt_events_land_in_the_trace():
    session = make_session(True, **conversion_conf())
    register(session, fact_rows(), dim_rows(64))
    trace = Span("query", "query")
    result = session.execute_plan(session.sql(CONVERSION_SQL).plan, trace=trace)
    events = trace.find_events("reopt")
    assert events and events[0]["rule"] == "broadcast-conversion"
    assert len(events) == len(result.reopt_events)


def test_join_stage_surfaces_row_counts():
    session = make_session(False, **skew_conf())
    register(session, fact_rows(n=60), dim_rows())
    __, result = run_rows(session, SKEW_SQL)
    join_stages = [s for s in result.stages
                   if s.metrics.get("engine.join.rows_out")]
    assert join_stages, "reduce stage of the shuffled join must report rows"
    for name in ("engine.join.rows_out", "engine.join.bytes_out"):
        assert sum(s.metrics.get(name) for s in join_stages) == \
            result.metrics.get(name)
    # and the stage is attributed (scope) to the join operator whose
    # scoped counter it carries
    for s in join_stages:
        assert s.scope is not None
        assert result.metrics.for_op(s.scope)["engine.join.rows_out"] == \
            s.metrics.get("engine.join.rows_out")


def test_adaptive_latency_improves_on_skew(small_skew):
    """End-to-end guard for the bench claim: splitting a hot partition
    shortens the simulated makespan materially (>=1.2x here; the committed
    benchmark pins >=1.5x on the full workload)."""
    fact = fact_rows(n=900, hot_fraction=0.85)
    baseline_session = make_session(False, **skew_conf())
    register(baseline_session, fact, dim_rows())
    __, base = run_rows(baseline_session, SKEW_SQL)

    aqe_session = make_session(True, **skew_conf())
    register(aqe_session, fact, dim_rows())
    __, res = run_rows(aqe_session, SKEW_SQL)
    assert base.seconds / res.seconds >= 1.2
