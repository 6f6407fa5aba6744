"""ANALYZE is the opt-in: without statistics the cost-based optimizer is absent.

The CBO hooks three layers: the optimizer (join reordering), the planner
(semi-join reduction, broadcast decisions from estimated sizes) and the
physical layer (SemiJoinReducedJoinExec, ``cbo_rows`` stamping).  The
load-bearing guarantee is that every hook is dormant until ``ANALYZE TABLE``
has run on a table the query reads: no ``sql.cbo.*`` counter may appear in an
un-ANALYZEd query's ledger, which is then the syntactic planner's.  Runs
after ANALYZE check answers are unchanged, full-stack through the HBase
substrate.
"""

import pytest

from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")
JOIN_QUERY = (
    "SELECT i.i_category, sum(ss.ss_quantity) AS q "
    "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
    "GROUP BY i.i_category"
)


def run_fresh(query, conf, analyze=()):
    env = load_tpcds(2, ["store_sales", "item"])
    session = env.new_session(conf=conf)
    for table in analyze:
        session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    result = session.sql(query).run()
    session.shutdown()
    return result


@pytest.mark.parametrize("query", [SCAN_QUERY, JOIN_QUERY], ids=["scan", "join"])
def test_unanalyzed_ledger_carries_no_cbo_key(query):
    result = run_fresh(query, None)
    for key in result.metrics.snapshot():
        assert not key.startswith("sql.cbo."), key


def test_cbo_on_preserves_answers_full_stack():
    baseline = run_fresh(JOIN_QUERY, None)
    cbo = run_fresh(JOIN_QUERY, {
        # force the shuffled plan so semi-join reduction has work to do
        "sql.autoBroadcastJoinThreshold": 1,
    }, analyze=["store_sales", "item"])
    assert sorted(tuple(r.values) for r in cbo.rows) == \
        sorted(tuple(r.values) for r in baseline.rows)
    assert cbo.metrics.get("sql.cbo.estimates") >= 1.0


def test_analyze_persists_stats_across_sessions():
    env = load_tpcds(2, ["store_sales", "item"])
    first = env.new_session()
    row = first.sql("ANALYZE TABLE item COMPUTE STATISTICS").collect()[0]
    assert row.persisted is True
    first.shutdown()
    # a brand-new session over the same cluster hydrates from the master's
    # table attribute and estimates confidently without a fresh ANALYZE
    second = env.new_session()
    result = second.sql(JOIN_QUERY).run()
    assert result.metrics.get("sql.cbo.estimates") >= 1.0
    assert result.metrics.get("sql.cbo.stats_stale") == 0.0
    second.shutdown()
