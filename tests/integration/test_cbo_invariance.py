"""ANALYZE is the opt-in: without statistics the cost-based optimizer is absent.

The CBO hooks three layers: the optimizer (join reordering), the planner
(broadcast decisions from estimated sizes, the runtime key filter) and the
physical layer (``push_keys``, ``cbo_rows`` stamping).  The
load-bearing guarantee is that every hook is dormant until ``ANALYZE TABLE``
has run on a table the query reads: no ``sql.cbo.*`` counter may appear in an
un-ANALYZEd query's ledger, which is then the syntactic planner's.  Runs
after ANALYZE check answers are unchanged, full-stack through the HBase
substrate.
"""

import pytest

from repro.common.errors import AnalysisError
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.session import SparkSession
from repro.sql.stats import STATS_ATTRIBUTE
from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")
JOIN_QUERY = (
    "SELECT i.i_category, sum(ss.ss_quantity) AS q "
    "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
    "GROUP BY i.i_category"
)
#: the join over a selective slice of the dimension
SELECTIVE_JOIN_QUERY = JOIN_QUERY.replace(
    "GROUP BY", "WHERE i.i_item_sk < 3 GROUP BY")


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
    baseline = run_fresh(SELECTIVE_JOIN_QUERY, None)
    cbo = run_fresh(SELECTIVE_JOIN_QUERY, {
        # force the shuffled plan, whose keys then go to the fact scan
        "sql.autoBroadcastJoinThreshold": 1,
    }, analyze=["store_sales", "item"])
    assert sorted(tuple(r.values) for r in cbo.rows) == \
        sorted(tuple(r.values) for r in baseline.rows)
    assert cbo.metrics.get("sql.cbo.estimates") >= 1.0
    assert cbo.metrics.get("sql.cbo.runtime_keys.pushed") == 2.0


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


def test_analyze_of_a_view_over_a_query_is_refused_and_touches_no_table():
    # it used to run the view's query and persist *its* statistics onto every
    # base table underneath: ``item`` (6 rows) then claimed 4 rows, durably
    env = load_tpcds(2, ["store_sales", "item"])
    session = env.new_session()
    row = session.sql("ANALYZE TABLE item COMPUTE STATISTICS").collect()[0]
    persisted = env.cluster.get_table_attribute("item", STATS_ATTRIBUTE)
    keys = session.stats.keys()
    session.sql("SELECT * FROM item WHERE i_item_sk < 5") \
        .create_or_replace_temp_view("few")
    session.sql(JOIN_QUERY).create_or_replace_temp_view("joined")
    for view, tables in (("few", "item"), ("joined", "item, store_sales")):
        with pytest.raises(AnalysisError, match=f"instead: {tables}$"):
            session.sql(f"ANALYZE TABLE {view} COMPUTE STATISTICS")
    assert env.cluster.get_table_attribute("item", STATS_ATTRIBUTE) == persisted
    assert env.cluster.get_table_attribute(
        "store_sales", STATS_ATTRIBUTE) is None
    assert session.stats.keys() == keys
    # a view that *is* the table still analyzes the table
    session.sql("SELECT * FROM item").create_or_replace_temp_view("all_items")
    again = session.sql("ANALYZE TABLE all_items COMPUTE STATISTICS").collect()[0]
    assert (again.row_count, again.persisted) == (row.row_count, True)
    assert session.stats.keys() == keys
    # the refusal names each table once, by its own name rather than the alias
    with pytest.raises(AnalysisError, match="instead: item, store_sales$"):
        session.sql("ANALYZE TABLE joined COMPUTE STATISTICS")
    # and a base relation the session has no name for by where it lives
    bare = SparkSession(env.hosts, clock=env.cluster.clock)
    bare.read.format(DEFAULT_FORMAT).options(env.reader_options("item")).load() \
        .filter("i_item_sk < 5").create_or_replace_temp_view("few")
    with pytest.raises(AnalysisError, match=(
            r"instead: item \(register it as a temp view first\)$")):
        bare.sql("ANALYZE TABLE few COMPUTE STATISTICS")
    session.shutdown()
