"""View invariance: a session without views costs nothing, byte for byte.

The view machinery hooks four layers: the session (statement dispatch and
the per-query rewrite context), the optimizer (``rewrite_with_views``),
EXPLAIN (the "Materialized Views" section) and the HBase substrate (the
CDC stream pumped from ``run_maintenance``).  ``CREATE MATERIALIZED VIEW``
is the only opt-in, so the guarantee pinned here is that every hook is
dormant until a view is actually created: a session that never ran a view
statement and one whose view manager exists but holds no view must produce
byte-identical cost ledgers -- every metric, every simulated second -- and
no ``sql.view.*`` or ``hbase.cdc.*`` counter may ever leak into them.
Stale views must never answer a query.
"""

from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.hbase import ConnectionFactory
from repro.workloads import load_tpcds

AGG_QUERY = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
             "sum(inv_quantity_on_hand) AS on_hand "
             "FROM inventory GROUP BY inv_date_sk")


def run_fresh(query, before=None):
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    if before is not None:
        session.sql(before).run()
    result = session.sql(query).run()
    session.shutdown()
    return result


def assert_ledgers_identical(a, b):
    assert [tuple(r.values) for r in a.rows] == [tuple(r.values) for r in b.rows]
    assert a.seconds == b.seconds
    assert dict(a.metrics.snapshot()) == dict(b.metrics.snapshot())


def assert_no_view_counters(result):
    for key in result.metrics.snapshot():
        assert not key.startswith("sql.view."), key
        assert not key.startswith("hbase.cdc."), key


def test_view_manager_but_unused_is_byte_identical_to_untouched():
    untouched = run_fresh(AGG_QUERY)
    # SHOW instantiates the session's view manager; no view exists
    unused = run_fresh(AGG_QUERY, before="SHOW MATERIALIZED VIEWS")
    assert_ledgers_identical(untouched, unused)
    assert_no_view_counters(unused)
    assert untouched.view_events == unused.view_events == []


def test_cluster_ledger_has_no_view_counters_without_views():
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    session.sql("SHOW MATERIALIZED VIEWS").run()
    session.sql(AGG_QUERY).run()
    session.shutdown()
    for key in env.cluster.metrics.snapshot():
        assert not key.startswith("sql.view."), key
        assert not key.startswith("hbase.cdc."), key
    assert env.cluster.cdc is None


def test_stale_view_never_answers_and_base_result_is_exact():
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_QUERY}").run()

    catalog = HBaseTableCatalog.from_json(
        env.reader_options("inventory")["catalog"])
    table = ConnectionFactory.create_connection(
        env.cluster.configuration()).get_table(catalog.qualified_name)
    table.put(RowCodec(catalog).encode_row({
        "inv_date_sk": 2456100, "inv_item_sk": 1, "inv_warehouse_sk": 1,
        "inv_quantity_on_hand": 40}))

    stale = session.sql(AGG_QUERY).run()
    assert [e["action"] for e in stale.view_events] == ["rejected_stale"]
    assert not stale.metrics.get("sql.view.rewrites")
    # answered from the base table: the unshipped row is visible
    fresh = env.new_session().sql(AGG_QUERY).run()
    assert sorted(tuple(r.values) for r in stale.rows) \
        == sorted(tuple(r.values) for r in fresh.rows)
    session.shutdown()
