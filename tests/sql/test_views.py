"""Materialized views: statements, derivation, maintenance, rewriting.

Covers the full lifecycle from docs/views.md -- CREATE / REFRESH / DROP /
SHOW, CDC-driven incremental maintenance (delta, swap, recount, invalidation),
and the optimizer's freshness- and cost-gated automatic rewriting.
"""

import json

import pytest

from repro.common.errors import AnalysisError
from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase import ConnectionFactory, Delete, Scan
from repro.sql import logical as L
from repro.sql.parser import parse
from repro.sql.session import SparkSession
from repro.sql.types import (IntegerType, StringType, StructField, StructType,
                              type_from_name)
from repro.workloads import load_tpcds
from repro.workloads.tpcds_schema import TABLES, catalog_json

AGG_SQL = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
           "sum(inv_quantity_on_hand) AS on_hand, "
           "avg(inv_quantity_on_hand) AS avg_qty "
           "FROM inventory GROUP BY inv_date_sk")

JOIN_SQL = ("SELECT inv_quantity_on_hand AS qty "
            "FROM inventory JOIN item ON inv_item_sk = i_item_sk")

DIM_JOIN_SQL = ("SELECT inv_quantity_on_hand AS qty, d_year "
                "FROM inventory JOIN date_dim ON inv_date_sk = d_date_sk")


@pytest.fixture
def env():
    return load_tpcds(2, ["inventory", "item", "date_dim"])


@pytest.fixture
def vsession(env):
    return env.new_session()


def rows_of(result):
    return sorted(tuple(r.values) for r in result.rows)


def base_writer(env, table_name, options=None):
    """(table client, row codec) for direct base-table mutations."""
    catalog = HBaseTableCatalog.from_json(
        (options or env.reader_options(table_name))["catalog"])
    table = ConnectionFactory.create_connection(
        env.cluster.configuration()).get_table(catalog.qualified_name)
    return table, RowCodec(catalog)


def put_inventory(env, date_sk, item_sk, warehouse_sk, quantity, options=None):
    table, codec = base_writer(env, "inventory", options)
    put = codec.encode_row({
        "inv_date_sk": date_sk, "inv_item_sk": item_sk,
        "inv_warehouse_sk": warehouse_sk, "inv_quantity_on_hand": quantity,
    })
    table.put(put)
    return put.row


# -- parsing ---------------------------------------------------------------


def test_parse_create_materialized_view():
    plan = parse(f"CREATE MATERIALIZED VIEW mv AS {AGG_SQL}")
    assert isinstance(plan, L.CreateMaterializedView)
    assert plan.name == "mv"
    assert isinstance(plan.children[0], L.Aggregate)


def test_parse_other_view_statements():
    assert isinstance(parse("DROP MATERIALIZED VIEW mv"),
                      L.DropMaterializedView)
    assert isinstance(parse("REFRESH MATERIALIZED VIEW mv"),
                      L.RefreshMaterializedView)
    assert isinstance(parse("SHOW MATERIALIZED VIEWS"),
                      L.ShowMaterializedViews)


# -- gating ----------------------------------------------------------------


# -- aggregate views -------------------------------------------------------


def test_create_rewrite_and_byte_identical_answers(env, vsession):
    created = vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS "
                           f"{AGG_SQL}").run()
    [(name, table, written)] = [tuple(r.values) for r in created.rows]
    assert (name, table) == ("inv_by_date", "mv_inv_by_date")
    assert written > 0
    assert created.metrics.get("sql.view.created") == 1

    baseline = env.new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert answered.metrics.get("sql.view.rewrites") == 1
    assert rows_of(answered) == rows_of(baseline)


def test_rewrite_applies_under_group_column_filter(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    some_date = env.new_session().sql(AGG_SQL).run().rows[0].values[0]
    query = AGG_SQL.replace(
        "FROM inventory", f"FROM inventory WHERE inv_date_sk = {some_date}")
    baseline = env.new_session().sql(query).run()
    answered = vsession.sql(query).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(baseline)
    assert answered.rows  # the predicate actually selects something


def test_rewrite_skipped_for_non_matching_queries(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    other = vsession.sql(
        "SELECT inv_item_sk, count(inv_quantity_on_hand) AS c "
        "FROM inventory GROUP BY inv_item_sk").run()
    assert other.view_events == []
    assert not other.metrics.get("sql.view.rewrites")


def test_explain_reports_the_rewrite(vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    report = vsession.sql(AGG_SQL).explain()
    assert "== Materialized Views ==" in report
    assert "rewrote onto inv_by_date" in report


def test_show_and_drop(vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    shown = vsession.sql("SHOW MATERIALIZED VIEWS").run()
    [(name, base, table, invalidated, lag)] = \
        [tuple(r.values) for r in shown.rows]
    assert (name, base, table) == ("inv_by_date", "inventory", "mv_inv_by_date")
    assert invalidated is False and lag == 0.0

    dropped = vsession.sql("DROP MATERIALIZED VIEW inv_by_date").run()
    assert dropped.metrics.get("sql.view.dropped") == 1
    assert vsession.sql("SHOW MATERIALIZED VIEWS").run().rows == []
    after = vsession.sql(AGG_SQL).run()
    assert after.view_events == []


def test_stale_view_never_answers(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    put_inventory(env, 2456100, 1, 1, 40)   # unshipped WAL tail: stale

    stale = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in stale.view_events] == ["rejected_stale"]
    assert stale.view_events[0]["lag_s"] > 0.0
    assert stale.metrics.get("sql.view.rejected_stale") == 1
    assert not stale.metrics.get("sql.view.rewrites")
    # the query still ran -- from the base table, seeing the new row
    fresh = env.new_session().sql(AGG_SQL).run()
    assert rows_of(stale) == rows_of(fresh)


def test_staleness_budget_admits_a_lagging_view(env):
    session = env.new_session(conf={"sql.view.staleness": 1e9})
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    put_inventory(env, 2456100, 1, 1, 40)
    lagging = session.sql(AGG_SQL).run()
    assert [e["action"] for e in lagging.view_events] == ["rewrites"]
    assert lagging.view_events[0]["lag_s"] > 0.0


def test_insert_delta_maintenance_converges(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    for item_sk in range(1, 26):
        put_inventory(env, 2456100, item_sk, 1, 40)
    env.cluster.run_maintenance()

    fresh = env.new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)
    snapshot = env.cluster.metrics.snapshot()
    assert snapshot["sql.view.delta_rows"] == 25
    assert snapshot["sql.view.maintenance_batches"] >= 1
    assert snapshot["hbase.cdc.entries_shipped"] >= 1


def phoenix_inventory(env):
    """Reader options for a copy of ``inventory`` written under the Phoenix
    coder, while every other table stays PrimitiveType."""
    catalog = json.loads(catalog_json(TABLES["inventory"], table_coder="Phoenix"))
    catalog["table"]["name"] = "inv_phx"
    options = {HBaseTableCatalog.tableCatalog: json.dumps(catalog),
               "hbase.zookeeper.quorum": env.cluster.quorum}
    env.new_session().sql("SELECT * FROM inventory").write.format(DEFAULT_FORMAT) \
        .options({**options, HBaseTableCatalog.newTable: "2"}).save()
    return options


def coded_session(env, coder):
    """(inventory reader options, session factory) under one coder: the
    maintainer decodes base rows and encodes view rows with the base
    table's own coder."""
    options = env.reader_options("inventory") if coder == "PrimitiveType" \
        else phoenix_inventory(env)

    def new_session():
        session = env.new_session()
        session.read.format(DEFAULT_FORMAT).options(options).load() \
            .create_or_replace_temp_view("inventory")
        return session
    return options, new_session


@pytest.mark.parametrize("coder", ["PrimitiveType", "Phoenix"])
def test_overwrite_swaps_the_prior_version(env, coder):
    # a count/sum/avg view takes an overwrite as retract(prior) + add(new):
    # the multi-get already returned the prior version, nothing is rescanned
    options, new_session = coded_session(env, coder)
    vsession = new_session()
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    put_inventory(env, 2456100, 7, 1, 10, options)
    env.cluster.run_maintenance()            # fresh insert: additive delta
    put_inventory(env, 2456100, 7, 1, 99, options)  # second version of the row
    env.cluster.run_maintenance()            # overwrite: swap 10 for 99

    fresh = new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)
    assert (2456100, 1, 99, 99.0) in rows_of(answered)
    snapshot = env.cluster.metrics.snapshot()
    assert "sql.view.recounts" not in snapshot
    assert snapshot["sql.view.delta_rows"] == 2


@pytest.mark.parametrize("coder", ["PrimitiveType", "Phoenix"])
def test_overwrite_recounts_the_group(env, coder):
    # min and max cannot take a value back: an overwrite recounts the group
    minmax_sql = ("SELECT inv_date_sk, min(inv_quantity_on_hand) AS lo, "
                  "max(inv_quantity_on_hand) AS hi "
                  "FROM inventory GROUP BY inv_date_sk")
    options, new_session = coded_session(env, coder)
    vsession = new_session()
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_range AS {minmax_sql}").run()
    put_inventory(env, 2456100, 7, 1, 10, options)
    put_inventory(env, 2456100, 8, 1, 50, options)
    env.cluster.run_maintenance()            # fresh inserts: additive delta
    put_inventory(env, 2456100, 8, 1, 20, options)  # the max is overwritten
    env.cluster.run_maintenance()            # overwrite: recount the group

    fresh = new_session().sql(minmax_sql).run()
    answered = vsession.sql(minmax_sql).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)
    assert (2456100, 10, 20) in rows_of(answered)
    assert env.cluster.metrics.snapshot()["sql.view.recounts"] == 1


def test_overwrite_of_a_row_flushed_under_newer_files_swaps(env, vsession):
    """The maintainer's Get must still find a row's only prior version in
    an old store file when newer files, which its bloom skips, sit above:
    the swap retracts what it finds there."""
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    table, _ = base_writer(env, "inventory")
    row = put_inventory(env, 2456100, 7, 1, 10)
    env.cluster.run_maintenance()                     # fresh insert
    env.cluster.flush_table(table.name)
    for item_sk in (8, 9, 10):                        # newer files without it
        put_inventory(env, 2456100, item_sk, 1, 20)
        env.cluster.run_maintenance()
        env.cluster.flush_table(table.name)
    region = env.cluster.get_region(table.connection.locate(table.name, row).region_name)
    files = [f for store in region.stores.values() for f in store.files
             if f.first_row is not None and f.first_row <= row <= f.last_row]
    assert len(files) == 1
    assert sum(len(store.files) for store in region.stores.values()) >= 4

    delta_rows = env.cluster.metrics.snapshot()["sql.view.delta_rows"]
    put_inventory(env, 2456100, 7, 1, 99)             # second version of it
    env.cluster.run_maintenance()
    snapshot = env.cluster.metrics.snapshot()
    assert snapshot["sql.view.delta_rows"] == delta_rows + 1
    assert "sql.view.recounts" not in snapshot
    fresh = env.new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)
    assert (2456100, 4, 159, 39.75) in rows_of(answered)


def test_one_batch_reads_and_writes_the_view_once(env, vsession):
    """400 fresh rows on a new day and 20 overwrites on 20 loaded days:
    one base multi-get RPC per region server touched, one view multi-get,
    one view put, and no scan."""
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    table, codec = base_writer(env, "inventory")
    loaded = {}
    for result in table.scan(Scan()):
        values = codec.decode_row(result.row, result.cells)
        loaded.setdefault(values["inv_date_sk"], values)
    assert len(loaded) >= 20
    puts = [codec.encode_row({
        "inv_date_sk": 2456100, "inv_item_sk": 1 + i // 4,
        "inv_warehouse_sk": 1 + i % 4, "inv_quantity_on_hand": i,
    }) for i in range(400)]
    puts += [codec.encode_row({
        **loaded[day],
        "inv_quantity_on_hand": loaded[day]["inv_quantity_on_hand"] + 1,
    }) for day in sorted(loaded)[:20]]
    table.put(puts)
    servers = {table.connection.locate(table.name, put.row).server_id
               for put in puts}

    before = env.cluster.metrics.snapshot()
    env.cluster.run_maintenance()
    after = env.cluster.metrics.snapshot()

    def spent(name):
        return after.get(name, 0) - before.get(name, 0)
    assert spent("hbase.rpcs") == len(servers) + 2
    assert spent("hbase.rows_visited") == 0          # no scan
    assert spent("hbase.wal_syncs") == 1             # the one view put
    assert spent("sql.view.delta_rows") == 420
    assert spent("sql.view.recounts") == 0
    fresh = env.new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)


def test_delete_recounts_and_removes_emptied_group(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    row = put_inventory(env, 2456100, 7, 1, 10)
    env.cluster.run_maintenance()
    table, _ = base_writer(env, "inventory")
    table.delete(Delete(row))
    env.cluster.run_maintenance()

    fresh = env.new_session().sql(AGG_SQL).run()
    answered = vsession.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(fresh)
    assert all(r.values[0] != 2456100 for r in answered.rows)


def test_view_over_a_table_with_an_avro_column_is_maintained(linked):
    # the maintainer decodes base rows through per-field coders: a column
    # with its own Avro schema beside the aggregated one must not disturb it
    cluster, session = linked
    options = {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": "events"},
            "rowkey": "day:id",
            "columns": {
                "day": {"cf": "rowkey", "col": "day", "type": "int"},
                "id": {"cf": "rowkey", "col": "id", "type": "int"},
                "qty": {"cf": "f", "col": "qty", "type": "int"},
                "note": {"cf": "f", "col": "note",
                         "avro": '{"type": "string"}'},
            },
        }),
        HBaseTableCatalog.newTable: "2",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    schema = StructType([StructField("day", IntegerType),
                         StructField("id", IntegerType),
                         StructField("qty", IntegerType),
                         StructField("note", StringType)])

    def write(rows):
        session.create_dataframe(rows, schema).write \
            .format(DEFAULT_FORMAT).options(options).save()

    write([(day, i, i + 1, f"note-{day}-{i}")
           for day in (1, 2, 3) for i in range(10)])
    # a second session that never saw a view statement runs the base plan
    plain = SparkSession(session.cluster.hosts, clock=session.clock)
    for each in (session, plain):
        each.read.format(DEFAULT_FORMAT).options(options).load() \
            .create_or_replace_temp_view("events")
    by_day = ("SELECT day, count(qty) AS n, sum(qty) AS total "
              "FROM events GROUP BY day")
    session.sql(f"CREATE MATERIALIZED VIEW by_day AS {by_day}").run()

    def answer():
        answered = session.sql(by_day).run()
        assert [e["action"] for e in answered.view_events] == ["rewrites"]
        base = plain.sql(by_day).run()
        assert not base.view_events
        assert rows_of(answered) == rows_of(base)
        return rows_of(answered)

    assert answer() == [(1, 10, 55), (2, 10, 55), (3, 10, 55)]
    write([(2, 99, 7, "an insert")])         # additive delta
    write([(1, 0, 500, "an overwrite")])     # second version: swap 1 for 500
    write([(4, 0, 3, None)])                 # a new group, and no note cell
    assert answer() == [(1, 10, 554), (2, 11, 62), (3, 10, 55), (4, 1, 3)]
    snapshot = cluster.metrics.snapshot()
    assert snapshot["sql.view.delta_rows"] == 3
    assert "sql.view.recounts" not in snapshot
    assert not snapshot.get("sql.view.invalidations")


def small_table(linked, name, rowkey, columns, rows):
    """A fresh table ``name`` with ``columns`` (``(name, type)`` pairs, the
    ``rowkey`` ones leading), loaded with ``rows``.  Returns ``(write,
    session, plain)``: ``plain`` never ran a view statement, so it answers
    from the base table."""
    cluster, session = linked
    keys = rowkey.split(":")
    options = {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": name},
            "rowkey": rowkey,
            "columns": {c: {"cf": "rowkey" if c in keys else "f", "col": c,
                            "type": t} for c, t in columns},
        }),
        HBaseTableCatalog.newTable: "2",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    schema = StructType([StructField(c, type_from_name(t)) for c, t in columns])

    def write(new_rows):
        session.create_dataframe(new_rows, schema).write \
            .format(DEFAULT_FORMAT).options(options).save()

    write(rows)
    plain = SparkSession(session.cluster.hosts, clock=session.clock)
    for each in (session, plain):
        each.read.format(DEFAULT_FORMAT).options(options).load() \
            .create_or_replace_temp_view(name)
    return write, session, plain


def test_exact_overwrite_moves_a_row_between_groups(linked):
    # GROUP BY a data column: an overwrite may move its row to another
    # group.  The swap takes it out of the old group and into the new one,
    # and the group it empties is deleted -- on a view whose group does
    # not lead the row key, with no recount and no invalidation
    cluster, __ = linked
    # enough rows that the three-group view is cheaper than the base scan
    rows = {i: (i % 3, i) for i in range(60)}
    rows.update({60: (7, 5), 61: (1, None)})
    write, session, plain = small_table(
        linked, "moves", "id", [("id", "int"), ("grp", "int"), ("qty", "int")],
        [(i, grp, qty) for i, (grp, qty) in rows.items()])
    by_grp = ("SELECT grp, count(*) AS n, count(qty) AS c, sum(qty) AS s, "
              "avg(qty) AS a FROM moves GROUP BY grp")
    session.sql(f"CREATE MATERIALIZED VIEW by_grp AS {by_grp}").run()

    for i, grp, qty in ((60, 1, 6),          # leaves group 7, empty now
                        (1, 2, 11)):         # leaves group 1 for group 2
        write([(i, grp, qty)])
        rows[i] = (grp, qty)
    expected = []
    for grp in sorted({g for g, __ in rows.values()}):
        values = [q for g, q in rows.values() if g == grp and q is not None]
        expected.append((grp, sum(1 for g, __ in rows.values() if g == grp),
                         len(values), sum(values), sum(values) / len(values)))
    answered = session.sql(by_grp).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(plain.sql(by_grp).run()) == expected
    assert [g for g, *__ in expected] == [0, 1, 2]
    snapshot = cluster.metrics.snapshot()
    assert snapshot["sql.view.delta_rows"] == 2
    assert "sql.view.recounts" not in snapshot
    assert not snapshot.get("sql.view.invalidations")


def test_maintenance_sees_rows_as_the_definition_scan_does(linked):
    # the definition's scan reads only the columns the view names: a row
    # with no cell in any of them is in no group, and a recount that leaves
    # a group without a non-NULL argument clears the stored sum
    write, session, plain = small_table(
        linked, "notes", "day:id",
        [("day", "int"), ("id", "int"), ("qty", "int"), ("note", "string"),
         ("tag", "string")],
        [(i % 4, i, i, None, None) for i in range(40)]
        + [(9, 0, 5, "x", None), (9, 1, None, "y", None)])
    by_day = ("SELECT day, count(note) AS notes, sum(qty) AS total "
              "FROM notes GROUP BY day")
    session.sql(f"CREATE MATERIALIZED VIEW by_day AS {by_day}").run()

    def answer():
        answered = session.sql(by_day).run()
        assert [e["action"] for e in answered.view_events] == ["rewrites"]
        assert rows_of(answered) == rows_of(plain.sql(by_day).run())
        return rows_of(answered)

    write([(5, 0, None, None, "only a tag")])   # not in the definition's scan
    assert [r for r in answer() if r[0] >= 5] == [(9, 2, 5)]
    table = ConnectionFactory.create_connection(
        linked[0].configuration()).get_table("notes")
    table.delete(Delete(RowCodec(HBaseTableCatalog.from_json(
        session.views.maintainer("by_day").vdef.base_catalog)).encode_key(
            {"day": 9, "id": 0})))
    linked[0].run_maintenance()                 # recount: day 9 has no qty
    assert [r for r in answer() if r[0] >= 5] == [(9, 1, None)]


def test_non_prefix_group_invalidates_then_refresh_recovers(env, vsession):
    # inv_item_sk is not a prefix of inventory's row key, so a tombstone
    # cannot be repaired with a prefix recount: the view must invalidate
    item_sql = ("SELECT inv_item_sk, sum(inv_quantity_on_hand) AS on_hand "
                "FROM inventory GROUP BY inv_item_sk")
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_item AS {item_sql}").run()
    row = put_inventory(env, 2456100, 7, 1, 10)
    table, _ = base_writer(env, "inventory")
    table.delete(Delete(row))
    env.cluster.run_maintenance()
    assert env.cluster.metrics.snapshot()["sql.view.invalidations"] == 1

    rejected = vsession.sql(item_sql).run()
    assert [e["action"] for e in rejected.view_events] == ["rejected_stale"]
    assert rows_of(rejected) == rows_of(env.new_session().sql(item_sql).run())

    refreshed = vsession.sql("REFRESH MATERIALIZED VIEW inv_by_item").run()
    assert refreshed.metrics.get("sql.view.refreshed") == 1
    recovered = vsession.sql(item_sql).run()
    assert [e["action"] for e in recovered.view_events] == ["rewrites"]
    assert rows_of(recovered) == rows_of(env.new_session().sql(item_sql).run())


@pytest.mark.parametrize("change", ["delete", "overwrite"])
def test_batch_that_invalidates_writes_no_view_row(env, vsession, change):
    # one batch holds a fresh insert and a delete or an overwrite that
    # gives a NULL argument a value; neither can be repaired exactly for a
    # group that does not lead the row key, so the view invalidates --
    # before the insert is folded into its group
    brand_sql = ("SELECT i_brand, count(i_category) AS n "
                 "FROM item GROUP BY i_brand")
    vsession.sql(f"CREATE MATERIALIZED VIEW by_brand AS {brand_sql}").run()
    table, codec = base_writer(env, "item")
    row = codec.encode_row({"i_item_sk": 90001, "i_brand": "b1"})
    table.put(row)                           # i_category is NULL
    env.cluster.run_maintenance()
    view = ConnectionFactory.create_connection(
        env.cluster.configuration()).get_table("mv_by_brand")

    def view_cells():
        return [(r.row, [(c.qualifier, c.value) for c in r.cells])
                for r in view.scan(Scan())]

    before = view_cells()
    delta_rows = env.cluster.metrics.snapshot()["sql.view.delta_rows"]
    table.put(codec.encode_row({"i_item_sk": 90002, "i_brand": "b1",
                                "i_category": "c"}))
    if change == "delete":
        table.delete(Delete(row.row))
    else:
        table.put(codec.encode_row({"i_item_sk": 90001, "i_category": "c"}))
    env.cluster.run_maintenance()

    snapshot = env.cluster.metrics.snapshot()
    assert snapshot["sql.view.invalidations"] == 1
    assert snapshot["sql.view.delta_rows"] == delta_rows
    assert view_cells() == before


def test_refresh_recomputes_from_base_not_from_the_view_itself(env, vsession):
    # with count(*) the storage query (which always carries a count(*)
    # helper) is one the view itself could answer, and REFRESH re-bases the
    # feed first, so the view looks fresh: rewritten onto itself it would
    # read the table it is overwriting and come back empty
    star_sql = ("SELECT inv_date_sk, count(*) AS n, "
                "sum(inv_quantity_on_hand) AS on_hand "
                "FROM inventory GROUP BY inv_date_sk")
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_star AS {star_sql}").run()
    put_inventory(env, 2456100, 1, 1, 40)    # unshipped: only base has it

    refreshed = vsession.sql("REFRESH MATERIALIZED VIEW inv_star").run()
    assert not refreshed.metrics.get("sql.view.rewrites")
    baseline = env.new_session().sql(star_sql).run()
    assert refreshed.rows[0].values == ("inv_star", len(baseline.rows))
    answered = vsession.sql(star_sql).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(baseline)
    assert any(r.values[0] == 2456100 for r in answered.rows)


def test_view_not_smaller_than_base_is_rejected_on_cost(env, vsession):
    # grouping by the whole base row key keeps one view row per base row,
    # and the avg helpers make the view *wider* than the base table
    wide_sql = ("SELECT inv_date_sk, inv_item_sk, inv_warehouse_sk, "
                "count(inv_quantity_on_hand) AS c, "
                "sum(inv_quantity_on_hand) AS s, "
                "avg(inv_quantity_on_hand) AS a "
                "FROM inventory "
                "GROUP BY inv_date_sk, inv_item_sk, inv_warehouse_sk")
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_wide AS {wide_sql}").run()
    result = vsession.sql(wide_sql).run()
    assert [e["action"] for e in result.view_events] == ["rejected_cost"]
    assert result.metrics.get("sql.view.rejected_cost") == 1
    assert rows_of(result) == rows_of(env.new_session().sql(wide_sql).run())


def test_duplicate_view_name_rejected(vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    with pytest.raises(AnalysisError, match="already exists"):
        vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}")


@pytest.mark.parametrize("bad_sql", [
    # no GROUP BY at all
    "SELECT count(inv_quantity_on_hand) AS c FROM inventory",
    # no aggregate
    "SELECT inv_date_sk FROM inventory GROUP BY inv_date_sk",
    # filters in the definition cannot be maintained
    "SELECT inv_date_sk, count(inv_quantity_on_hand) AS c FROM inventory "
    "WHERE inv_date_sk > 0 GROUP BY inv_date_sk",
    # DISTINCT aggregates are not incrementally maintainable
    "SELECT inv_date_sk, count(DISTINCT inv_item_sk) AS c FROM inventory "
    "GROUP BY inv_date_sk",
    # output name collides with a grouping column
    "SELECT inv_date_sk, count(inv_item_sk) AS inv_date_sk FROM inventory "
    "GROUP BY inv_date_sk",
    # a join is not a GROUP BY aggregate, whatever its keys or type
    "SELECT inv_item_sk, i_category FROM inventory "
    "LEFT JOIN item ON inv_item_sk = i_item_sk",
    "SELECT inv_date_sk, d_year FROM inventory "
    "JOIN date_dim ON inv_date_sk = d_year",
    JOIN_SQL,
    DIM_JOIN_SQL,
])
def test_unsupported_definitions_raise(vsession, bad_sql):
    with pytest.raises(AnalysisError):
        vsession.sql(f"CREATE MATERIALIZED VIEW bad AS {bad_sql}")


# -- cross-session adoption ------------------------------------------------


def test_hydrate_adopts_views_from_an_earlier_session(env, vsession):
    vsession.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {AGG_SQL}").run()
    vsession.shutdown()

    later = env.new_session()
    assert later.views.hydrate(env.cluster) == ["inv_by_date"]
    answered = later.sql(AGG_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows_of(answered) == rows_of(env.new_session().sql(AGG_SQL).run())
