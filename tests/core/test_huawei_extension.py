"""The Huawei-style coprocessor connector (section III.C's comparison point)."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.metrics import CostLedger
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.core.ranges import ScanRange
from repro.extensions import HUAWEI_FORMAT
from repro.extensions.huawei import aggregation_endpoint
from repro.hbase import ConnectionFactory, Put, Scan
from repro.sql.sources import lookup_provider
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType
from tests.differential.strategies import CODERS, hbase_table

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "metrics", "tableCoder": "Phoenix"},
    "rowkey": "k",
    "columns": {
        "k": {"cf": "rowkey", "col": "k", "type": "int"},
        "grp": {"cf": "cf1", "col": "grp", "type": "string"},
        "v": {"cf": "cf2", "col": "v", "type": "double"},
    },
})
SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("grp", StringType),
    StructField("v", DoubleType),
])
ROWS = [(i, "g%d" % (i % 3), float(i % 17)) for i in range(120)]


@pytest.fixture
def loaded(linked):
    cluster, session = linked
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe(ROWS, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    return cluster, session, options


def views(session, options):
    for fmt, name in ((DEFAULT_FORMAT, "shc_t"), (HUAWEI_FORMAT, "hw_t")):
        session.read.format(fmt).options(options).load() \
            .create_or_replace_temp_view(name)


AGG_QUERIES = [
    "select grp, count(*), sum(v), min(v), max(v), avg(v) from {t} group by grp",
    "select grp, stddev(v) from {t} where k > 20 group by grp",
    "select count(*) from {t}",
    "select grp, avg(v) from {t} where k between 10 and 90 and v > 2 group by grp",
    "select grp, sum(v) / count(*) from {t} group by grp",
]


@pytest.mark.parametrize("template", AGG_QUERIES)
def test_coprocessor_aggregation_matches_shc(loaded, template):
    cluster, session, options = loaded
    views(session, options)
    shc = session.sql(template.format(t="shc_t")).collect()
    huawei = session.sql(template.format(t="hw_t")).collect()
    shc_rows = sorted(map(tuple, shc))
    hw_rows = sorted(map(tuple, huawei))
    assert len(shc_rows) == len(hw_rows)
    for a, b in zip(shc_rows, hw_rows):
        for va, vb in zip(a, b):
            if isinstance(va, float):
                assert va == pytest.approx(vb, rel=1e-9)
            else:
                assert va == vb


def test_coprocessor_plan_is_used(loaded):
    cluster, session, options = loaded
    views(session, options)
    plan = session.sql("select grp, count(*) from hw_t group by grp").explain()
    assert "CoprocessorAggregate" in plan


def test_no_scan_bytes_cross_to_engine(loaded):
    cluster, session, options = loaded
    views(session, options)
    run = session.sql("select grp, avg(v) from hw_t group by grp").run()
    assert run.metrics.get("hbase.coprocessor_calls") > 0
    assert run.metrics.get("hbase.bytes_returned") == 0
    assert run.metrics.get("hbase.server_side_decodes") > 0


def test_server_side_decodes_are_the_kept_rows_cells(linked):
    """The endpoint decodes only the rows its pushed filter kept: one cell
    per key dimension per kept row, plus each kept row's non-NULL data
    cells (a NULL is no cell, and costs nothing)."""
    cluster, session = linked
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    rows = [(k, grp, None if k % 4 == 0 else v) for k, grp, v in ROWS]
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    views(session, options)
    sql = "select grp, sum(k), count(v) from hw_t where grp = 'g1' group by grp"
    assert "CoprocessorAggregate" in session.sql(sql).explain()
    run = session.sql(sql).run()
    kept = [row for row in rows if row[1] == "g1"]
    key_dimensions = 1
    data_cells = sum(value is not None for row in kept for value in row[1:])
    # the filter ran in the region servers, on every row
    assert run.metrics.get("hbase.filter_evals") == len(rows)
    assert run.metrics.get("hbase.server_side_decodes") \
        == key_dimensions * len(kept) + data_cells == 40 + 40 + 30
    assert sorted(map(tuple, run.rows)) == [
        ("g1", sum(k for k, __, __ in kept), 30)]
    # ... and the operator books what it pushed and read, as a scan does
    assert run.metrics.get("shc.filters_pushed") == 1
    assert run.metrics.get("shc.filters_residual") == 0
    assert run.metrics.get("shc.regions_scanned") == 3
    (facts,) = [f for f in run.operator_stats.values() if "relation" in f]
    assert (facts["relation"], facts["regions_total"]) == ("metrics", 3)


def test_coprocessor_faster_on_wide_aggregation(loaded):
    cluster, session, options = loaded
    views(session, options)
    sql = "select grp, avg(v), stddev(v) from {t} group by grp"
    shc = session.sql(sql.format(t="shc_t")).run()
    huawei = session.sql(sql.format(t="hw_t")).run()
    assert huawei.seconds < shc.seconds


def test_unsupported_shapes_fall_back(loaded):
    """Distinct aggregates and expression groupings use the normal path."""
    cluster, session, options = loaded
    views(session, options)
    for sql in (
        "select grp, count(distinct k) from hw_t group by grp",
        "select k % 2, count(*) from hw_t group by k % 2",
        "select grp, sum(v + 1) from hw_t group by grp",
    ):
        plan = session.sql(sql).explain()
        assert "CoprocessorAggregate" not in plan
        # and the answers still match SHC
        shc_sql = sql.replace("hw_t", "shc_t")
        assert sorted(map(tuple, session.sql(sql).collect())) == \
            sorted(map(tuple, session.sql(shc_sql).collect()))


def test_join_queries_fall_back(loaded):
    cluster, session, options = loaded
    views(session, options)
    sql = """
        select a.grp, count(*) from hw_t a join hw_t b on a.k = b.k
        group by a.grp
    """
    plan = session.sql(sql).explain()
    assert "CoprocessorAggregate" not in plan


def test_pruning_applies_to_coprocessor_scans(loaded):
    cluster, session, options = loaded
    views(session, options)
    narrow = session.sql(
        "select count(*) from hw_t where k between 100 and 110").run()
    full = session.sql("select count(*) from hw_t").run()
    assert narrow.metrics.get("hbase.bytes_scanned") < \
        full.metrics.get("hbase.bytes_scanned")
    assert narrow.rows[0][0] == 11


def test_global_aggregate_over_empty_selection(loaded):
    cluster, session, options = loaded
    views(session, options)
    rows = session.sql("select count(*) from hw_t where k > 99999").collect()
    assert [tuple(r) for r in rows] == [(0,)]


#: a NULL among a leading-key IN list's values: the ranges cannot hold it,
#: so the scan reads every row and the engine must keep the predicate
IN_NULL_QUERIES = [
    "select count(*) from {t} where k in (1, null)",
    "select count(*) from {t} where k in (null)",
    "select count(*) from {t} where k in (1, null) and v > 2",
    "select grp, count(*), sum(v) from {t} where k in (1, null) group by grp",
]
IN_NULL_SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("n", IntegerType),
    StructField("grp", StringType),
    StructField("v", IntegerType),
])


@pytest.mark.parametrize("template", IN_NULL_QUERIES)
@pytest.mark.parametrize("key", [("k",), ("k", "n")], ids=["key", "composite_key"])
@pytest.mark.parametrize("coder", CODERS)
def test_in_list_with_a_null_answers_as_the_reference(linked, coder, key, template):
    """SHC, the coprocessor path and a scan without pruning all answer as
    the engine does over local rows."""
    cluster, session = linked
    rows = [(i // len(key), i % 2, "g%d" % (i % 3), i) for i in range(20)]
    options = hbase_table(session, cluster, "in_null", IN_NULL_SCHEMA, rows, key,
                          coder, regions=3)
    sides = {"shc_t": (DEFAULT_FORMAT, {}), "hw_t": (HUAWEI_FORMAT, {}),
             "unpruned_t": (DEFAULT_FORMAT, {HBaseSparkConf.PRUNING: "false"})}
    for name, (fmt, extra) in sides.items():
        session.read.format(fmt).options({**options, **extra}).load() \
            .create_or_replace_temp_view(name)
    session.create_dataframe(rows, IN_NULL_SCHEMA).create_or_replace_temp_view("ref_t")
    assert "CoprocessorAggregate" in session.sql(template.format(t="hw_t")).explain()
    want = sorted(map(tuple, session.sql(template.format(t="ref_t")).collect()))
    for name in sides:
        got = sorted(map(tuple, session.sql(template.format(t=name)).collect()))
        assert got == want, name


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_range_bytes_are_the_bytes_a_scan_reads(loaded, data):
    """The one range-bytes walk, seen by both its callers: what
    ``_range_bytes`` balances replica pieces by and what the coprocessor
    bills equal ``hbase.bytes_scanned`` of the region server's scan of the
    same range and columns (no block cache, every file local) -- on regions
    holding store files and memstore cells in both families, for drawn
    ranges, an empty clamp among them.  Reads change no state, so every
    example may share the fixture."""
    cluster, session, options = loaded
    relation = lookup_provider(HUAWEI_FORMAT).create_relation(options, session)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("metrics")
    if not any(len(s.memstore) for loc in cluster.region_locations("metrics")
               for s in cluster.get_region(loc.region_name).stores.values()):
        # every seventh row rewritten as it reads: memstore cells in cf1
        # and cf2 over rows the store files hold too
        for result in table.scan(Scan())[::7]:
            put = Put(result.row)
            for cell in result.cells:
                put.add_column(cell.family, cell.qualifier, cell.value)
            table.put(put)
    locations = cluster.region_locations("metrics")
    location = data.draw(st.sampled_from(locations))
    region = cluster.get_region(location.region_name)
    server = cluster.region_servers[location.server_id]
    assert server.block_cache is None
    keys = sorted({row for s in region.stores.values() for f in s.files
                   for row in f.row_keys})
    bounds = [b"", b"\xff" * 5] + keys + [loc.start_row for loc in locations]
    start = data.draw(st.sampled_from(bounds))
    stop = data.draw(st.sampled_from([None] + bounds))
    scan_range = ScanRange(start, stop)
    input_columns = data.draw(st.sampled_from([["grp"], ["v"], ["grp", "v"]]))
    columns = {(relation.catalog.column(c).family, relation.catalog.column(c).qualifier)
               for c in input_columns}

    def scanned(**kwargs) -> int:
        ledger = CostLedger()
        server.scan(location.region_name, start, stop, ledger=ledger, **kwargs)
        return ledger.metrics.get("hbase.bytes_scanned")

    assert relation._range_bytes(location, scan_range) == scanned()
    ledger = CostLedger()
    aggregation_endpoint(region, {
        "relation": relation, "scan_range": scan_range, "hbase_filter": None,
        "residual": None, "group_columns": [], "aggregates": [],
        "arguments": [], "input_columns": input_columns,
        "filter_columns": set(),
    }, server.cost, ledger)
    assert ledger.metrics.get("hbase.bytes_scanned") == scanned(columns=columns)
