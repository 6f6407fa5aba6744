"""End-to-end relation tests: correctness of pushdown/pruning vs ground truth."""

import json

import pytest

from repro.baselines import BASELINE_FORMAT
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "events", "tableCoder": "PrimitiveType"},
    "rowkey": "ts:uid",
    "columns": {
        "ts": {"cf": "rowkey", "col": "ts", "type": "int"},
        "uid": {"cf": "rowkey", "col": "uid", "type": "int"},
        "page": {"cf": "cf1", "col": "page", "type": "string"},
        "stay": {"cf": "cf2", "col": "stay", "type": "double"},
    },
})

SCHEMA = StructType([
    StructField("ts", IntegerType),
    StructField("uid", IntegerType),
    StructField("page", StringType),
    StructField("stay", DoubleType),
])

ROWS = [
    (ts, uid, "page%d" % (ts % 7), float(ts * uid) / 10 - 5)
    for ts in range(-20, 60)
    for uid in (1, 2)
]

PREDICATES = [
    "ts = 10",
    "ts > 40",
    "ts >= -10 and ts < 5",
    "ts between 10 and 20 and stay > 0",
    "uid = 2",
    "page = 'page3'",
    "page = 'page3' or ts < -15",
    "stay > -1.0 and stay < 3.0",
    "ts in (1, 5, 40)",
    "ts not in (1, 5)",
    "page like 'page%'",
    "page is not null",
    "ts % 2 = 0",
    "ts + uid > 55",
]


@pytest.fixture
def loaded(linked):
    cluster, session = linked
    df = session.create_dataframe(ROWS, SCHEMA)
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    df.write.format(DEFAULT_FORMAT).options(options).save()
    return cluster, session, options


def read_df(session, options, fmt=DEFAULT_FORMAT, extra=None):
    merged = dict(options)
    if extra:
        merged.update(extra)
    return session.read.format(fmt).options(merged).load()


@pytest.mark.parametrize("predicate", PREDICATES)
def test_shc_matches_baseline_for_predicate(loaded, predicate):
    """Cross-validation: pushdown + pruning never change query answers."""
    cluster, session, options = loaded
    shc = read_df(session, options).filter(predicate).collect()
    baseline = read_df(session, options, BASELINE_FORMAT).filter(predicate).collect()
    assert sorted(map(tuple, shc)) == sorted(map(tuple, baseline))
    expected = _reference(predicate)
    assert sorted(map(tuple, shc)) == expected


def _reference(predicate):
    from repro.sql.parser import parse_expression
    from repro.sql import expressions as E
    from repro.sql.columnar import compile_row

    expr = parse_expression(predicate)
    attrs = [E.Attribute(f.name, f.dtype) for f in SCHEMA]
    mapping = {a.name: a for a in attrs}

    def resolve(node):
        if isinstance(node, E.UnresolvedAttribute):
            return mapping[node.name]
        return None

    keep = compile_row(E.bind_expression(expr.transform(resolve), attrs))
    return sorted(r for r in ROWS if keep(r) is True)


def test_pruning_reduces_rows_visited(loaded):
    cluster, session, options = loaded
    narrow = read_df(session, options).filter("ts = 30").run()
    full = read_df(session, options).run()
    assert narrow.metrics.get("hbase.rows_visited") < \
        full.metrics.get("hbase.rows_visited")


def test_pruning_disabled_visits_everything(loaded):
    cluster, session, options = loaded
    toggled = read_df(session, options,
                      extra={HBaseSparkConf.PRUNING: "false"})
    on = read_df(session, options).filter("ts = 30").run()
    off = toggled.filter("ts = 30").run()
    assert sorted(map(tuple, on.rows)) == sorted(map(tuple, off.rows))
    assert off.metrics.get("hbase.rows_visited") > on.metrics.get("hbase.rows_visited")


def test_pushdown_disabled_returns_same_rows(loaded):
    cluster, session, options = loaded
    toggled = read_df(session, options, extra={HBaseSparkConf.PUSHDOWN: "false"})
    on = read_df(session, options).filter("stay > 0").collect()
    off = toggled.filter("stay > 0").collect()
    assert sorted(map(tuple, on)) == sorted(map(tuple, off))


def test_pushdown_reduces_bytes_returned(loaded):
    cluster, session, options = loaded
    on = read_df(session, options).filter("stay > 100").run()
    off = read_df(session, options, extra={HBaseSparkConf.PUSHDOWN: "false"}) \
        .filter("stay > 100").run()
    assert on.metrics.get("hbase.bytes_returned") < \
        off.metrics.get("hbase.bytes_returned")


def test_column_pruning_reduces_scanned_bytes(loaded):
    cluster, session, options = loaded
    narrow = read_df(session, options).select("page").run()
    wide = read_df(session, options).run()
    assert narrow.metrics.get("hbase.bytes_scanned") < \
        wide.metrics.get("hbase.bytes_scanned")


def test_locality_gives_local_tasks(loaded):
    cluster, session, options = loaded
    on = read_df(session, options).run()
    off = read_df(session, options,
                  extra={HBaseSparkConf.LOCALITY: "false"}).run()
    assert on.metrics.get("engine.local_tasks") > 0
    assert off.metrics.get("hbase.network_bytes", 0) >= \
        on.metrics.get("hbase.network_bytes", 0)


def test_size_in_bytes_known_for_shc_unknown_for_baseline(loaded):
    cluster, session, options = loaded
    from repro.sql.sources import lookup_provider

    shc_rel = lookup_provider(DEFAULT_FORMAT).create_relation(options, session)
    base_rel = lookup_provider(BASELINE_FORMAT).create_relation(options, session)
    assert shc_rel.size_in_bytes() > 0
    assert base_rel.size_in_bytes() is None


def test_point_query_uses_bulk_get(loaded):
    cluster, session, options = loaded
    result = read_df(session, options).filter("ts = 10 and uid = 1") \
        .run()
    # first-dimension equality gives a prefix scan; with all-dims pruning
    # enabled the full composite equality becomes a Get
    alldims = read_df(session, options,
                      extra={HBaseSparkConf.PRUNE_ALL_DIMENSIONS: "true"}) \
        .filter("ts = 10 and uid = 1").run()
    assert sorted(map(tuple, result.rows)) == sorted(map(tuple, alldims.rows))
    assert alldims.metrics.get("hbase.bloom_probes", 0) > 0


def test_missing_catalog_option_rejected(linked):
    cluster, session = linked
    from repro.common.errors import CatalogError

    with pytest.raises(CatalogError):
        session.read.format(DEFAULT_FORMAT).options(
            {"hbase.zookeeper.quorum": cluster.quorum}).load()


def test_missing_quorum_rejected(linked):
    cluster, session = linked
    from repro.common.errors import CatalogError

    with pytest.raises(CatalogError):
        session.read.format(DEFAULT_FORMAT).options(
            {HBaseTableCatalog.tableCatalog: CATALOG}).load()


@pytest.mark.parametrize("predicate,expected_ts", [
    ("ts > 1.5", lambda ts: ts > 1.5),
    ("ts >= 10.0", lambda ts: ts >= 10),
    ("ts = 2.0", lambda ts: ts == 2),
    ("ts = 2.5", lambda ts: False),
    ("ts <= -0.5", lambda ts: ts <= -0.5),
    ("ts in (1.5, 3.0, 7.0)", lambda ts: ts in (3, 7)),
])
def test_float_literals_on_int_key(loaded, predicate, expected_ts):
    """Mistyped numeric literals never crash pushdown and stay exact."""
    cluster, session, options = loaded
    got = read_df(session, options).filter(predicate).collect()
    expected = sorted(r for r in ROWS if expected_ts(r[0]))
    assert sorted(map(tuple, got)) == expected


def test_namespaces_isolate_same_table_name(linked):
    """Two catalogs with the same name in different namespaces coexist."""
    cluster, session = linked
    import json as _json

    def catalog_for(namespace):
        raw = _json.loads(CATALOG)
        raw["table"]["namespace"] = namespace
        raw["table"]["name"] = "shared"
        return _json.dumps(raw)

    def options_for(namespace):
        return {
            HBaseTableCatalog.tableCatalog: catalog_for(namespace),
            HBaseTableCatalog.newTable: "1",
            "hbase.zookeeper.quorum": cluster.quorum,
        }

    from repro.sql.types import StructType

    session.create_dataframe([ROWS[0]], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options_for("alpha")).save()
    session.create_dataframe(list(ROWS[:3]), SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options_for("beta")).save()
    alpha = session.read.format(DEFAULT_FORMAT).options(options_for("alpha")).load()
    beta = session.read.format(DEFAULT_FORMAT).options(options_for("beta")).load()
    assert alpha.count() == 1
    assert beta.count() == 3
    assert cluster.has_table("alpha:shared") and cluster.has_table("beta:shared")
