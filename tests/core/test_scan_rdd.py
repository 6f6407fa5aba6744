import json
import os
import sys

import pytest

import repro
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.types import IntegerType, StringType, StructField, StructType

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "s", "tableCoder": "PrimitiveType"},
    "rowkey": "k",
    "columns": {
        "k": {"cf": "rowkey", "col": "k", "type": "int"},
        "a": {"cf": "cf1", "col": "a", "type": "string"},
        "b": {"cf": "cf2", "col": "b", "type": "int"},
    },
})
SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("a", StringType),
    StructField("b", IntegerType),
])


@pytest.fixture
def loaded(linked):
    cluster, session = linked
    rows = [(i, "a%d" % i, i * i) for i in range(60)]
    opts = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    return cluster, session, opts


def relation_for(session, opts, extra=None):
    from repro.sql.sources import lookup_provider

    merged = dict(opts)
    if extra:
        merged.update(extra)
    return lookup_provider(DEFAULT_FORMAT).create_relation(merged, session)


def test_partitions_fused_per_region_server(loaded):
    cluster, session, opts = loaded
    relation = relation_for(session, opts)
    rdd = relation.build_scan(["k", "a"], [])
    servers = {p.payload.server_id for p in rdd.partitions()}
    assert len(rdd.partitions()) == len(servers)


def test_unfused_partitions_per_region(loaded):
    cluster, session, opts = loaded
    relation = relation_for(session, opts,
                            {HBaseSparkConf.FUSION: "false"})
    rdd = relation.build_scan(["k"], [])
    assert len(rdd.partitions()) == len(cluster.region_locations("s"))


def test_preferred_locations_are_region_server_hosts(loaded):
    cluster, session, opts = loaded
    relation = relation_for(session, opts)
    rdd = relation.build_scan(["k"], [])
    hosts = {loc.host for loc in cluster.region_locations("s")}
    for partition in rdd.partitions():
        preferred = rdd.preferred_locations(partition)
        assert len(preferred) == 1
        assert preferred[0] in hosts


def test_locality_disabled_no_preferences(loaded):
    cluster, session, opts = loaded
    relation = relation_for(session, opts, {HBaseSparkConf.LOCALITY: "false"})
    rdd = relation.build_scan(["k"], [])
    assert rdd.preferred_locations(rdd.partitions()[0]) == ()


def test_compute_returns_required_column_order(loaded):
    cluster, session, opts = loaded
    df = session.read.format(DEFAULT_FORMAT).options(opts).load()
    rows = df.select("b", "k").filter("k = 7").collect()
    assert [tuple(r) for r in rows] == [(49, 7)]


def test_timestamp_option_filters_versions(linked):
    cluster, session = linked
    opts = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe([(1, "old", 0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    write_ms = cluster.clock.now_millis()
    cluster.clock.advance(10.0)
    session.create_dataframe([(1, "new", 1)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(opts).save()

    latest = session.read.format(DEFAULT_FORMAT).options(opts).load().collect()
    assert latest[0].a == "new"

    ranged = dict(opts)
    ranged[HBaseSparkConf.MIN_TIMESTAMP] = "0"
    ranged[HBaseSparkConf.MAX_TIMESTAMP] = str(write_ms + 1)
    old = session.read.format(DEFAULT_FORMAT).options(ranged).load().collect()
    assert old[0].a == "old"


def test_decode_costs_metered(loaded):
    cluster, session, opts = loaded
    df = session.read.format(DEFAULT_FORMAT).options(opts).load()
    result = df.run()
    assert result.metrics.get("shc.cells_decoded") > 0


def test_pushed_filter_on_unselected_column_regression(loaded):
    """Regression: an SCVF on a column the query doesn't project must widen
    the scan's fetched columns, or the server-side filter would see missing
    cells and drop every row (the classic HBase gotcha)."""
    cluster, session, opts = loaded
    df = session.read.format(DEFAULT_FORMAT).options(opts).load()
    # select only 'a' but filter on 'b': b's cells must still be fetched
    got = df.filter("b > 100").select("a").collect()
    expected = sorted("a%d" % i for i in range(60) if i * i > 100)
    assert sorted(r.a for r in got) == expected


def test_filter_columns_exposed_on_rdd(loaded):
    cluster, session, opts = loaded
    from repro.sql.sources import GreaterThan, lookup_provider

    relation = lookup_provider(DEFAULT_FORMAT).create_relation(opts, session)
    rdd = relation.build_scan(["a"], [GreaterThan("b", 100)])
    assert ("cf2", "b") in rdd.filter_columns


#: Python calls inside ``repro.core`` + ``repro.hbase`` that one more scanned
#: row may cost, end to end.  Measured when the scan path went block-wise and
#: the codec bound its plan (PR 19): 13.01, down from 52.05; the budget
#: leaves a fifth of headroom.  A helper per cell or per row shows up here as +1 or
#: more -- raise the number only with a measurement that pays for it.
CALLS_PER_ROW_BUDGET = 16


def test_marginal_python_calls_per_scanned_row(linked):
    """Scan N and 2N rows of a four-column, two-family, composite-key table
    and count Python ``call`` events in the connector and the store: their
    difference per row is what a row costs, whatever the machine."""
    cluster, session = linked
    package = os.path.dirname(repro.__file__)
    counted = tuple(os.path.join(package, part) + os.sep
                    for part in ("core", "hbase"))
    schema = StructType([
        StructField("k1", IntegerType), StructField("k2", IntegerType),
        StructField("a", StringType), StructField("b", IntegerType),
    ])

    def calls_to_scan(table: str, nrows: int) -> int:
        opts = {
            HBaseTableCatalog.tableCatalog: json.dumps({
                "table": {"namespace": "default", "name": table},
                "rowkey": "k1:k2",
                "columns": {
                    "k1": {"cf": "rowkey", "col": "k1", "type": "int"},
                    "k2": {"cf": "rowkey", "col": "k2", "type": "int"},
                    "a": {"cf": "cf1", "col": "a", "type": "string"},
                    "b": {"cf": "cf2", "col": "b", "type": "int"},
                },
            }),
            HBaseTableCatalog.newTable: "1",
            "hbase.zookeeper.quorum": cluster.quorum,
        }
        rows = [(i // 7, i % 7, "a%d" % i, i) for i in range(nrows)]
        session.create_dataframe(rows, schema).write \
            .format(DEFAULT_FORMAT).options(opts).save()
        cluster.flush_table(table)
        frame = session.read.format(DEFAULT_FORMAT).options(opts).load()
        calls = 0

        def count(frame_, event, arg):
            nonlocal calls
            if event == "call" and frame_.f_code.co_filename.startswith(counted):
                calls += 1

        sys.setprofile(count)
        try:
            scanned = frame.collect()
        finally:
            sys.setprofile(None)
        assert sorted(map(tuple, scanned)) == rows
        return calls

    n = 300
    marginal = (calls_to_scan("n2", 2 * n) - calls_to_scan("n1", n)) / n
    assert marginal <= CALLS_PER_ROW_BUDGET, marginal
