import json
import os
import sys

import pytest

import repro
from repro.baselines import BASELINE_FORMAT
from repro.common.errors import CoderError, FatalTaskError
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.core.relation import DEFAULT_FORMAT
from repro.extensions import HUAWEI_FORMAT
from repro.hbase.client import ConnectionFactory, Put
from repro.sql import columnar as C
from repro.sql.sources import lookup_provider
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
    from repro.sql.sources import GreaterThan

    relation = lookup_provider(DEFAULT_FORMAT).create_relation(opts, session)
    rdd = relation.build_scan(["a"], [GreaterThan("b", 100)])
    assert ("cf2", "b") in rdd.filter_columns


def test_limit_closing_a_scan_inside_a_page_pays_for_the_rows_handed_on(
        linked, monkeypatch):
    """7-row pages, 10-row batches: ``LIMIT 13`` stops the scan after its
    second batch, which ends at row 19, inside the page of rows 14-20.  The
    decoder pays for the 20 rows it handed on, not for the page it stopped
    in (60 cells = 20 rows of a key and two columns; a charge per page would
    read 63).  The region stream bills the three pages it handed out, not
    the nine the server answered."""
    from repro.common.cost import DEFAULT_COST_MODEL as cost
    from repro.sql import columnar as C

    cluster, session = linked
    monkeypatch.setattr(C, "BATCH_SIZE", 10)
    opts = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe([(i, "a%d" % i, i * i) for i in range(60)],
                             SCHEMA).write.format(DEFAULT_FORMAT).options(opts).save()
    cluster.flush_table("s")
    read = dict(opts, **{HBaseSparkConf.CACHED_ROWS: "7"})
    result = session.read.format(DEFAULT_FORMAT).options(read).load() \
        .limit(13).run()
    assert [tuple(r) for r in result.rows] == [
        (i, "a%d" % i, i * i) for i in range(13)]
    assert result.metrics.get("shc.cells_decoded") == 60
    assert result.metrics.get("engine.vectorized.rows") == 20
    # a row's cells carry 46 bytes while "a%d" has two characters, 47 after;
    # the server answered all 60 rows, the stream handed out rows 0-20
    assert result.metrics.get("hbase.bytes_returned") == 10 * 46 + 50 * 47
    handed = 10 * 46 + 11 * 47
    assert result.metrics.get("hbase.rpcs") == 3
    assert result.metrics.get("hbase.local_ipc_bytes") == handed == 977
    # billing every page on close cost 9 RPCs and 2810 bytes: 2.2351058333...
    # s, its scan stage 0.6141058333... s; both fall by the six pages unread
    unread_s = 6 * cost.rpc_latency_s \
        + (10 * 46 + 50 * 47 - handed) / cost.local_ipc_bytes_per_sec
    assert result.seconds == pytest.approx(2.2351058333333333 - unread_s)
    assert repr(result.seconds) == "2.1996495833333336"
    assert [repr(stage.duration_s) for stage in result.stages] == [
        "0.5786495833333334", "0.421"]


RELATION_FORMATS = (DEFAULT_FORMAT, HUAWEI_FORMAT, BASELINE_FORMAT)


@pytest.mark.parametrize("columns", [["b", "k"], ["a"], ["k", "b", "a"], []])
def test_build_scan_hands_batches_of_the_required_columns(
        loaded, monkeypatch, columns):
    """The relation contract: SHC, the coprocessor connector and the
    baseline each hand ``RecordBatch`` es whose columns are the required
    columns, in that order and no more (none for a bare count), cut at
    ``BATCH_SIZE``; the baseline's rows, decoded whole and projected, equal
    SHC's."""
    cluster, session, opts = loaded
    monkeypatch.setattr(C, "BATCH_SIZE", 7)
    names = ["k", "a", "b"]
    expected = sorted(
        tuple(row[names.index(c)] for c in columns)
        for row in ((i, "a%d" % i, i * i) for i in range(60)))
    scanned = {}
    for fmt in RELATION_FORMATS:
        relation = lookup_provider(fmt).create_relation(opts, session)
        batches = session.new_scheduler().collect(relation.build_scan(columns, []))
        assert all(isinstance(batch, C.RecordBatch) for batch in batches), fmt
        assert all(len(batch.columns) == len(columns)
                   and all(len(column) == batch.num_rows for column in batch.columns)
                   and 0 < batch.num_rows <= 7 for batch in batches), fmt
        scanned[fmt] = sorted(row for batch in batches for row in batch.to_rows())
    assert scanned[BASELINE_FORMAT] == scanned[DEFAULT_FORMAT] \
        == scanned[HUAWEI_FORMAT] == expected


@pytest.mark.parametrize("fmt, statement", [
    (DEFAULT_FORMAT, "select k, b from t"),
    (BASELINE_FORMAT, "select k, b from t"),
    (HUAWEI_FORMAT, "select a, sum(b) from t group by a"),
])
def test_a_malformed_cell_fails_the_query_once_naming_the_type(
        loaded, fmt, statement):
    """A cell no int encodes to, read through SHC's scan, the baseline's
    full-row scan and the coprocessor endpoint: the query raises one
    ``FatalTaskError`` caused by the page decoder's ``CoderError`` naming
    the type, after a single attempt (the data's fault is not retried)."""
    cluster, session, opts = loaded
    codec = RowCodec(HBaseTableCatalog.from_json(CATALOG))
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("s")
    table.put(Put(codec.encode_key({"k": 31})).add_column("cf2", "b", b"\x00\x01"))
    session.read.format(fmt).options(opts).load().create_or_replace_temp_view("t")
    if fmt == HUAWEI_FORMAT:
        assert "CoprocessorAggregate" in session.sql(statement).explain()
    with pytest.raises(FatalTaskError, match="after 1 attempts") as caught:
        session.sql(statement).run()
    assert isinstance(caught.value.__cause__, CoderError)
    assert "int" in str(caught.value.__cause__)


#: Python calls inside ``repro.core`` + ``repro.hbase`` that one more scanned
#: row may cost, end to end.  Measured when the scan path went block-wise and
#: the codec bound its plan: 13.01, down from 52.05; when a row with nothing
#: to resolve became a slice of its store file's row index and the scan RDD
#: began reading whole pages: 5.99, down from 10.99; when the scan RDD began
#: decoding each page straight into columns: 3.99 (two cell decoders and the
#: two cells' sizes in the file's row index).  The budget leaves a fifth of
#: headroom, rounded up.  A helper per cell or per row shows up here as +1
#: or more -- raise the number only with a measurement that pays for it.
CALLS_PER_ROW_BUDGET = 5


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
