import json

import pytest

from repro.common.errors import CatalogError
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "w", "tableCoder": "PrimitiveType"},
    "rowkey": "k",
    "columns": {
        "k": {"cf": "rowkey", "col": "k", "type": "int"},
        "name": {"cf": "cf1", "col": "name", "type": "string"},
        "score": {"cf": "cf2", "col": "score", "type": "double"},
    },
})

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("name", StringType),
    StructField("score", DoubleType),
])


def options(cluster, regions="4"):
    return {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: regions,
        "hbase.zookeeper.quorum": cluster.quorum,
    }


def test_save_creates_presplit_table(linked):
    cluster, session = linked
    rows = [(i, f"n{i}", float(i)) for i in range(100)]
    result = session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options(cluster)).save()
    assert result.rows_written == 100
    assert len(cluster.region_locations("w")) == 4
    assert result.seconds > 0
    assert result.metrics.get("shc.cells_encoded") > 0


def test_written_data_reads_back(linked):
    cluster, session = linked
    rows = [(i, f"n{i}", float(i) / 3) for i in range(50)]
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options(cluster)).save()
    out = session.read.format(DEFAULT_FORMAT).options(options(cluster)) \
        .load().collect()
    assert sorted(map(tuple, out)) == sorted(rows)


def test_last_row_of_a_batch_wins_its_key(linked):
    """One batch is one ``now_millis()``: two rows with one key land on the
    same timestamp, and the later row must be the one that reads back --
    before and after the memstore is flushed."""
    cluster, session = linked
    rows = [(1, "first", 1.0), (1, "second", 2.0), (2, "only", 3.0)]
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options(cluster, "1")).save()
    frame = session.read.format(DEFAULT_FORMAT).options(options(cluster)).load()
    expected = [(1, "second", 2.0), (2, "only", 3.0)]
    assert sorted(map(tuple, frame.collect())) == expected
    cluster.flush_table("w")
    assert sorted(map(tuple, frame.collect())) == expected


def test_split_keys_balance_regions(linked):
    cluster, session = linked
    rows = [(i, "x", 0.0) for i in range(400)]
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options(cluster)).save()
    cluster.flush_table("w")
    sizes = []
    for location in cluster.region_locations("w"):
        region = cluster.get_region(location.region_name)
        sizes.append(len(region.scan_rows()[0]))
    assert len(sizes) == 4
    assert max(sizes) <= 2 * min(sizes)  # quantile splits keep it even


def test_append_to_existing_table(linked):
    cluster, session = linked
    first = [(i, "a", 1.0) for i in range(10)]
    second = [(i, "b", 2.0) for i in range(10, 20)]
    writer_opts = options(cluster)
    session.create_dataframe(first, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    session.create_dataframe(second, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    out = session.read.format(DEFAULT_FORMAT).options(writer_opts).load()
    assert out.count() == 20


def test_overwrite_replaces_table(linked):
    cluster, session = linked
    writer_opts = options(cluster)
    session.create_dataframe([(1, "a", 1.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    session.create_dataframe([(2, "b", 2.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).mode("overwrite").save()
    rows = session.read.format(DEFAULT_FORMAT).options(writer_opts).load().collect()
    assert [tuple(r) for r in rows] == [(2, "b", 2.0)]


def test_null_values_become_missing_cells(linked):
    cluster, session = linked
    writer_opts = options(cluster, regions="1")
    session.create_dataframe([(1, None, 2.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    rows = session.read.format(DEFAULT_FORMAT).options(writer_opts).load().collect()
    assert [tuple(r) for r in rows] == [(1, None, 2.0)]


def test_schema_missing_rowkey_rejected(linked):
    cluster, session = linked
    bad_schema = StructType([StructField("name", StringType)])
    df = session.create_dataframe([("x",)], bad_schema)
    with pytest.raises(CatalogError):
        df.write.format(DEFAULT_FORMAT).options(options(cluster)).save()


def test_schema_with_unknown_column_rejected(linked):
    cluster, session = linked
    bad_schema = StructType([StructField("k", IntegerType),
                             StructField("ghost", StringType)])
    df = session.create_dataframe([(1, "x")], bad_schema)
    with pytest.raises(CatalogError):
        df.write.format(DEFAULT_FORMAT).options(options(cluster)).save()


def test_single_region_when_newtable_one(linked):
    cluster, session = linked
    session.create_dataframe([(1, "a", 1.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options(cluster, regions="1")).save()
    assert len(cluster.region_locations("w")) == 1


def test_errorifexists_mode(linked):
    cluster, session = linked
    writer_opts = options(cluster)
    session.create_dataframe([(1, "a", 1.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    from repro.common.errors import AnalysisError

    with pytest.raises(AnalysisError):
        session.create_dataframe([(2, "b", 2.0)], SCHEMA).write \
            .format(DEFAULT_FORMAT).options(writer_opts) \
            .mode("errorifexists").save()


def test_ignore_mode_skips_existing_table(linked):
    cluster, session = linked
    writer_opts = options(cluster)
    session.create_dataframe([(1, "a", 1.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).save()
    result = session.create_dataframe([(2, "b", 2.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts).mode("ignore").save()
    assert result.rows_written == 0
    out = session.read.format(DEFAULT_FORMAT).options(writer_opts).load()
    assert out.count() == 1


def test_errorifexists_creates_fresh_table(linked):
    cluster, session = linked
    writer_opts = options(cluster)
    result = session.create_dataframe([(1, "a", 1.0)], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(writer_opts) \
        .mode("errorifexists").save()
    assert result.rows_written == 1
