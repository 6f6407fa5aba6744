import pytest

from repro.common.errors import AnalysisError, ReproError
from repro.sql import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType

SCHEMA = StructType([StructField("k", IntegerType), StructField("g", StringType)])


def test_session_defaults():
    session = SparkSession(["h1"])
    assert session.conf["sql.shuffle.partitions"] == 8
    assert session.cluster.executors


def test_conf_overrides():
    session = SparkSession(["h1"], conf={"sql.shuffle.partitions": 2,
                                         "sql.aqe.enabled": True})
    assert session.conf["sql.shuffle.partitions"] == 2
    assert session.conf["sql.aqe.enabled"] is True
    # keys the caller did not name keep their defaults
    assert session.conf["sql.local.scan.partitions"] == 2


def test_sql_query_advances_clock(session):
    session.create_dataframe([(1, "a")], SCHEMA).create_or_replace_temp_view("t")
    before = session.clock.now()
    session.sql("select * from t").collect()
    assert session.clock.now() > before


def test_table_lookup(session):
    session.create_dataframe([(1, "a")], SCHEMA).create_or_replace_temp_view("t")
    assert session.table("t").count() == 1
    with pytest.raises(AnalysisError):
        session.table("ghost")


def test_read_requires_format(session):
    with pytest.raises(AnalysisError):
        session.read.load()


def test_unknown_format_rejected(session):
    with pytest.raises(AnalysisError):
        session.read.format("no-such-source").load()


def test_concurrent_queries_thread_pool(session):
    data = [(i, "g%d" % (i % 2)) for i in range(50)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    futures = [
        session.submit_sql("select g, count(*) n from t group by g")
        for __ in range(6)
    ]
    results = [f.result(timeout=30) for f in futures]
    session.shutdown()
    for result in results:
        assert sorted((r.g, r.n) for r in result.rows) == [("g0", 25), ("g1", 25)]


def test_submit_sql_failure_surfaces_at_result(session):
    session.create_dataframe([(1, "a")], SCHEMA).create_or_replace_temp_view("t")
    for bad in ("select nope from t", "selec k from t"):
        future = session.submit_sql(bad)  # must not raise here
        assert future.done()
        with pytest.raises(ReproError):
            future.result()


def test_query_result_metrics_exposed(session):
    data = [(i, "x") for i in range(20)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    result = session.sql("select g, count(*) from t group by g").run()
    assert result.shuffle_bytes > 0
    assert result.metrics.get("engine.tasks") > 0


def test_sql_explain_statement(session):
    session.create_dataframe([(1, "a")], SCHEMA).create_or_replace_temp_view("t")
    rows = session.sql("explain select k from t where k > 0").collect()
    text = "\n".join(r[0] for r in rows)
    assert "Optimized Logical Plan" in text
    assert "Physical Plan" in text


def test_show_tables_and_drop_view(session):
    session.create_dataframe([(1, "a")], SCHEMA).create_or_replace_temp_view("t1")
    session.create_dataframe([(2, "b")], SCHEMA).create_or_replace_temp_view("t2")
    names = sorted(r[0] for r in session.sql("show tables").collect())
    assert names == ["t1", "t2"]
    session.sql("drop view t1")
    assert [r[0] for r in session.sql("show tables").collect()] == ["t2"]
    from repro.common.errors import AnalysisError

    with pytest.raises(AnalysisError):
        session.sql("select * from t1")
