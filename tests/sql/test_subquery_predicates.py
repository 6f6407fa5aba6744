"""IN (subquery) / EXISTS predicates rewritten to semi/anti joins."""

import pytest

from repro.common.errors import AnalysisError
from repro.sql import logical as L
from repro.sql.types import IntegerType, StringType, StructField, StructType

SCHEMA = StructType([StructField("k", IntegerType), StructField("g", StringType)])


@pytest.fixture
def views(session):
    session.create_dataframe(
        [(i, "g%d" % (i % 3)) for i in range(12)], SCHEMA
    ).create_or_replace_temp_view("t")
    session.create_dataframe(
        [(2, "x"), (5, "y"), (None, "z")], SCHEMA
    ).create_or_replace_temp_view("u")
    return session


def test_in_subquery_is_semi_join(views):
    df = views.sql("select k from t where k in (select k from u)")
    joins = df.plan.collect_nodes(lambda n: isinstance(n, L.Join))
    assert joins and joins[0].how == "semi"
    assert sorted(r.k for r in df.collect()) == [2, 5]


def test_in_subquery_with_extra_conjuncts(views):
    rows = views.sql(
        "select k from t where k in (select k from u) and k > 3"
    ).collect()
    assert [r.k for r in rows] == [5]


def test_in_subquery_null_probe_never_matches(views):
    views.create_dataframe([(None, "n"), (2, "p")], SCHEMA) \
        .create_or_replace_temp_view("probe")
    rows = views.sql(
        "select g from probe where k in (select k from u)"
    ).collect()
    assert [r.g for r in rows] == ["p"]


def test_in_subquery_expression_value(views):
    rows = views.sql(
        "select k from t where k + 1 in (select k from u) order by k"
    ).collect()
    assert [r.k for r in rows] == [1, 4]


def test_exists_keeps_all_when_nonempty(views):
    assert views.sql(
        "select count(*) from t where exists (select k from u where k = 5)"
    ).collect()[0][0] == 12


def test_exists_drops_all_when_empty(views):
    assert views.sql(
        "select count(*) from t where exists (select k from u where k = 99)"
    ).collect()[0][0] == 0


def test_not_exists(views):
    assert views.sql(
        "select count(*) from t where not exists (select k from u where k = 99)"
    ).collect()[0][0] == 12
    assert views.sql(
        "select count(*) from t where not exists (select k from u where k = 5)"
    ).collect()[0][0] == 0


def test_not_in_subquery_rejected_with_guidance(views):
    with pytest.raises(AnalysisError, match="NOT EXISTS"):
        views.sql("select k from t where k not in (select k from u)")


def test_subquery_under_or_rejected(views):
    with pytest.raises(AnalysisError):
        views.sql(
            "select k from t where k = 0 or k in (select k from u)"
        )


def test_multi_column_in_subquery_rejected(views):
    with pytest.raises(AnalysisError):
        views.sql("select k from t where k in (select k, g from u)")


def test_semi_join_against_hbase_table(linked):
    from tests.differential.strategies import hbase_table

    cluster, session = linked
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    hbase_table(session, cluster, "facts", schema,
                [(i, "v%d" % i) for i in range(20)], ("k",), regions=2)
    session.create_dataframe([(3, "x"), (15, "y")], SCHEMA) \
        .create_or_replace_temp_view("wanted")
    rows = session.sql(
        "select v from facts where k in (select k from wanted) order by v"
    ).collect()
    assert [r.v for r in rows] == ["v15", "v3"]
