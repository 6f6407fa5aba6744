"""Physical operator tests against in-memory data (no HBase involved)."""

import pytest

from repro.sql import SparkSession
from repro.sql.types import (
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
    StructField("v", DoubleType),
])

DATA = [(i, "g%d" % (i % 3), float(i)) for i in range(30)]


@pytest.fixture
def sql(session):
    session.create_dataframe(DATA, SCHEMA).create_or_replace_temp_view("t")
    return lambda text: session.sql(text).collect()


def test_filter_and_project(sql):
    rows = sql("select k, v * 2 as d from t where k >= 28")
    assert [(r.k, r.d) for r in rows] == [(28, 56.0), (29, 58.0)]


def test_group_by_aggregations(sql):
    rows = sql("""
        select g, count(*) n, sum(v) s, min(k) lo, max(k) hi, avg(v) m
        from t group by g order by g
    """)
    g0 = rows[0]
    expected = [v for k, g, v in DATA if g == "g0"]
    assert g0.n == len(expected)
    assert g0.s == sum(expected)
    assert g0.lo == 0 and g0.hi == 27
    assert g0.m == pytest.approx(sum(expected) / len(expected))


def test_global_aggregate_on_empty_input(sql):
    rows = sql("select count(*) c, sum(v) s from t where k > 999")
    assert rows[0].c == 0
    assert rows[0].s is None


def test_stddev(sql):
    import statistics

    rows = sql("select stddev(v) s from t")
    assert rows[0].s == pytest.approx(statistics.stdev(v for __, __g, v in DATA))


def test_inner_join(sql, session):
    other = [(0, "x"), (1, "y"), (99, "z")]
    schema = StructType([StructField("k2", IntegerType), StructField("tag", StringType)])
    session.create_dataframe(other, schema).create_or_replace_temp_view("u")
    rows = sql("select k, tag from t join u on k = k2 order by k")
    assert [(r.k, r.tag) for r in rows] == [(0, "x"), (1, "y")]


def test_left_join_produces_nulls(sql, session):
    schema = StructType([StructField("k2", IntegerType), StructField("tag", StringType)])
    session.create_dataframe([(0, "x")], schema).create_or_replace_temp_view("u")
    rows = sql("select k, tag from t left join u on k = k2 where k < 2 order by k")
    assert [(r.k, r.tag) for r in rows] == [(0, "x"), (1, None)]


def test_join_with_residual_condition(sql, session):
    schema = StructType([StructField("k2", IntegerType), StructField("w", DoubleType)])
    session.create_dataframe([(1, 0.5), (2, 99.0)], schema) \
        .create_or_replace_temp_view("u")
    rows = sql("select k from t join u on k = k2 and v > w order by k")
    assert [r.k for r in rows] == [1]


def test_null_join_keys_never_match(session):
    schema = StructType([StructField("a", IntegerType)])
    session.create_dataframe([(None,), (1,)], schema).create_or_replace_temp_view("l")
    session.create_dataframe([(None,), (1,)], schema).create_or_replace_temp_view("r")
    rows = session.sql("select l.a from l join r on l.a = r.a").collect()
    assert [r[0] for r in rows] == [1]


def test_sort_orders_and_null_placement(session):
    schema = StructType([StructField("a", IntegerType)])
    session.create_dataframe([(3,), (None,), (1,)], schema) \
        .create_or_replace_temp_view("s")
    asc = session.sql("select a from s order by a").collect()
    assert [r.a for r in asc] == [1, 3, None]
    desc = session.sql("select a from s order by a desc").collect()
    assert [r.a for r in desc] == [None, 3, 1]


def test_limit(sql):
    assert len(sql("select k from t order by k limit 4")) == 4


def test_distinct(sql):
    rows = sql("select distinct g from t")
    assert sorted(r.g for r in rows) == ["g0", "g1", "g2"]


def test_union_all_keeps_duplicates(sql):
    rows = sql("select g from t where k = 0 union all select g from t where k = 3")
    assert [r.g for r in rows] == ["g0", "g0"]


def test_union_dedupes(sql):
    rows = sql("select g from t where k = 0 union select g from t where k = 3")
    assert [r.g for r in rows] == ["g0"]


def test_intersect(sql):
    rows = sql("select g from t where k < 2 intersect select g from t where k > 27")
    # left side sees {g0, g1}; right side sees {g1, g2}
    assert sorted(r.g for r in rows) == ["g1"]


def test_case_when_in_select(sql):
    rows = sql("""
        select k, case when k % 2 = 0 then 'even' else 'odd' end par
        from t where k < 2 order by k
    """)
    assert [(r.k, r.par) for r in rows] == [(0, "even"), (1, "odd")]


def test_aggregate_expression_over_aggregates(sql):
    rows = sql("""
        select g, sum(v) / count(*) as manual_avg, avg(v) as m
        from t group by g order by g
    """)
    for row in rows:
        assert row.manual_avg == pytest.approx(row.m)


def test_count_distinct_across_partitions(sql):
    rows = sql("select count(distinct g) c from t")
    assert rows[0].c == 3


def test_having(sql):
    rows = sql("select g, count(*) n from t group by g having count(*) >= 10 order by g")
    assert [r.g for r in rows] == ["g0", "g1", "g2"]


def test_group_by_expression(sql):
    rows = sql("select k % 2 as par, count(*) n from t group by k % 2 order by par")
    assert [(r.par, r.n) for r in rows] == [(0, 15), (1, 15)]


def test_group_by_expression_with_arithmetic_output(sql):
    rows = sql("""
        select (k % 2) * 10 as deco, count(*) n
        from t group by k % 2 order by deco
    """)
    assert [(r.deco, r.n) for r in rows] == [(0, 15), (10, 15)]


def test_order_by_ordinal_executes(sql):
    rows = sql("select g, k from t where k < 4 order by 2 desc")
    assert [r.k for r in rows] == [3, 2, 1, 0]


def test_order_by_bad_ordinal_rejected(session):
    from repro.common.errors import AnalysisError

    session.create_dataframe(DATA, SCHEMA).create_or_replace_temp_view("t2")
    with pytest.raises(AnalysisError):
        session.sql("select k from t2 order by 5")


def test_simple_case_in_query(sql):
    rows = sql("""
        select k, case k when 0 then 'zero' when 1 then 'one' else 'many' end lbl
        from t where k < 3 order by k
    """)
    assert [r.lbl for r in rows] == ["zero", "one", "many"]


# -- the cost of one aggregated row --------------------------------------------

#: Python calls inside ``repro.sql`` + ``repro.engine`` that one more row of
#: a grouped ``count``/``sum``/``avg`` may cost, end to end: one ``update``
#: per aggregate.  Measured when ``update`` began taking the argument's
#: value: 3.00; the code before it measured 16.00, each aggregate paying
#: ``update -> _arg -> child -> eval`` per row.  A helper per row and aggregate shows up
#: here as +3 -- raise the number only with a measurement that pays for it.
AGGREGATE_CALLS_PER_ROW_BUDGET = 3


def test_marginal_python_calls_per_aggregated_row():
    """Aggregate N and 2N local rows and count Python ``call`` events in the
    SQL layer and the engine: their difference per row is what an
    aggregated row costs, whatever the machine."""
    import os
    import sys

    import repro

    package = os.path.dirname(repro.__file__)
    counted = tuple(os.path.join(package, part) + os.sep
                    for part in ("sql", "engine"))
    schema = StructType([StructField("k", IntegerType),
                         StructField("x", DoubleType)])

    def calls_to_aggregate(nrows: int) -> int:
        session = SparkSession(["h1", "h2"])
        session.create_dataframe([(i % 8, float(i)) for i in range(nrows)],
                                 schema).create_or_replace_temp_view("t")
        frame = session.sql(
            "SELECT k, count(x), sum(x), avg(x) FROM t GROUP BY k")
        calls = 0

        def count(frame_, event, arg):
            nonlocal calls
            if event == "call" and frame_.f_code.co_filename.startswith(counted):
                calls += 1

        sys.setprofile(count)
        try:
            groups = frame.collect()
        finally:
            sys.setprofile(None)
        assert len(groups) == 8
        return calls

    n = 600
    marginal = (calls_to_aggregate(2 * n) - calls_to_aggregate(n)) / n
    assert marginal <= AGGREGATE_CALLS_PER_ROW_BUDGET, marginal
