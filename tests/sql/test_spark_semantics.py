"""Scalar semantics that follow Spark 2.1, pinned through ``SparkSession.sql``.

Each case runs on a small local table, so the expression is evaluated by
the engine (not folded at planning).  A value Spark answers with NULL or
Infinity must not fail the query.
"""

import math

from repro.sql.types import DoubleType, LongType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("i", LongType),
    StructField("x", DoubleType),
    StructField("n", LongType),
    StructField("s", StringType),
])


def values(session, rows, select):
    """``select`` over ``t(x, n, s)`` holding ``rows``, in row order."""
    table = [(i,) + tuple(row) for i, row in enumerate(rows)]
    session.create_dataframe(table, SCHEMA).create_or_replace_temp_view("t")
    result = session.sql(f"SELECT i, {select} AS v FROM t ORDER BY i").run()
    return [r.values[1] for r in result.rows]


# -- functions are total: NULL arguments and overflow do not fail the query --

def test_round_with_a_null_scale_is_null(session):
    rows = [(2.567, None, None), (2.567, 1, None)]
    assert values(session, rows, "round(x, n)") == [None, 2.6]


def test_substring_with_a_null_position_or_length_is_null(session):
    rows = [(None, None, "hello"), (None, 2, "hello")]
    assert values(session, rows, "substring(s, n)") == [None, "ello"]
    assert values(session, rows, "substring(s, 2, n)") == [None, "el"]


def test_power_overflow_is_infinity(session):
    rows = [(400.0, None, None), (2.0, None, None)]
    assert values(session, rows, "power(10, x)") == [math.inf, 100.0]


# -- answers where Python and Spark differ: Spark's -------------------------

def test_boolean_cast_of_a_string_follows_spark(session):
    words = ["true", "FALSE", "y", "No", "1", "0", "t", "f", "abc", ""]
    rows = [(None, None, w) for w in words]
    assert values(session, rows, "CAST(s AS BOOLEAN)") == [
        True, False, True, False, True, False, True, False, None, None]


def test_remainder_takes_the_dividends_sign(session):
    rows = [(-7.5, -7, None), (7.5, 7, None)]
    assert values(session, rows, "n % 3") == [-1, 1]
    assert values(session, rows, "n % -3") == [-1, 1]
    assert values(session, rows, "x % 2") == [-1.5, 1.5]


def test_round_is_half_up_on_the_written_decimal(session):
    rows = [(2.5, None, None), (-2.5, None, None), (2.505, None, None),
            (1.005, None, None)]
    assert values(session, rows, "round(x)") == [3.0, -3.0, 3.0, 1.0]
    assert values(session, rows, "round(x, 2)") == [2.5, -2.5, 2.51, 1.01]
