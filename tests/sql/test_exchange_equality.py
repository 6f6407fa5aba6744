"""Exchange placement agrees with SQL equality.

A shuffled join, DISTINCT, GROUP BY and INTERSECT each route rows through
an exchange and then compare keys inside one reduce partition, so two keys
that compare equal must land in the same partition.  An ``int`` and the
``double`` it equals, and ``0.0`` and ``-0.0``, are such keys.  The oracle
is stdlib ``sqlite3`` over the same rows; answers are compared as multisets
under SQL equality (an integral ``double`` equals its ``int``, ``-0.0``
equals ``0.0``).  ``sql.autoBroadcastJoinThreshold: -1`` shuffles every
join, which is where a placement bug shows.
"""

import sqlite3
from collections import Counter

import pytest

from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StructField, StructType

A_ROWS = [(k,) for k in range(40)]
B_ROWS = [(float(k),) for k in range(40)]
#: the two zeros, alternating; ``k`` tells them apart
T_ROWS = [(k, 0.0 if k % 2 == 0 else -0.0) for k in range(40)]

TABLES = {
    "a": (StructType([StructField("k", IntegerType)]), A_ROWS, "k INTEGER"),
    "b": (StructType([StructField("d", DoubleType)]), B_ROWS, "d REAL"),
    "t": (StructType([StructField("k", IntegerType), StructField("v", DoubleType)]),
          T_ROWS, "k INTEGER, v REAL"),
}

QUERIES = {
    "int-double-join": "SELECT count(*) FROM a JOIN b ON a.k = b.d",
    "signed-zero-self-join":
        "SELECT count(*) FROM t t1 JOIN t t2 ON t1.v = t2.v",
    "distinct-over-union-all":
        "SELECT DISTINCT x FROM (SELECT k AS x FROM a UNION ALL "
        "SELECT d AS x FROM b) u",
    "distinct-signed-zero": "SELECT DISTINCT v FROM t",
    "group-by-signed-zero": "SELECT v, count(*) FROM t GROUP BY v",
    "intersect-signed-zero":
        "SELECT v FROM t WHERE k % 2 = 0 INTERSECT "
        "SELECT v FROM t WHERE k % 2 = 1",
}


def sql_value(value):
    """One value's class under SQL equality: an integral float is its int
    (``-0.0`` is ``0``), so equal numbers normalise to one Python value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def sql_multiset(rows):
    return Counter(tuple(sql_value(v) for v in row) for row in rows)


@pytest.fixture(scope="module")
def oracle():
    db = sqlite3.connect(":memory:")
    for name, (__, rows, columns) in TABLES.items():
        db.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" * len(rows[0]))
        db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    yield lambda query: db.execute(query).fetchall()
    db.close()


@pytest.fixture(scope="module")
def session():
    session = SparkSession(["h1", "h2"],
                           conf={"sql.autoBroadcastJoinThreshold": -1})
    for name, (schema, rows, __) in TABLES.items():
        session.create_dataframe(rows, schema).create_or_replace_temp_view(name)
    return session


@pytest.mark.parametrize("query", list(QUERIES.values()), ids=list(QUERIES))
def test_equal_keys_meet_in_one_partition(query, session, oracle):
    expected = oracle(query)
    assert expected, query  # the comparison must compare something
    got = [tuple(row.values) for row in session.sql(query).run().rows]
    assert sql_multiset(got) == sql_multiset(expected), query
