"""The paper's queries (TPC-DS q39a, q39b, q38) against an outside oracle.

Every timing the evaluation reports is of an answer; this checks the
answer.  The generated TPC-DS rows are loaded twice -- into HBase through
SHC (``load_tpcds``) and into stdlib ``sqlite3`` -- and each query's text
runs on both.  sqlite has no ``stddev``: it gets a sample standard
deviation that is NULL below two values, as Spark's is.  Rows compare as
multisets, or in order when the query orders them; floats to a relative
1e-9, everything else exactly.
"""

import math
import sqlite3

import pytest

from repro.sql.types import DoubleType, IntegerType, StringType
from repro.workloads import load_tpcds, queries
from repro.workloads.tpcds_gen import TpcdsGenerator
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES, TABLES

SIZE_GB, SEED = 2, 42
PAPER_TABLES = tuple(dict.fromkeys(Q39_TABLES + Q38_TABLES))
SQLITE_TYPES = {IntegerType: "INTEGER", DoubleType: "REAL", StringType: "TEXT"}

#: (query, ordered by its text, rows it answers at this size and seed)
PAPER_QUERIES = [
    ("q39a", True, 6),
    ("q39b", True, 3),
    ("q38", False, 1),
]


class SampleStddev:
    """``stddev`` for sqlite: the sample standard deviation, NULL below two
    values (NULLs skipped)."""

    def __init__(self):
        self.values = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        n = len(self.values)
        if n < 2:
            return None
        mean = math.fsum(self.values) / n
        return math.sqrt(math.fsum((v - mean) ** 2 for v in self.values) / (n - 1))


@pytest.fixture(scope="module")
def engines():
    generator = TpcdsGenerator(size_gb=SIZE_GB, seed=SEED)
    db = sqlite3.connect(":memory:")
    db.create_aggregate("stddev", 1, SampleStddev)
    for table in PAPER_TABLES:
        spec = TABLES[table]
        columns = ", ".join(
            f"{name} {SQLITE_TYPES[type_]}"
            for name, type_ in spec.columns)
        db.execute(f"CREATE TABLE {table} ({columns})")
        marks = ", ".join("?" * len(spec.columns))
        db.executemany(f"INSERT INTO {table} VALUES ({marks})",
                       generator.rows_for(table))
    env = load_tpcds(SIZE_GB, PAPER_TABLES, seed=SEED)
    session = env.new_session()
    yield session, db
    session.shutdown()
    db.close()


def _null_safe(row):
    return tuple((v is None, 0 if v is None else v) for v in row)


def assert_same_rows(got, expected, ordered):
    if not ordered:
        got, expected = sorted(got, key=_null_safe), sorted(expected, key=_null_safe)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert len(g) == len(e), (g, e)
        for a, b in zip(g, e):
            if isinstance(a, float) or isinstance(b, float):
                assert a is not None and b is not None, (g, e)
                assert math.isclose(a, b, rel_tol=1e-9), (g, e)
            else:
                assert a == b, (g, e)


@pytest.mark.parametrize("name, ordered, count", PAPER_QUERIES,
                         ids=[q[0] for q in PAPER_QUERIES])
def test_paper_query_answers_as_sqlite(engines, name, ordered, count):
    session, db = engines
    text = getattr(queries, name)()
    got = [tuple(r.values) for r in session.sql(text).run().rows]
    expected = db.execute(text).fetchall()
    assert_same_rows(got, expected, ordered)
    # a non-empty answer, so the comparison compared something
    assert len(got) == count
