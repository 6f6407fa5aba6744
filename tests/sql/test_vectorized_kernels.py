"""Property-based referee: the one compiler's two forms against ``sqlite3``.

Every expression is compiled from its nodes' value functions into a column
kernel (:func:`repro.sql.columnar.compile_kernel`) and a row closure
(:func:`repro.sql.columnar.compile_row`).  These tests generate random
expression trees over random batches (NULL-heavy, empty and zero-width ones
included) and evaluate each tree three ways: the kernel over the batch, the
row closure per row, and ``SELECT <rendered expr> FROM`` the same rows in
stdlib ``sqlite3``, an outside SQL engine.  All three must agree
element-wise -- SQL three-valued logic, ``/ 0 -> NULL``, ``IN`` over NULL
options, Java's truncating ``%`` and HALF_UP ``round`` included -- as must
the mask/transpose/key helpers the batch operators are built from.

What sqlite cannot referee is left out, not bent to fit: string casts
(sqlite reads a non-numeric string as 0 where Spark gives NULL), ``%`` over
non-integers (sqlite truncates its operands to integers first) and ``/``
over integers (sqlite divides integers as integers; it is rendered as
``CAST(l AS REAL) / r``).  ``LIKE`` runs under ``case_sensitive_like``.
"""

import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import columnar as C
from repro.sql import expressions as E
from repro.sql.types import (
    BooleanType,
    DoubleType,
    LongType,
    StringType,
)

ATTRS = [
    E.Attribute("a", LongType),
    E.Attribute("b", LongType),
    E.Attribute("c", DoubleType),
    E.Attribute("s", StringType),
]

_DB = sqlite3.connect(":memory:")
_DB.execute("PRAGMA case_sensitive_like=ON")
_DB.execute("CREATE TABLE t (a INTEGER, b INTEGER, c REAL, s TEXT)")


def random_rows(rng: random.Random, n: int, null_p: float):
    rows = []
    for _ in range(n):
        rows.append((
            None if rng.random() < null_p else rng.randint(-50, 50),
            None if rng.random() < null_p else rng.randint(0, 9),
            None if rng.random() < null_p else round(rng.uniform(-10, 10), 3),
            None if rng.random() < null_p else rng.choice(["aa", "ab", "ba", ""]),
        ))
    return rows


def int_expr(rng: random.Random, depth: int) -> E.Expression:
    """A random integer-valued expression over ATTRS (``%`` lives here)."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice([ATTRS[0], ATTRS[1],
                           E.Literal(rng.randint(-5, 5), LongType),
                           E.Literal(None, LongType)])
    kind = rng.randrange(4)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "%"])
        return E.BinaryArithmetic(op, int_expr(rng, depth - 1),
                                  int_expr(rng, depth - 1))
    if kind == 1:
        name = rng.choice(["abs", "coalesce"])
        args = [int_expr(rng, depth - 1)
                for _ in range(1 if name == "abs" else rng.randint(2, 3))]
        return E.ScalarFunction(name, args)
    if kind == 2:
        return case_expr(rng, depth, int_expr)
    return E.Cast(num_expr(rng, depth - 1), LongType)


def num_expr(rng: random.Random, depth: int) -> E.Expression:
    """A random numeric-valued expression over ATTRS."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice([
            ATTRS[0], ATTRS[1], ATTRS[2],
            E.Literal(rng.randint(-5, 5), LongType),
            E.Literal(round(rng.uniform(-3, 3), 2), DoubleType),
            E.Literal(None, LongType),
        ])
    kind = rng.randrange(6)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/"])
        return E.BinaryArithmetic(op, num_expr(rng, depth - 1),
                                  num_expr(rng, depth - 1))
    if kind == 1:
        return E.ScalarFunction("abs", [num_expr(rng, depth - 1)])
    if kind == 2:
        return case_expr(rng, depth, num_expr)
    if kind == 3:
        return E.Cast(num_expr(rng, depth - 1), rng.choice([LongType, DoubleType]))
    if kind == 4:
        # the column's three decimals make HALF_UP ties at scale 2 common
        return E.ScalarFunction("round", [ATTRS[2], E.Literal(
            rng.randint(0, 2), LongType)])
    return int_expr(rng, depth - 1)


def case_expr(rng: random.Random, depth: int, values) -> E.Expression:
    branches = [(bool_expr(rng, depth - 1), values(rng, depth - 1))
                for _ in range(rng.randint(1, 2))]
    tail = values(rng, depth - 1) if rng.random() < 0.5 else None
    return E.CaseWhen(branches, tail)


def bool_expr(rng: random.Random, depth: int) -> E.Expression:
    """A random boolean-valued expression over ATTRS."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 4:
            # a non-literal option list: evaluated per row, not as a set
            return E.In(ATTRS[1], [ATTRS[0], E.Literal(rng.randint(0, 9), LongType)])
        if kind == 0:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return E.Comparison(op, num_expr(rng, 1), num_expr(rng, 1))
        if kind == 1:
            target = rng.choice(ATTRS)
            return (E.IsNull(target) if rng.random() < 0.5
                    else E.IsNotNull(target))
        if kind == 2:
            options = [E.Literal(rng.randint(-5, 5), LongType)
                       for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:
                options.append(E.Literal(None, LongType))
            return E.In(ATTRS[1], options)
        return E.Like(ATTRS[3], rng.choice(["a%", "%b", "a_", "%"]))
    kind = rng.randrange(3)
    if kind == 0:
        return E.And(bool_expr(rng, depth - 1), bool_expr(rng, depth - 1))
    if kind == 1:
        return E.Or(bool_expr(rng, depth - 1), bool_expr(rng, depth - 1))
    return E.Not(bool_expr(rng, depth - 1))


# -- the referee ---------------------------------------------------------------

def render(expr: E.Expression) -> str:
    """``expr`` as sqlite SQL over table ``t``."""
    if isinstance(expr, E.Attribute):
        return expr.name
    if isinstance(expr, E.Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return repr(expr.value)
    kids = [render(c) for c in expr.children]
    if isinstance(expr, E.BinaryArithmetic):
        if expr.op == "/":
            return f"(CAST({kids[0]} AS REAL) / {kids[1]})"
        return f"({kids[0]} {expr.op} {kids[1]})"
    if isinstance(expr, E.Comparison):
        return f"({kids[0]} {expr.op} {kids[1]})"
    if isinstance(expr, (E.And, E.Or)):
        return f"({kids[0]} {type(expr).__name__.upper()} {kids[1]})"
    if isinstance(expr, E.Not):
        return f"(NOT {kids[0]})"
    if isinstance(expr, E.IsNull):
        return f"({kids[0]} IS NULL)"
    if isinstance(expr, E.IsNotNull):
        return f"({kids[0]} IS NOT NULL)"
    if isinstance(expr, E.In):
        return f"({kids[0]} IN ({', '.join(kids[1:])}))"
    if isinstance(expr, E.Like):
        return f"({kids[0]} LIKE '{expr.pattern}')"
    if isinstance(expr, E.CaseWhen):
        whens = " ".join(f"WHEN {render(c)} THEN {render(v)}"
                         for c, v in expr.branches())
        tail = f" ELSE {kids[-1]}" if expr.else_value_present else ""
        return f"(CASE {whens}{tail} END)"
    if isinstance(expr, E.Cast):
        target = "INTEGER" if expr.dtype is LongType else "REAL"
        return f"CAST({kids[0]} AS {target})"
    if isinstance(expr, E.ScalarFunction):
        return f"{expr.name}({', '.join(kids)})"
    raise AssertionError(f"no sqlite rendering for {expr!r}")


def sqlite_values(expr: E.Expression, rows, width: int = len(ATTRS)):
    """What sqlite says ``expr`` is for each row, booleans mapped back."""
    _DB.execute("DELETE FROM t")
    filler = (None,) * (len(ATTRS) - width)
    _DB.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                    [tuple(r) + filler for r in rows])
    got = [v for (v,) in _DB.execute(
        f"SELECT {render(expr)} FROM t ORDER BY rowid")]
    if expr.data_type() is BooleanType:
        got = [None if v is None else bool(v) for v in got]
    return got


def assert_three_way(expr: E.Expression, rows):
    """Kernel over the batch == row closure per row == sqlite."""
    bound = E.bind_expression(expr, ATTRS)
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    by_column = C.compile_kernel(bound)(batch.columns, batch.num_rows)
    row_fn = C.compile_row(bound)
    by_row = [row_fn(r) for r in rows]
    assert list(by_column) == by_row, f"kernel and row closure differ: {expr!r}"
    assert by_row == sqlite_values(expr, rows), f"sqlite disagrees: {expr!r}"


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.2, 0.7]))
def test_numeric_kernels_match_row_eval(seed, null_p):
    rng = random.Random(seed)
    assert_three_way(num_expr(rng, 3), random_rows(rng, 64, null_p))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.2, 0.7]))
def test_predicate_kernels_match_row_eval(seed, null_p):
    rng = random.Random(seed)
    assert_three_way(bool_expr(rng, 3), random_rows(rng, 64, null_p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_kernels_on_empty_batches(seed):
    rng = random.Random(seed)
    assert_three_way(bool_expr(rng, 3), [])
    assert_three_way(num_expr(rng, 3), [])


def _without_columns(rng: random.Random, expr: E.Expression) -> E.Expression:
    """``expr`` with every attribute replaced by a literal of its type."""
    def fill(node):
        if not isinstance(node, E.Attribute):
            return None
        if rng.random() < 0.3:
            return E.Literal(None, node.dtype)
        value = "ab" if node.dtype is StringType else rng.randint(-5, 5)
        return E.Literal(float(value) if node.dtype is DoubleType else value,
                         node.dtype)

    return expr.transform(fill)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(0, 5))
def test_kernels_on_zero_width_batches(seed, n):
    """A batch with no columns (``COUNT(*)`` input) still has ``n`` rows:
    column-free expressions evaluate once per row."""
    rng = random.Random(seed)
    for expr in (_without_columns(rng, bool_expr(rng, 3)),
                 _without_columns(rng, num_expr(rng, 3))):
        batch = C.RecordBatch.from_rows([()] * n, 0)
        assert batch.columns == [] and batch.num_rows == n
        got = C.compile_kernel(expr)(batch.columns, n)
        expected = sqlite_values(expr, [()] * n, width=0)
        assert list(got) == [C.compile_row(expr)(())] * n == expected, \
            f"mismatch for {expr!r}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.5]))
def test_apply_mask_matches_row_filter(seed, null_p):
    """apply_mask keeps exactly the rows sqlite's WHERE keeps."""
    rng = random.Random(seed)
    rows = random_rows(rng, 80, null_p)
    predicate = bool_expr(rng, 3)
    kernel = C.compile_kernel(E.bind_expression(predicate, ATTRS))
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    filtered = C.apply_mask(batch, kernel(batch.columns, batch.num_rows))
    expected = [r for r, keep in zip(rows, sqlite_values(predicate, rows))
                if keep is True]
    assert list(filtered.to_rows()) == expected
    assert filtered.num_rows == len(expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), width=st.integers(0, 4),
       batch_size=st.integers(1, 17))
def test_batch_round_trip_identity(seed, width, batch_size):
    """rows -> batches(batch_size) -> rows is the identity, any width."""
    rng = random.Random(seed)
    n = rng.randrange(0, 40)
    rows = [tuple(rng.randint(0, 9) for _ in range(width)) for _ in range(n)]
    batches = list(C.batches_from_rows(iter(rows), width, batch_size))
    assert all(b.num_rows <= batch_size for b in batches)
    assert sum(b.num_rows for b in batches) == n
    assert [r for b in batches for r in b.to_rows()] == rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.4]))
def test_key_tuples_match_row_key_eval(seed, null_p):
    """Join/aggregate key vectors equal per-row key tuples and sqlite's
    (the hash build and probe sides both consume these tuples)."""
    rng = random.Random(seed)
    rows = random_rows(rng, 50, null_p)
    keys = [num_expr(rng, 2) for _ in range(rng.randint(1, 3))]
    bound = [E.bind_expression(k, ATTRS) for k in keys]
    kernels = [C.compile_kernel(b) for b in bound]
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    got = list(C.key_tuples(kernels, batch.columns, batch.num_rows))
    row_fns = [C.compile_row(b) for b in bound]
    assert got == [tuple(fn(r) for fn in row_fns) for r in rows]
    assert got == list(zip(*(sqlite_values(k, rows) for k in keys)))


def test_key_tuples_no_keys_yields_empty_tuples():
    got = list(C.key_tuples([], [[1, 2, 3]], 3))
    assert got == [(), (), ()]


def test_division_and_modulo_by_zero_yield_null():
    rows = [(10, 0, None, None), (10, 2, None, None), (None, 3, None, None),
            (-7, 3, None, None)]
    assert_three_way(E.BinaryArithmetic("/", ATTRS[0], ATTRS[1]), rows)
    remainder = E.BinaryArithmetic("%", ATTRS[0], ATTRS[1])
    assert_three_way(remainder, rows)
    assert sqlite_values(remainder, rows) == [None, 0, None, -1]


def test_round_is_half_up():
    rows = [(0, 0, c, None) for c in (2.5, -2.5, 1.005, 2.675, 0.125, None)]
    for scale in (0, 2):
        assert_three_way(E.ScalarFunction(
            "round", [ATTRS[2], E.Literal(scale, LongType)]), rows)
    assert sqlite_values(E.ScalarFunction(
        "round", [ATTRS[2], E.Literal(2, LongType)]), rows) == [
            2.5, -2.5, 1.01, 2.68, 0.13, None]


def test_in_with_null_needle_and_null_options():
    expr = E.In(ATTRS[1], [E.Literal(1, LongType), E.Literal(None, LongType)])
    rows = [(0, 1, None, None), (0, 2, None, None), (0, None, None, None)]
    assert_three_way(expr, rows)
    # miss with NULL among the options is NULL, not False
    assert sqlite_values(expr, rows) == [True, None, None]


def test_non_literal_in_list_matches_sqlite():
    """Options that are not all literals are compared per row."""
    rows = [(1, 1, 0.5, "aa"), (2, 5, None, None), (None, 2, 1.0, "ab"),
            (7, None, 2.0, "")]
    non_literal_in = E.In(ATTRS[0], [ATTRS[1], E.Literal(7, LongType)])
    assert_three_way(non_literal_in, rows)
    assert_three_way(E.Not(non_literal_in), rows)
    assert_three_way(non_literal_in, [])


def test_invalid_cast_yields_null():
    """A string cast is refereed by hand: sqlite would say 0 for 'xy'."""
    bound = E.bind_expression(E.Cast(ATTRS[3], LongType), ATTRS)
    rows = [(0, 0, 0.0, "12"), (0, 0, 0.0, "xy"), (0, 0, 0.0, None)]
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    assert C.compile_kernel(bound)(batch.columns, 3) == [12, None, None]
    assert [C.compile_row(bound)(r) for r in rows] == [12, None, None]


def test_compile_bound_reports_a_missing_attribute():
    """Binding errors propagate: they name the reference and the schema."""
    from repro.common.errors import AnalysisError

    ghost = E.Attribute("ghost", LongType)
    with pytest.raises(AnalysisError, match="cannot bind ghost.*available.*a#"):
        C.compile_bound(E.Comparison(">", ghost, E.Literal(1, LongType)), ATTRS)


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
