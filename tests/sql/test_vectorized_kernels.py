"""Property-based parity: every compiled kernel equals the row interpreter.

The contract of :func:`repro.sql.columnar.compile_kernel` is that the
compiled closure returns, for every row of a batch, exactly what
``expr.eval(row)`` returns -- including SQL three-valued NULL logic,
``/ 0 -> NULL``, ``IN`` over NULL options and invalid-cast-to-NULL.  These
tests generate random expression trees over random batches (NULL-heavy,
empty and zero-width ones included) and compare element-wise against
``Expression.eval``, plus the mask/transpose/key helpers the batch operators
are built from.  The generators also emit nodes that have no column form (a
non-literal ``IN`` list, an expression class the compiler has never seen),
so the per-row fallback kernel is held to the same contract wherever it
nests inside compiled parents.
"""

import random

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


class Opaque(E.Expression):
    """An expression class the compiler knows nothing about: ``child + 1``."""

    def __init__(self, child: E.Expression) -> None:
        self.children = (child,)

    def eval(self, row: tuple) -> object:
        value = self.children[0].eval(row)
        return None if value is None else value + 1

    def data_type(self):
        return self.children[0].data_type()

    def with_new_children(self, children):
        return Opaque(children[0])


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


def num_expr(rng: random.Random, depth: int) -> E.Expression:
    """A random numeric-valued expression over ATTRS."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice([
            ATTRS[0], ATTRS[1], ATTRS[2],
            E.Literal(rng.randint(-5, 5), LongType),
            E.Literal(round(rng.uniform(-3, 3), 2), DoubleType),
            E.Literal(None, LongType),
        ])
    kind = rng.randrange(5)
    if kind == 4:
        return Opaque(num_expr(rng, depth - 1))
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/", "%"])
        return E.BinaryArithmetic(op, num_expr(rng, depth - 1),
                                  num_expr(rng, depth - 1))
    if kind == 1:
        return E.ScalarFunction("abs", [num_expr(rng, depth - 1)])
    if kind == 2:
        branches = [(bool_expr(rng, depth - 1), num_expr(rng, depth - 1))
                    for _ in range(rng.randint(1, 2))]
        tail = num_expr(rng, depth - 1) if rng.random() < 0.5 else None
        return E.CaseWhen(branches, tail)
    dtype = rng.choice([LongType, DoubleType])
    return E.Cast(num_expr(rng, depth - 1), dtype)


def bool_expr(rng: random.Random, depth: int) -> E.Expression:
    """A random boolean-valued expression over ATTRS."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 4:
            # a non-literal option list: no column form
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


def assert_kernel_parity(expr: E.Expression, rows):
    bound = E.bind_expression(expr, ATTRS)
    kernel = C.compile_kernel(bound)
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    got = kernel(batch.columns, batch.num_rows)
    expected = [bound.eval(r) for r in rows]
    assert list(got) == expected, f"kernel mismatch for {expr!r}"


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.2, 0.7]))
def test_numeric_kernels_match_row_eval(seed, null_p):
    rng = random.Random(seed)
    assert_kernel_parity(num_expr(rng, 3), random_rows(rng, 64, null_p))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.2, 0.7]))
def test_predicate_kernels_match_row_eval(seed, null_p):
    rng = random.Random(seed)
    assert_kernel_parity(bool_expr(rng, 3), random_rows(rng, 64, null_p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_kernels_on_empty_batches(seed):
    rng = random.Random(seed)
    assert_kernel_parity(bool_expr(rng, 3), [])
    assert_kernel_parity(num_expr(rng, 3), [])


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
    column-free expressions evaluate once per row, fallback nodes included."""
    rng = random.Random(seed)
    for expr in (_without_columns(rng, bool_expr(rng, 3)),
                 _without_columns(rng, num_expr(rng, 3))):
        batch = C.RecordBatch.from_rows([()] * n, 0)
        assert batch.columns == [] and batch.num_rows == n
        got = C.compile_kernel(expr)(batch.columns, n)
        assert list(got) == [expr.eval(())] * n, f"kernel mismatch for {expr!r}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), null_p=st.sampled_from([0.0, 0.5]))
def test_apply_mask_matches_row_filter(seed, null_p):
    """apply_mask keeps exactly the rows a row-at-a-time filter keeps."""
    rng = random.Random(seed)
    rows = random_rows(rng, 80, null_p)
    predicate = bool_expr(rng, 3)
    bound = E.bind_expression(predicate, ATTRS)
    kernel = C.compile_kernel(bound)
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    filtered = C.apply_mask(batch, kernel(batch.columns, batch.num_rows))
    expected = [r for r in rows if bound.eval(r) is True]
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
    """Join/aggregate key vectors equal per-row key evaluation (the hash
    build and probe sides both consume these tuples)."""
    rng = random.Random(seed)
    rows = random_rows(rng, 50, null_p)
    keys = [num_expr(rng, 2) for _ in range(rng.randint(1, 3))]
    bound = [E.bind_expression(k, ATTRS) for k in keys]
    kernels = [C.compile_kernel(b) for b in bound]
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    got = list(C.key_tuples(kernels, batch.columns, batch.num_rows))
    expected = [tuple(b.eval(r) for b in bound) for r in rows]
    assert got == expected


def test_key_tuples_no_keys_yields_empty_tuples():
    got = list(C.key_tuples([], [[1, 2, 3]], 3))
    assert got == [(), (), ()]


def test_division_and_modulo_by_zero_yield_null():
    expr = E.BinaryArithmetic("/", ATTRS[0], ATTRS[1])
    rows = [(10, 0, None, None), (10, 2, None, None), (None, 3, None, None)]
    assert_kernel_parity(expr, rows)
    expr = E.BinaryArithmetic("%", ATTRS[0], ATTRS[1])
    assert_kernel_parity(expr, rows)


def test_in_with_null_needle_and_null_options():
    expr = E.In(ATTRS[1], [E.Literal(1, LongType), E.Literal(None, LongType)])
    rows = [(0, 1, None, None), (0, 2, None, None), (0, None, None, None)]
    assert_kernel_parity(expr, rows)
    # miss with NULL among the options is NULL, not False
    bound = E.bind_expression(expr, ATTRS)
    kernel = C.compile_kernel(bound)
    batch = C.RecordBatch.from_rows(rows, len(ATTRS))
    assert kernel(batch.columns, 3) == [True, None, None]


def test_invalid_cast_yields_null():
    expr = E.Cast(ATTRS[3], LongType)
    rows = [(0, 0, 0.0, "12"), (0, 0, 0.0, "xy"), (0, 0, 0.0, None)]
    assert_kernel_parity(expr, rows)


def test_nodes_without_a_column_form_fall_back_to_row_eval():
    """The compiler is total: unknown nodes evaluate ``expr.eval`` per row,
    also underneath parents that do have a column form."""
    rows = [(1, 1, 0.5, "aa"), (2, 5, None, None), (None, 2, 1.0, "ab"),
            (7, None, 2.0, "")]
    non_literal_in = E.In(ATTRS[0], [ATTRS[1], E.Literal(7, LongType)])
    assert_kernel_parity(non_literal_in, rows)
    assert_kernel_parity(E.Not(non_literal_in), rows)
    assert_kernel_parity(
        E.BinaryArithmetic("*", Opaque(ATTRS[0]), E.Literal(2, LongType)), rows)
    assert_kernel_parity(non_literal_in, [])


def test_compile_bound_reports_a_missing_attribute():
    """Binding errors propagate: they name the reference and the schema."""
    from repro.common.errors import AnalysisError

    ghost = E.Attribute("ghost", LongType)
    with pytest.raises(AnalysisError, match="cannot bind ghost.*available.*a#"):
        C.compile_bound(E.Comparison(">", ghost, E.Literal(1, LongType)), ATTRS)


def test_aggregate_column_folds_match_row_updates():
    """The global-agg column folds replay update() exactly, NULLs included."""
    from repro.sql.physical import HashAggregateExec

    rng = random.Random(11)
    col = [None if rng.random() < 0.3 else round(rng.uniform(-5, 5), 3)
           for _ in range(200)]
    ref = E.BoundReference(0, DoubleType)
    for agg in (E.Count(ref), E.Count(None), E.Sum(ref), E.Avg(ref),
                E.Min(ref), E.Max(ref)):
        fold = HashAggregateExec._column_fold(agg)
        assert fold is not None
        acc_row = agg.init_acc()
        for v in col:
            acc_row = agg.update(acc_row, (v,))
        acc_fold = fold(agg.init_acc(), col, len(col))
        assert acc_fold == acc_row
        assert agg.finish(acc_fold) == agg.finish(acc_row)


def test_distinct_aggregates_have_no_fold():
    from repro.sql.physical import HashAggregateExec

    ref = E.BoundReference(0, LongType)
    assert HashAggregateExec._column_fold(
        E.Count(ref, distinct=True)) is None


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
