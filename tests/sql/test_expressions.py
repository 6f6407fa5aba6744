import math

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import AnalysisError
from repro.sql import expressions as E
from repro.sql.columnar import compile_row
from repro.sql.types import BooleanType, DoubleType, IntegerType, LongType, StringType


def attr(name="x", dtype=IntegerType):
    return E.Attribute(name, dtype)


def bound(expr, attrs):
    return E.bind_expression(expr, attrs)


def value(expr, row=()):
    """``expr``'s value for ``row``, through the row closure."""
    return compile_row(expr)(row)


def test_literal_eval():
    assert value(E.Literal(5, IntegerType)) == 5


def test_lit_of_inference():
    assert E.lit_of(5).dtype is LongType
    assert E.lit_of(1.5).dtype is DoubleType
    assert E.lit_of("s").dtype is StringType
    assert E.lit_of(True).dtype is BooleanType
    with pytest.raises(AnalysisError):
        E.lit_of(object())


def test_comparison_null_propagation():
    a = attr()
    expr = bound(E.Comparison(">", a, E.Literal(5, IntegerType)), [a])
    assert value(expr, (10,)) is True
    assert value(expr, (3,)) is False
    assert value(expr, (None,)) is None


def test_arithmetic_and_division_by_zero():
    a = attr()
    expr = bound(E.BinaryArithmetic("/", a, E.Literal(0, IntegerType)), [a])
    assert value(expr, (10,)) is None  # SQL: x/0 -> NULL
    plus = bound(E.BinaryArithmetic("+", a, E.Literal(1, IntegerType)), [a])
    assert value(plus, (None,)) is None


def test_arithmetic_type_inference():
    a, b = attr("a", IntegerType), attr("b", DoubleType)
    assert E.BinaryArithmetic("+", a, b).data_type() is DoubleType
    assert E.BinaryArithmetic("+", a, attr("c")).data_type() is LongType
    assert E.BinaryArithmetic("/", a, attr("c")).data_type() is DoubleType
    with pytest.raises(AnalysisError):
        E.BinaryArithmetic("+", a, attr("s", StringType)).data_type()


def test_three_valued_and_or():
    t = E.Literal(True, BooleanType)
    f = E.Literal(False, BooleanType)
    n = E.Literal(None, BooleanType)
    assert value(E.And(t, n)) is None
    assert value(E.And(f, n)) is False
    assert value(E.Or(t, n)) is True
    assert value(E.Or(f, n)) is None
    assert value(E.Not(n)) is None


def test_in_with_null_semantics():
    a = attr()
    expr = bound(E.In(a, [E.Literal(1, IntegerType), E.Literal(2, IntegerType)]), [a])
    assert value(expr, (1,)) is True
    assert value(expr, (3,)) is False
    with_null = bound(
        E.In(a, [E.Literal(1, IntegerType), E.Literal(None, IntegerType)]), [a]
    )
    assert value(with_null, (1,)) is True
    assert value(with_null, (3,)) is None  # unknown because of the NULL option


def test_like_patterns():
    a = attr("s", StringType)
    assert value(bound(E.Like(a, "ab%"), [a]), ("abcd",)) is True
    assert value(bound(E.Like(a, "a_c"), [a]), ("abc",)) is True
    assert value(bound(E.Like(a, "a_c"), [a]), ("abbc",)) is False
    assert value(bound(E.Like(a, "%z"), [a]), (None,)) is None


def test_is_null_checks():
    a = attr()
    assert value(bound(E.IsNull(a), [a]), (None,)) is True
    assert value(bound(E.IsNotNull(a), [a]), (None,)) is False


def test_case_when():
    a = attr()
    expr = bound(
        E.CaseWhen(
            [(E.Comparison("=", a, E.Literal(0, IntegerType)),
              E.Literal("zero", StringType))],
            E.Literal("other", StringType),
        ),
        [a],
    )
    assert value(expr, (0,)) == "zero"
    assert value(expr, (5,)) == "other"
    no_else = bound(
        E.CaseWhen([(E.Comparison("=", a, E.Literal(0, IntegerType)),
                     E.Literal("zero", StringType))]),
        [a],
    )
    assert value(no_else, (5,)) is None


def test_cast():
    a = attr("s", StringType)
    assert value(bound(E.Cast(a, IntegerType), [a]), ("42",)) == 42
    assert value(bound(E.Cast(a, IntegerType), [a]), ("nope",)) is None
    assert value(bound(E.Cast(a, DoubleType), [a]), ("1.5",)) == 1.5


def test_scalar_functions():
    a = attr()
    assert value(bound(E.ScalarFunction("abs", [a]), [a]), (-5,)) == 5
    assert value(bound(E.ScalarFunction("sqrt", [a]), [a]), (9,)) == 3
    b = attr("s", StringType)
    assert value(bound(E.ScalarFunction("upper", [b]), [b]), ("ab",)) == "AB"
    with pytest.raises(AnalysisError):
        E.ScalarFunction("frobnicate", [a])


def test_binding_missing_attribute_fails():
    a, other = attr("a"), attr("b")
    with pytest.raises(AnalysisError):
        E.bind_expression(a, [other])


def test_split_and_combine_conjuncts():
    a, b, c = (E.Literal(x, BooleanType) for x in (True, False, True))
    combined = E.combine_conjuncts([a, b, c])
    assert E.split_conjuncts(combined) == [a, b, c]
    assert E.combine_conjuncts([]) is None


def test_comparison_negation():
    flipped = E.Comparison("<", attr(), E.Literal(1, IntegerType)).negated()
    assert flipped.op == ">="


@given(st.lists(st.one_of(st.integers(-1000, 1000), st.none()),
                min_size=0, max_size=50))
def test_aggregates_match_reference(values):
    a = attr()
    rows = [(v,) for v in values]
    non_null = [v for v in values if v is not None]

    def run(agg):
        arg = compile_row(bound(agg.child, [a])) if agg.child else lambda row: None
        acc = agg.init_acc()
        for row in rows:
            acc = agg.update(acc, arg(row))
        return agg.finish(acc)

    assert run(E.Count(a)) == len(non_null)
    assert run(E.Count(None)) == len(values)
    assert run(E.Sum(a)) == (sum(non_null) if non_null else None)
    assert run(E.Min(a)) == (min(non_null) if non_null else None)
    assert run(E.Max(a)) == (max(non_null) if non_null else None)
    avg = run(E.Avg(a))
    if non_null:
        assert avg == pytest.approx(sum(non_null) / len(non_null))
    else:
        assert avg is None


@given(st.lists(st.integers(-100, 100), min_size=2, max_size=40),
       st.integers(1, 39))
def test_stddev_merge_equals_sequential(values, split):
    import statistics

    a = attr()
    agg = E.StddevSamp(a)
    split = min(split, len(values) - 1)
    acc1, acc2 = agg.init_acc(), agg.init_acc()
    for v in values[:split]:
        acc1 = agg.update(acc1, v)
    for v in values[split:]:
        acc2 = agg.update(acc2, v)
    merged = agg.finish(agg.merge(acc1, acc2))
    assert merged == pytest.approx(statistics.stdev(values), abs=1e-9)


def test_count_distinct():
    a = attr()
    agg = E.Count(a, distinct=True)
    acc = agg.init_acc()
    for v in (1, 2, 2, 3, None, 1):
        acc = agg.update(acc, v)
    assert agg.finish(acc) == 3


def test_transform_rewrites_bottom_up():
    a = attr()
    expr = E.And(E.Comparison("=", a, E.Literal(1, IntegerType)),
                 E.Comparison("=", a, E.Literal(2, IntegerType)))
    seen = []
    expr.transform(lambda e: seen.append(type(e).__name__) or None)
    assert seen[-1] == "And"  # parent visited after children


def test_references_collects_attr_ids():
    a, b = attr("a"), attr("b")
    expr = E.And(E.IsNotNull(a), E.IsNotNull(b))
    assert expr.references() == {a.attr_id, b.attr_id}


@pytest.mark.parametrize("call,row,expected", [
    ("substring", ("hello", 2), "ello"),
    ("substring", ("hello", 2, 3), "ell"),
    ("trim", ("  x  ",), "x"),
    ("ltrim", ("  x ",), "x "),
    ("rtrim", (" x  ",), " x"),
    ("replace", ("aXbX", "X", "-"), "a-b-"),
    ("instr", ("hello", "ll"), 3),
    ("instr", ("hello", "z"), 0),
    ("floor", (2.7,), 2),
    ("ceil", (2.1,), 3),
    ("power", (2, 10), 1024.0),
    ("greatest", (3, 9, 1), 9),
    ("least", (3, 9, 1), 1),
])
def test_extended_scalar_functions(call, row, expected):
    args = [E.Literal(v, E.lit_of(v).dtype if v is not None else IntegerType)
            for v in row]
    assert value(E.ScalarFunction(call, args)) == expected


def test_extended_scalar_functions_null_propagation():
    null = E.Literal(None, StringType)
    for name in ("substring", "trim", "replace", "floor"):
        fn = E.ScalarFunction(
            name,
            [null] + [E.Literal(1, IntegerType)] * (
                2 if name in ("substring", "replace") else 0
            ),
        )
        assert value(fn) is None


def test_if_function():
    expr = E.ScalarFunction("if", [
        E.Literal(True, BooleanType),
        E.Literal("yes", StringType),
        E.Literal("no", StringType),
    ])
    assert value(expr) == "yes"
