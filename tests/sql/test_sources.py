import operator

from hypothesis import given, strategies as st

from repro.common.errors import AnalysisError
import pytest

from repro.sql import expressions as E
from repro.sql import sources as S
from repro.sql.columnar import compile_row
from repro.sql.types import IntegerType, StringType


def attr(name="x", dtype=IntegerType):
    return E.Attribute(name, dtype)


def test_translate_comparisons():
    a = attr()
    assert S.translate_expression(
        E.Comparison("=", a, E.Literal(5, IntegerType))) == S.EqualTo("x", 5)
    assert S.translate_expression(
        E.Comparison(">", a, E.Literal(5, IntegerType))) == S.GreaterThan("x", 5)
    assert S.translate_expression(
        E.Comparison("<=", a, E.Literal(5, IntegerType))) == S.LessThanOrEqual("x", 5)


def test_translate_flipped_comparison():
    a = attr()
    # "5 < x" means "x > 5"
    flt = S.translate_expression(E.Comparison("<", E.Literal(5, IntegerType), a))
    assert flt == S.GreaterThan("x", 5)


def test_translate_not_equal_becomes_not_equalto():
    a = attr()
    flt = S.translate_expression(E.Comparison("!=", a, E.Literal(5, IntegerType)))
    assert flt == S.Not(S.EqualTo("x", 5))


def test_translate_in_and_nulls():
    a = attr()
    flt = S.translate_expression(
        E.In(a, [E.Literal(1, IntegerType), E.Literal(2, IntegerType)]))
    assert flt == S.In("x", (1, 2))
    assert S.translate_expression(E.IsNull(a)) == S.IsNull("x")
    assert S.translate_expression(E.IsNotNull(a)) == S.IsNotNull("x")


def test_translate_prefix_like_only():
    s = attr("s", StringType)
    assert S.translate_expression(E.Like(s, "ab%")) == S.StringStartsWith("s", "ab")
    assert S.translate_expression(E.Like(s, "%ab")) is None
    assert S.translate_expression(E.Like(s, "a_b%")) is None


def test_translate_and_or_require_both_sides():
    a, b = attr("a"), attr("b")
    good = E.And(E.Comparison("=", a, E.Literal(1, IntegerType)),
                 E.Comparison("=", b, E.Literal(2, IntegerType)))
    assert isinstance(S.translate_expression(good), S.And)
    bad = E.And(E.Comparison("=", a, E.Literal(1, IntegerType)),
                E.Comparison("=", a, b))  # column-to-column: untranslatable
    assert S.translate_expression(bad) is None


def test_translate_column_to_column_fails():
    assert S.translate_expression(E.Comparison("=", attr("a"), attr("b"))) is None


def test_translate_arithmetic_fails():
    a = attr()
    expr = E.Comparison(
        "=", E.BinaryArithmetic("+", a, E.Literal(1, IntegerType)),
        E.Literal(5, IntegerType))
    assert S.translate_expression(expr) is None


#: what each translated comparison filter asserts of a non-NULL value
HOLDS = {S.EqualTo: operator.eq, S.GreaterThan: operator.gt,
         S.GreaterThanOrEqual: operator.ge, S.LessThan: operator.lt,
         S.LessThanOrEqual: operator.le}


def holds(flt, value):
    if isinstance(flt, S.Not):
        return not holds(flt.child, value)
    return HOLDS[type(flt)](value, flt.value)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_translated_filter_agrees_with_expression(value, bound):
    a = attr()
    for op in ("=", "!=", "<", "<=", ">", ">="):
        expr = E.Comparison(op, a, E.Literal(bound, IntegerType))
        flt = S.translate_expression(expr)
        assert flt is not None
        row_fn = compile_row(E.bind_expression(expr, [a]))
        assert holds(flt, value) == row_fn((value,))


def test_references():
    flt = S.And(S.EqualTo("a", 1), S.Or(S.EqualTo("b", 2), S.IsNull("c")))
    assert set(flt.references()) == {"a", "b", "c"}


def test_provider_registry():
    with pytest.raises(AnalysisError):
        S.lookup_provider("no-such-format")
