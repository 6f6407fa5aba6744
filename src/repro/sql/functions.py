"""DataFrame expression builders (``pyspark.sql.functions`` equivalents)."""

from __future__ import annotations

from typing import Union

from repro.sql import expressions as E


class Column:
    """A user-facing expression wrapper with operator overloads."""

    def __init__(self, expr: E.Expression) -> None:
        self.expr = expr

    # -- comparisons -------------------------------------------------------
    def _cmp(self, op: str, other: object) -> "Column":
        return Column(E.Comparison(op, self.expr, _to_expr(other)))

    def __eq__(self, other: object) -> "Column":  # type: ignore[override]
        return self._cmp("=", other)

    def __ne__(self, other: object) -> "Column":  # type: ignore[override]
        return self._cmp("!=", other)

    def __lt__(self, other: object) -> "Column":
        return self._cmp("<", other)

    def __le__(self, other: object) -> "Column":
        return self._cmp("<=", other)

    def __gt__(self, other: object) -> "Column":
        return self._cmp(">", other)

    def __ge__(self, other: object) -> "Column":
        return self._cmp(">=", other)

    # -- arithmetic ---------------------------------------------------------
    def _arith(self, op: str, other: object, reverse: bool = False) -> "Column":
        left, right = self.expr, _to_expr(other)
        if reverse:
            left, right = right, left
        return Column(E.BinaryArithmetic(op, left, right))

    def __add__(self, other: object) -> "Column":
        return self._arith("+", other)

    def __radd__(self, other: object) -> "Column":
        return self._arith("+", other, reverse=True)

    def __sub__(self, other: object) -> "Column":
        return self._arith("-", other)

    def __rsub__(self, other: object) -> "Column":
        return self._arith("-", other, reverse=True)

    def __mul__(self, other: object) -> "Column":
        return self._arith("*", other)

    def __truediv__(self, other: object) -> "Column":
        return self._arith("/", other)

    def __mod__(self, other: object) -> "Column":
        return self._arith("%", other)

    # -- boolean -----------------------------------------------------------------
    def __and__(self, other: "Column") -> "Column":
        return Column(E.And(self.expr, _to_expr(other)))

    def __or__(self, other: "Column") -> "Column":
        return Column(E.Or(self.expr, _to_expr(other)))

    def __invert__(self) -> "Column":
        return Column(E.Not(self.expr))

    # -- misc ----------------------------------------------------------------------
    def alias(self, name: str) -> "Column":
        return Column(E.Alias(self.expr, name))

    def isin(self, *values: object) -> "Column":
        flat = values[0] if len(values) == 1 and isinstance(values[0], (list, tuple)) \
            else values
        return Column(E.In(self.expr, [_to_expr(v) for v in flat]))

    def like(self, pattern: str) -> "Column":
        return Column(E.Like(self.expr, pattern))

    def between(self, low: object, high: object) -> "Column":
        return Column(
            E.And(
                E.Comparison(">=", self.expr, _to_expr(low)),
                E.Comparison("<=", self.expr, _to_expr(high)),
            )
        )

    def asc(self) -> "Column":
        return self  # default ordering; order_by interprets desc() wrappers

    def desc(self) -> "Column":
        column = Column(self.expr)
        column._descending = True  # type: ignore[attr-defined]
        return column

    def __hash__(self) -> int:
        return id(self.expr)

    def __repr__(self) -> str:
        return f"Column({self.expr!r})"


def _to_expr(value: object) -> E.Expression:
    if isinstance(value, Column):
        return value.expr
    if isinstance(value, E.Expression):
        return value
    return E.lit_of(value)


def col(name: str) -> Column:
    """Reference a column; ``"t.x"`` resolves against qualifier ``t``."""
    if "." in name:
        qualifier, __, column_name = name.partition(".")
        return Column(E.UnresolvedAttribute(column_name, qualifier))
    return Column(E.UnresolvedAttribute(name))


def lit(value: object) -> Column:
    """A literal column."""
    return Column(E.lit_of(value))


def count(column: Union[str, Column, None] = None, distinct: bool = False) -> Column:
    """COUNT(*) / COUNT(col) / COUNT(DISTINCT col)."""
    if column is None or (isinstance(column, str) and column == "*"):
        return Column(E.Count(None))
    return Column(E.Count(_to_expr(col(column) if isinstance(column, str) else column),
                          distinct))


def sum_(column: Union[str, Column]) -> Column:
    """SUM aggregate."""
    return Column(E.Sum(_as_expr(column)))


def avg(column: Union[str, Column]) -> Column:
    """AVG aggregate."""
    return Column(E.Avg(_as_expr(column)))


def min_(column: Union[str, Column]) -> Column:
    """MIN aggregate."""
    return Column(E.Min(_as_expr(column)))


def max_(column: Union[str, Column]) -> Column:
    """MAX aggregate."""
    return Column(E.Max(_as_expr(column)))


def stddev(column: Union[str, Column]) -> Column:
    """Sample standard deviation aggregate."""
    return Column(E.StddevSamp(_as_expr(column)))


def expr(text: str) -> Column:
    """Parse an expression string into a Column (``expr("k + 1 as k2")``)."""
    from repro.sql.parser import parse_named_expression

    return Column(parse_named_expression(text))


def when(condition: Column, value: object) -> "CaseBuilder":
    """Start a CASE WHEN chain."""
    return CaseBuilder([(condition.expr, _to_expr(value))])


class CaseBuilder:
    """Fluent CASE WHEN builder: ``when(c, v).when(...).otherwise(d)``."""

    def __init__(self, branches) -> None:
        self._branches = branches

    def when(self, condition: Column, value: object) -> "CaseBuilder":
        return CaseBuilder(self._branches + [(condition.expr, _to_expr(value))])

    def otherwise(self, value: object) -> Column:
        return Column(E.CaseWhen(self._branches, _to_expr(value)))

    def end(self) -> Column:
        return Column(E.CaseWhen(self._branches, None))


def _as_expr(column: Union[str, Column]) -> E.Expression:
    if isinstance(column, str):
        return col(column).expr
    return column.expr
