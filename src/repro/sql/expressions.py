"""Expression trees: the Catalyst-style core of the SQL layer.

Lifecycle: the parser emits trees containing :class:`UnresolvedAttribute`
leaves; the analyzer rewrites those into :class:`Attribute` leaves (unique
``attr_id`` per column, like Catalyst's ``exprId``); just before execution
:func:`bind_expression` turns attributes into positional
:class:`BoundReference` leaves so ``eval`` runs against plain tuples.

Null semantics follow SQL: arithmetic and comparisons propagate NULL,
AND/OR use three-valued logic, and filters keep a row only when the
predicate evaluates to exactly True.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AnalysisError
from repro.sql.types import (
    BooleanType,
    DataType,
    DoubleType,
    LongType,
    StringType,
    is_numeric,
)

_expr_ids = itertools.count(1)


def next_expr_id() -> int:
    """Allocate a fresh attribute/alias id (Catalyst's exprId)."""
    return next(_expr_ids)


class Expression:
    """Base class for all expressions."""

    children: Tuple["Expression", ...] = ()

    def eval(self, row: tuple) -> object:
        raise NotImplementedError(f"{type(self).__name__} must be bound before eval")

    def data_type(self) -> DataType:
        raise NotImplementedError

    def with_new_children(self, children: Sequence["Expression"]) -> "Expression":
        raise NotImplementedError

    # -- tree utilities -----------------------------------------------------
    def transform(self, fn: Callable[["Expression"], Optional["Expression"]]) -> "Expression":
        """Bottom-up rewrite: ``fn`` returns a replacement or None to keep."""
        new_children = [c.transform(fn) for c in self.children]
        node = self if all(a is b for a, b in zip(new_children, self.children)) \
            else self.with_new_children(new_children)
        replacement = fn(node)
        return replacement if replacement is not None else node

    def collect(self, predicate: Callable[["Expression"], bool]) -> List["Expression"]:
        found = [c2 for c in self.children for c2 in c.collect(predicate)]
        if predicate(self):
            found.append(self)
        return found

    def references(self) -> Set[int]:
        """attr_ids of every Attribute this expression reads."""
        refs: Set[int] = set()
        for node in self.collect(lambda e: isinstance(e, Attribute)):
            refs.add(node.attr_id)
        return refs

    def is_resolved(self) -> bool:
        return not self.collect(lambda e: isinstance(e, UnresolvedAttribute))


# -- leaves --------------------------------------------------------------------

class Literal(Expression):
    """A constant value with an explicit type."""

    def __init__(self, value: object, dtype: DataType) -> None:
        self.value = value
        self.dtype = dtype

    def eval(self, row: tuple) -> object:
        return self.value

    def data_type(self) -> DataType:
        return self.dtype

    def with_new_children(self, children: Sequence[Expression]) -> "Literal":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and (self.value, self.dtype) == (other.value, other.dtype)

    def __hash__(self) -> int:
        return hash((self.value, self.dtype))

    def __repr__(self) -> str:
        return repr(self.value)


class BindSlot(Literal):
    """A literal of the statement's text (token ``index``), as a parameter
    of the plan cache: to every rule a ``Literal``, but reading ``value`` is
    remembered.  A slot that reaches the optimized plan unread can be
    :meth:`bound` to another statement's value; one read or dropped decided
    something (docs/caching.md, "Plan cache")."""

    def __init__(self, index: int, dtype: DataType, value: object) -> None:
        self.index = index
        self.dtype = dtype
        self._value = value
        self.read = False

    @property
    def value(self) -> object:
        self.read = True
        return self._value

    def bound(self, values: Sequence[object]) -> Literal:
        return Literal(values[self.index], self.dtype)


def lit_of(value: object) -> Literal:
    """Infer a Literal from a Python value."""
    if value is None:
        return Literal(None, StringType)
    if isinstance(value, bool):
        return Literal(value, BooleanType)
    if isinstance(value, int):
        return Literal(value, LongType)
    if isinstance(value, float):
        return Literal(value, DoubleType)
    if isinstance(value, str):
        return Literal(value, StringType)
    if isinstance(value, bytes):
        from repro.sql.types import BinaryType

        return Literal(value, BinaryType)
    raise AnalysisError(f"cannot make a literal from {type(value).__name__}")


class UnresolvedAttribute(Expression):
    """A column name straight from the parser, possibly ``qualifier.name``."""

    def __init__(self, name: str, qualifier: Optional[str] = None) -> None:
        self.name = name
        self.qualifier = qualifier

    def with_new_children(self, children: Sequence[Expression]) -> "UnresolvedAttribute":
        return self

    def data_type(self) -> DataType:
        raise AnalysisError(f"unresolved attribute {self.display()}")

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __repr__(self) -> str:
        return f"?{self.display()}"


class Attribute(Expression):
    """A resolved column, identified by ``attr_id`` across the whole plan."""

    def __init__(self, name: str, dtype: DataType, attr_id: Optional[int] = None,
                 qualifier: Optional[str] = None) -> None:
        self.name = name
        self.dtype = dtype
        self.attr_id = attr_id if attr_id is not None else next_expr_id()
        self.qualifier = qualifier

    def data_type(self) -> DataType:
        return self.dtype

    def with_new_children(self, children: Sequence[Expression]) -> "Attribute":
        return self

    def with_qualifier(self, qualifier: str) -> "Attribute":
        return Attribute(self.name, self.dtype, self.attr_id, qualifier)

    def renewed(self) -> "Attribute":
        """Same name/type, fresh id (for self-join disambiguation)."""
        return Attribute(self.name, self.dtype, None, self.qualifier)

    def __repr__(self) -> str:
        prefix = f"{self.qualifier}." if self.qualifier else ""
        return f"{prefix}{self.name}#{self.attr_id}"


class BoundReference(Expression):
    """A positional column reference, ready for tuple evaluation."""

    def __init__(self, ordinal: int, dtype: DataType, name: str = "") -> None:
        self.ordinal = ordinal
        self.dtype = dtype
        self.name = name

    def eval(self, row: tuple) -> object:
        return row[self.ordinal]

    def data_type(self) -> DataType:
        return self.dtype

    def with_new_children(self, children: Sequence[Expression]) -> "BoundReference":
        return self

    def __repr__(self) -> str:
        return f"input[{self.ordinal}]"


class Alias(Expression):
    """Names the result of an expression; owns an attribute id."""

    def __init__(self, child: Expression, name: str, attr_id: Optional[int] = None) -> None:
        self.children = (child,)
        self.name = name
        self.attr_id = attr_id if attr_id is not None else next_expr_id()

    @property
    def child(self) -> Expression:
        return self.children[0]

    def eval(self, row: tuple) -> object:
        return self.child.eval(row)

    def data_type(self) -> DataType:
        return self.child.data_type()

    def with_new_children(self, children: Sequence[Expression]) -> "Alias":
        return Alias(children[0], self.name, self.attr_id)

    def to_attribute(self) -> Attribute:
        return Attribute(self.name, self.data_type(), self.attr_id)

    def __repr__(self) -> str:
        return f"{self.child!r} AS {self.name}"


class InSubquery(Expression):
    """``expr IN (SELECT ...)``: rewritten to a LEFT SEMI join by analysis."""

    def __init__(self, value: Expression, subquery) -> None:
        self.children = (value,)
        self.subquery = subquery  # an unresolved LogicalPlan

    @property
    def value(self) -> Expression:
        return self.children[0]

    def with_new_children(self, children: Sequence[Expression]) -> "InSubquery":
        return InSubquery(children[0], self.subquery)

    def __repr__(self) -> str:
        return f"({self.value!r} IN <subquery>)"


class Exists(Expression):
    """``EXISTS (SELECT ...)``: rewritten to a SEMI (or ANTI) join."""

    def __init__(self, subquery) -> None:
        self.subquery = subquery

    def with_new_children(self, children: Sequence[Expression]) -> "Exists":
        return self

    def __repr__(self) -> str:
        return "EXISTS <subquery>"


class SortOrdinal(Expression):
    """``ORDER BY 2``: a 1-based select-list position, resolved by analysis."""

    def __init__(self, position: int) -> None:
        if position < 1:
            raise AnalysisError("ORDER BY ordinals are 1-based")
        self.position = position

    def with_new_children(self, children: Sequence[Expression]) -> "SortOrdinal":
        return self

    def __repr__(self) -> str:
        return f"${self.position}"


class Star(Expression):
    """``SELECT *`` placeholder, expanded by the analyzer."""

    def __init__(self, qualifier: Optional[str] = None) -> None:
        self.qualifier = qualifier

    def with_new_children(self, children: Sequence[Expression]) -> "Star":
        return self

    def __repr__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


# -- arithmetic / comparison ---------------------------------------------------

_ARITH_OPS: dict = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
}


class BinaryArithmetic(Expression):
    """``a (+|-|*|/|%) b`` with NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH_OPS:
            raise AnalysisError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.children = (left, right)

    def eval(self, row: tuple) -> object:
        a = self.children[0].eval(row)
        b = self.children[1].eval(row)
        if a is None or b is None:
            return None
        return _ARITH_OPS[self.op](a, b)

    def data_type(self) -> DataType:
        left_t = self.children[0].data_type()
        right_t = self.children[1].data_type()
        if not (is_numeric(left_t) and is_numeric(right_t)):
            raise AnalysisError(f"arithmetic on non-numeric types {left_t}/{right_t}")
        if self.op == "/":
            return DoubleType
        if left_t.python_type is float or right_t.python_type is float:
            return DoubleType
        return LongType

    def with_new_children(self, children: Sequence[Expression]) -> "BinaryArithmetic":
        return BinaryArithmetic(self.op, children[0], children[1])

    def __repr__(self) -> str:
        return f"({self.children[0]!r} {self.op} {self.children[1]!r})"


_CMP_OPS: dict = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Expression):
    """``a (=|!=|<|<=|>|>=) b`` with NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _CMP_OPS:
            raise AnalysisError(f"unknown comparison operator {op!r}")
        self.op = op
        self.children = (left, right)

    def eval(self, row: tuple) -> object:
        a = self.children[0].eval(row)
        b = self.children[1].eval(row)
        if a is None or b is None:
            return None
        return _CMP_OPS[self.op](a, b)

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "Comparison":
        return Comparison(self.op, children[0], children[1])

    def negated(self) -> "Comparison":
        flip = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
        return Comparison(flip[self.op], *self.children)

    def __repr__(self) -> str:
        return f"({self.children[0]!r} {self.op} {self.children[1]!r})"


class And(Expression):
    """Three-valued logical AND."""

    def __init__(self, left: Expression, right: Expression) -> None:
        self.children = (left, right)

    def eval(self, row: tuple) -> object:
        a = self.children[0].eval(row)
        if a is False:
            return False
        b = self.children[1].eval(row)
        if b is False:
            return False
        if a is None or b is None:
            return None
        return True

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "And":
        return And(children[0], children[1])

    def __repr__(self) -> str:
        return f"({self.children[0]!r} AND {self.children[1]!r})"


class Or(Expression):
    """Three-valued logical OR."""

    def __init__(self, left: Expression, right: Expression) -> None:
        self.children = (left, right)

    def eval(self, row: tuple) -> object:
        a = self.children[0].eval(row)
        if a is True:
            return True
        b = self.children[1].eval(row)
        if b is True:
            return True
        if a is None or b is None:
            return None
        return False

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "Or":
        return Or(children[0], children[1])

    def __repr__(self) -> str:
        return f"({self.children[0]!r} OR {self.children[1]!r})"


class Not(Expression):
    """Logical negation (NULL stays NULL)."""

    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    def eval(self, row: tuple) -> object:
        value = self.children[0].eval(row)
        if value is None:
            return None
        return not value

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "Not":
        return Not(children[0])

    def __repr__(self) -> str:
        return f"(NOT {self.children[0]!r})"


class In(Expression):
    """``expr IN (v1, v2, ...)``; NULL if the needle is NULL."""

    def __init__(self, value: Expression, options: Sequence[Expression]) -> None:
        self.children = (value,) + tuple(options)

    @property
    def value(self) -> Expression:
        return self.children[0]

    @property
    def options(self) -> Tuple[Expression, ...]:
        return self.children[1:]

    def eval(self, row: tuple) -> object:
        needle = self.value.eval(row)
        if needle is None:
            return None
        saw_null = False
        for option in self.options:
            candidate = option.eval(row)
            if candidate is None:
                saw_null = True
            elif candidate == needle:
                return True
        return None if saw_null else False

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "In":
        return In(children[0], children[1:])

    def __repr__(self) -> str:
        opts = ", ".join(repr(o) for o in self.options)
        return f"({self.value!r} IN ({opts}))"


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    def __init__(self, value: Expression, pattern: str) -> None:
        self.children = (value,)
        self.pattern = pattern
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._regex = re.compile(f"^{regex}$", re.DOTALL)

    def eval(self, row: tuple) -> object:
        value = self.children[0].eval(row)
        if value is None:
            return None
        return bool(self._regex.match(str(value)))

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "Like":
        return Like(children[0], self.pattern)

    def __repr__(self) -> str:
        return f"({self.children[0]!r} LIKE {self.pattern!r})"


class IsNull(Expression):
    """SQL ``IS NULL``."""

    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    def eval(self, row: tuple) -> object:
        return self.children[0].eval(row) is None

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "IsNull":
        return IsNull(children[0])

    def __repr__(self) -> str:
        return f"({self.children[0]!r} IS NULL)"


class IsNotNull(Expression):
    """SQL ``IS NOT NULL``."""

    def __init__(self, child: Expression) -> None:
        self.children = (child,)

    def eval(self, row: tuple) -> object:
        return self.children[0].eval(row) is not None

    def data_type(self) -> DataType:
        return BooleanType

    def with_new_children(self, children: Sequence[Expression]) -> "IsNotNull":
        return IsNotNull(children[0])

    def __repr__(self) -> str:
        return f"({self.children[0]!r} IS NOT NULL)"


class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END``."""

    def __init__(self, branches: Sequence[Tuple[Expression, Expression]],
                 else_value: Optional[Expression] = None) -> None:
        flat: List[Expression] = []
        for cond, value in branches:
            flat.extend((cond, value))
        self._num_branches = len(branches)
        self.else_value_present = else_value is not None
        if else_value is not None:
            flat.append(else_value)
        self.children = tuple(flat)

    def branches(self) -> List[Tuple[Expression, Expression]]:
        return [
            (self.children[2 * i], self.children[2 * i + 1])
            for i in range(self._num_branches)
        ]

    def else_value(self) -> Optional[Expression]:
        return self.children[-1] if self.else_value_present else None

    def eval(self, row: tuple) -> object:
        for cond, value in self.branches():
            if cond.eval(row) is True:
                return value.eval(row)
        tail = self.else_value()
        return tail.eval(row) if tail is not None else None

    def data_type(self) -> DataType:
        return self.children[1].data_type()

    def with_new_children(self, children: Sequence[Expression]) -> "CaseWhen":
        n = self._num_branches
        branches = [(children[2 * i], children[2 * i + 1]) for i in range(n)]
        tail = children[-1] if self.else_value_present else None
        return CaseWhen(branches, tail)

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.branches())
        tail = f" ELSE {self.else_value()!r}" if self.else_value_present else ""
        return f"CASE {parts}{tail} END"


class Cast(Expression):
    """Type conversion; invalid casts yield NULL (Spark semantics)."""

    def __init__(self, child: Expression, dtype: DataType) -> None:
        self.children = (child,)
        self.dtype = dtype

    def eval(self, row: tuple) -> object:
        value = self.children[0].eval(row)
        if value is None:
            return None
        try:
            if self.dtype is BooleanType:
                return bool(value)
            if self.dtype is StringType:
                return str(value)
            if self.dtype.python_type is int:
                return int(value)
            if self.dtype.python_type is float:
                return float(value)
            return value
        except (TypeError, ValueError):
            return None

    def data_type(self) -> DataType:
        return self.dtype

    def with_new_children(self, children: Sequence[Expression]) -> "Cast":
        return Cast(children[0], self.dtype)

    def __repr__(self) -> str:
        return f"CAST({self.children[0]!r} AS {self.dtype})"


class ScalarFunction(Expression):
    """Built-in scalar functions (abs, round, coalesce, ...)."""

    _FUNCTIONS: dict = {
        "abs": (lambda args: abs(args[0]) if args[0] is not None else None, None),
        "round": (
            lambda args: round(args[0], int(args[1]) if len(args) > 1 else 0)
            if args[0] is not None else None,
            DoubleType,
        ),
        "sqrt": (
            lambda args: math.sqrt(args[0])
            if args[0] is not None and args[0] >= 0 else None,
            DoubleType,
        ),
        "coalesce": (
            lambda args: next((a for a in args if a is not None), None), None
        ),
        "lower": (lambda args: args[0].lower() if args[0] is not None else None, StringType),
        "upper": (lambda args: args[0].upper() if args[0] is not None else None, StringType),
        "length": (lambda args: len(args[0]) if args[0] is not None else None, LongType),
        "concat": (
            lambda args: "".join(str(a) for a in args)
            if all(a is not None for a in args) else None,
            StringType,
        ),
        # 1-based start like SQL SUBSTRING(s, pos, len)
        "substring": (
            lambda args: None if args[0] is None else (
                args[0][max(0, int(args[1]) - 1):]
                if len(args) < 3
                else args[0][max(0, int(args[1]) - 1):
                             max(0, int(args[1]) - 1) + int(args[2])]
            ),
            StringType,
        ),
        "trim": (lambda args: args[0].strip() if args[0] is not None else None,
                 StringType),
        "ltrim": (lambda args: args[0].lstrip() if args[0] is not None else None,
                  StringType),
        "rtrim": (lambda args: args[0].rstrip() if args[0] is not None else None,
                  StringType),
        "replace": (
            lambda args: args[0].replace(str(args[1]), str(args[2]))
            if all(a is not None for a in args) else None,
            StringType,
        ),
        # 1-based position of needle in haystack; 0 when absent (SQL INSTR)
        "instr": (
            lambda args: None if args[0] is None or args[1] is None
            else args[0].find(str(args[1])) + 1,
            LongType,
        ),
        "floor": (
            lambda args: None if args[0] is None else math.floor(args[0]),
            LongType,
        ),
        "ceil": (
            lambda args: None if args[0] is None else math.ceil(args[0]),
            LongType,
        ),
        "power": (
            lambda args: None if args[0] is None or args[1] is None
            else float(args[0]) ** float(args[1]),
            DoubleType,
        ),
        "greatest": (
            lambda args: None if any(a is None for a in args) else max(args),
            None,
        ),
        "least": (
            lambda args: None if any(a is None for a in args) else min(args),
            None,
        ),
        "if": (
            lambda args: args[1] if args[0] is True else args[2],
            None,
        ),
    }

    @classmethod
    def is_known(cls, name: str) -> bool:
        return name.lower() in cls._FUNCTIONS

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        key = name.lower()
        if key not in self._FUNCTIONS:
            raise AnalysisError(f"unknown function {name!r}")
        self.name = key
        self.children = tuple(args)

    def eval(self, row: tuple) -> object:
        fn, __ = self._FUNCTIONS[self.name]
        return fn([c.eval(row) for c in self.children])

    def data_type(self) -> DataType:
        __, dtype = self._FUNCTIONS[self.name]
        return dtype if dtype is not None else self.children[0].data_type()

    def with_new_children(self, children: Sequence[Expression]) -> "ScalarFunction":
        return ScalarFunction(self.name, children)

    def __repr__(self) -> str:
        args = ", ".join(repr(c) for c in self.children)
        return f"{self.name}({args})"


# -- aggregates -------------------------------------------------------------------

class AggregateExpression(Expression):
    """Base for aggregate functions with partial-aggregation support."""

    def __init__(self, child: Optional[Expression], distinct: bool = False) -> None:
        self.children = (child,) if child is not None else ()
        self.distinct = distinct

    @property
    def child(self) -> Optional[Expression]:
        return self.children[0] if self.children else None

    # partial aggregation protocol
    def init_acc(self) -> object:
        raise NotImplementedError

    def update(self, acc: object, row: tuple) -> object:
        raise NotImplementedError

    def merge(self, acc1: object, acc2: object) -> object:
        raise NotImplementedError

    def finish(self, acc: object) -> object:
        raise NotImplementedError

    def eval(self, row: tuple) -> object:
        raise AnalysisError("aggregate expressions cannot be row-evaluated")

    def _arg(self, row: tuple) -> object:
        return self.child.eval(row) if self.child is not None else None


class Count(AggregateExpression):
    """COUNT(*) / COUNT(expr) / COUNT(DISTINCT expr)."""

    def data_type(self) -> DataType:
        return LongType

    def init_acc(self) -> object:
        return set() if self.distinct else 0

    def update(self, acc: object, row: tuple) -> object:
        if self.child is None:
            return acc + 1
        value = self._arg(row)
        if value is None:
            return acc
        if self.distinct:
            acc.add(value)
            return acc
        return acc + 1

    def merge(self, acc1: object, acc2: object) -> object:
        if self.distinct:
            return acc1 | acc2
        return acc1 + acc2

    def finish(self, acc: object) -> object:
        return len(acc) if self.distinct else acc

    def with_new_children(self, children: Sequence[Expression]) -> "Count":
        return Count(children[0] if children else None, self.distinct)

    def __repr__(self) -> str:
        inner = "*" if self.child is None else repr(self.child)
        prefix = "DISTINCT " if self.distinct else ""
        return f"count({prefix}{inner})"


class Sum(AggregateExpression):
    """SUM (NULLs ignored; empty input yields NULL)."""

    def data_type(self) -> DataType:
        return self.child.data_type() if self.child.data_type() is DoubleType else LongType

    def init_acc(self) -> object:
        return None

    def update(self, acc: object, row: tuple) -> object:
        value = self._arg(row)
        if value is None:
            return acc
        return value if acc is None else acc + value

    def merge(self, acc1: object, acc2: object) -> object:
        if acc1 is None:
            return acc2
        if acc2 is None:
            return acc1
        return acc1 + acc2

    def finish(self, acc: object) -> object:
        return acc

    def with_new_children(self, children: Sequence[Expression]) -> "Sum":
        return Sum(children[0], self.distinct)

    def __repr__(self) -> str:
        return f"sum({self.child!r})"


class Avg(AggregateExpression):
    """AVG as a (sum, count) accumulator."""

    def data_type(self) -> DataType:
        return DoubleType

    def init_acc(self) -> object:
        return (0.0, 0)

    def update(self, acc: object, row: tuple) -> object:
        value = self._arg(row)
        if value is None:
            return acc
        total, count = acc
        return (total + value, count + 1)

    def merge(self, acc1: object, acc2: object) -> object:
        return (acc1[0] + acc2[0], acc1[1] + acc2[1])

    def finish(self, acc: object) -> object:
        total, count = acc
        return total / count if count else None

    def with_new_children(self, children: Sequence[Expression]) -> "Avg":
        return Avg(children[0], self.distinct)

    def __repr__(self) -> str:
        return f"avg({self.child!r})"


class Min(AggregateExpression):
    """MIN (NULLs ignored)."""

    def data_type(self) -> DataType:
        return self.child.data_type()

    def init_acc(self) -> object:
        return None

    def update(self, acc: object, row: tuple) -> object:
        value = self._arg(row)
        if value is None:
            return acc
        return value if acc is None or value < acc else acc

    def merge(self, acc1: object, acc2: object) -> object:
        if acc1 is None:
            return acc2
        if acc2 is None:
            return acc1
        return min(acc1, acc2)

    def finish(self, acc: object) -> object:
        return acc

    def with_new_children(self, children: Sequence[Expression]) -> "Min":
        return Min(children[0], self.distinct)

    def __repr__(self) -> str:
        return f"min({self.child!r})"


class Max(AggregateExpression):
    """MAX (NULLs ignored)."""

    def data_type(self) -> DataType:
        return self.child.data_type()

    def init_acc(self) -> object:
        return None

    def update(self, acc: object, row: tuple) -> object:
        value = self._arg(row)
        if value is None:
            return acc
        return value if acc is None or value > acc else acc

    def merge(self, acc1: object, acc2: object) -> object:
        if acc1 is None:
            return acc2
        if acc2 is None:
            return acc1
        return max(acc1, acc2)

    def finish(self, acc: object) -> object:
        return acc

    def with_new_children(self, children: Sequence[Expression]) -> "Max":
        return Max(children[0], self.distinct)

    def __repr__(self) -> str:
        return f"max({self.child!r})"


class StddevSamp(AggregateExpression):
    """Sample standard deviation, merged with Chan's parallel formula."""

    def data_type(self) -> DataType:
        return DoubleType

    def init_acc(self) -> object:
        return (0, 0.0, 0.0)  # count, mean, M2

    def update(self, acc: object, row: tuple) -> object:
        value = self._arg(row)
        if value is None:
            return acc
        count, mean, m2 = acc
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        return (count, mean, m2)

    def merge(self, acc1: object, acc2: object) -> object:
        n1, mean1, m2_1 = acc1
        n2, mean2, m2_2 = acc2
        if n1 == 0:
            return acc2
        if n2 == 0:
            return acc1
        n = n1 + n2
        delta = mean2 - mean1
        mean = mean1 + delta * n2 / n
        m2 = m2_1 + m2_2 + delta * delta * n1 * n2 / n
        return (n, mean, m2)

    def finish(self, acc: object) -> object:
        count, __, m2 = acc
        if count < 2:
            return None
        return math.sqrt(m2 / (count - 1))

    def with_new_children(self, children: Sequence[Expression]) -> "StddevSamp":
        return StddevSamp(children[0], self.distinct)

    def __repr__(self) -> str:
        return f"stddev_samp({self.child!r})"


AGGREGATE_BUILDERS = {
    "count": Count,
    "sum": Sum,
    "avg": Avg,
    "mean": Avg,
    "min": Min,
    "max": Max,
    "stddev": StddevSamp,
    "stddev_samp": StddevSamp,
}


def same_expression(a: Expression, b: Expression) -> bool:
    """Structural equality: attributes by id, literals by value, ops by kind.

    Used to recognise that a select item like ``k % 2`` *is* the grouping
    expression ``k % 2`` even though they are distinct tree objects.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Attribute):
        return a.attr_id == b.attr_id
    if isinstance(a, Literal):
        return a.value == b.value and a.dtype == b.dtype
    if isinstance(a, BoundReference):
        return a.ordinal == b.ordinal
    if isinstance(a, (BinaryArithmetic, Comparison)):
        if a.op != b.op:
            return False
    if isinstance(a, Like) and a.pattern != b.pattern:
        return False
    if isinstance(a, Cast) and a.dtype != b.dtype:
        return False
    if isinstance(a, ScalarFunction) and a.name != b.name:
        return False
    if isinstance(a, Alias):
        return same_expression(a.child, b.child)
    if len(a.children) != len(b.children):
        return False
    return all(same_expression(x, y) for x, y in zip(a.children, b.children))


def contains_aggregate(expr: Expression) -> bool:
    """Does the tree contain any aggregate function call?"""
    return bool(expr.collect(lambda e: isinstance(e, AggregateExpression)))


# -- binding -------------------------------------------------------------------

def bind_expression(expr: Expression, input_attrs: Sequence[Attribute]) -> Expression:
    """Replace Attribute leaves with positional BoundReferences."""
    index = {attr.attr_id: i for i, attr in enumerate(input_attrs)}

    def rewrite(node: Expression) -> Optional[Expression]:
        if isinstance(node, Attribute):
            ordinal = index.get(node.attr_id)
            if ordinal is None:
                raise AnalysisError(
                    f"cannot bind {node!r}; available: {list(input_attrs)!r}"
                )
            return BoundReference(ordinal, node.dtype, node.name)
        return None

    return expr.transform(rewrite)


def split_conjuncts(expr: Expression) -> List[Expression]:
    """Flatten nested ANDs into a conjunct list."""
    if isinstance(expr, And):
        return split_conjuncts(expr.children[0]) + split_conjuncts(expr.children[1])
    return [expr]


def combine_conjuncts(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild an AND tree (None for an empty list)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else And(result, conjunct)
    return result
