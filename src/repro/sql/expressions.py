"""Expression trees: the Catalyst-style core of the SQL layer.

Lifecycle: the parser emits trees containing :class:`UnresolvedAttribute`
leaves; the analyzer rewrites those into :class:`Attribute` leaves (unique
``attr_id`` per column, like Catalyst's ``exprId``); just before execution
:func:`bind_expression` turns attributes into positional
:class:`BoundReference` leaves, and :mod:`repro.sql.columnar` compiles the
bound tree into a row closure or a column kernel.

A node states its value once, in :meth:`Expression.value_fn`: a plain
function of its operands' values, not a tree walk.  Null semantics follow
SQL (Spark 2.1 where SQL leaves a choice): arithmetic and comparisons
propagate NULL, AND/OR use three-valued logic, and filters keep a row only
when the predicate evaluates to exactly True.  Every value function is
total -- what Spark answers with NULL or Infinity never raises.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
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

    def value_fn(self) -> Callable[..., object]:
        """This node's value as a function of its :meth:`operands`' values.

        The function holds all of the node's semantics; it never evaluates
        a child itself.  Leaves (``Literal``, ``BoundReference``) and
        ``Alias`` are the compiler's, and an unbound or aggregate node has
        no row value.
        """
        raise AnalysisError(f"{self!r} has no row value (unbound or aggregate)")

    def operands(self) -> Tuple["Expression", ...]:
        """The children whose values :meth:`value_fn` takes, in order."""
        return self.children

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


# -- leaves --------------------------------------------------------------------

class Literal(Expression):
    """A constant value with an explicit type."""

    def __init__(self, value: object, dtype: DataType) -> None:
        self.value = value
        self.dtype = dtype

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

def _binary(op: Callable[[object, object], object]) -> Callable[..., object]:
    """``op`` over two values, NULL when either is NULL."""
    return lambda a, b: None if a is None or b is None else op(a, b)


def _java_remainder(a, b):
    """Spark's ``%`` is Java's: it truncates, so the sign is the dividend's
    (``-7 % 3`` is -1); ``x % 0`` is NULL."""
    if b == 0:
        return None
    rest = abs(a) % abs(b)
    return -rest if a < 0 else rest


_ARITH_OPS: dict = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": _java_remainder,
}


class BinaryArithmetic(Expression):
    """``a (+|-|*|/|%) b`` with NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH_OPS:
            raise AnalysisError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.children = (left, right)

    def value_fn(self) -> Callable[..., object]:
        return _binary(_ARITH_OPS[self.op])

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
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class Comparison(Expression):
    """``a (=|!=|<|<=|>|>=) b`` with NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _CMP_OPS:
            raise AnalysisError(f"unknown comparison operator {op!r}")
        self.op = op
        self.children = (left, right)

    def value_fn(self) -> Callable[..., object]:
        return _binary(_CMP_OPS[self.op])

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

    def value_fn(self) -> Callable[..., object]:
        return lambda a, b: False if a is False or b is False else (
            None if a is None or b is None else True)

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

    def value_fn(self) -> Callable[..., object]:
        return lambda a, b: True if a is True or b is True else (
            None if a is None or b is None else False)

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

    def value_fn(self) -> Callable[..., object]:
        return lambda v: None if v is None else not v

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

    def _literal_options(self) -> bool:
        return all(isinstance(o, Literal) for o in self.options)

    def operands(self) -> Tuple[Expression, ...]:
        # a literal option list is folded into the value function's set
        return (self.value,) if self._literal_options() else self.children

    def value_fn(self) -> Callable[..., object]:
        if self._literal_options():
            values = [o.value for o in self.options]
            present = {v for v in values if v is not None}
            miss = None if None in values else False
            return lambda v: None if v is None else (True if v in present else miss)

        def in_list(needle, *options):
            if needle is None:
                return None
            if needle in options:
                return True
            return None if None in options else False

        return in_list

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

    def value_fn(self) -> Callable[..., object]:
        match = self._regex.match
        return lambda v: None if v is None else bool(match(str(v)))

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

    def value_fn(self) -> Callable[..., object]:
        return lambda v: v is None

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

    def value_fn(self) -> Callable[..., object]:
        return lambda v: v is not None

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

    def value_fn(self) -> Callable[..., object]:
        ends = 2 * self._num_branches
        has_else = self.else_value_present

        def case(*values):
            # (cond, value) pairs, then the ELSE value; the first TRUE wins
            for i in range(0, ends, 2):
                if values[i] is True:
                    return values[i + 1]
            return values[ends] if has_else else None

        return case

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


_BOOLEAN_STRINGS = {
    **dict.fromkeys(("t", "true", "y", "yes", "1"), True),
    **dict.fromkeys(("f", "false", "n", "no", "0"), False),
}


def _to_boolean(value: object) -> object:
    """Spark's string-to-boolean cast: anything but those words is NULL."""
    if isinstance(value, str):
        return _BOOLEAN_STRINGS.get(value.lower())
    return bool(value)


_CONVERSIONS = {bool: _to_boolean, str: str, int: int, float: float}


class Cast(Expression):
    """Type conversion; invalid casts yield NULL (Spark semantics)."""

    def __init__(self, child: Expression, dtype: DataType) -> None:
        self.children = (child,)
        self.dtype = dtype

    def value_fn(self) -> Callable[..., object]:
        convert = _CONVERSIONS.get(self.dtype.python_type)
        if convert is None:
            return lambda v: v

        def cast(v):
            if v is None:
                return None
            try:
                return convert(v)
            except (TypeError, ValueError, OverflowError):
                return None

        return cast

    def data_type(self) -> DataType:
        return self.dtype

    def with_new_children(self, children: Sequence[Expression]) -> "Cast":
        return Cast(children[0], self.dtype)

    def __repr__(self) -> str:
        return f"CAST({self.children[0]!r} AS {self.dtype})"


def _strict(fn: Callable[..., object]) -> Callable[..., object]:
    """``fn`` over its arguments, NULL when any of them is NULL."""
    return lambda *args: None if None in args else fn(*args)


def _round(x, scale=0):
    """Spark's ``round``: HALF_UP on the value as written, so ``round(2.5)``
    is 3.0 and ``round(1.005, 2)`` is 1.01 (a binary float would say 1.0)."""
    try:
        exact = Decimal(repr(x)).quantize(Decimal(1).scaleb(-int(scale)),
                                          rounding=ROUND_HALF_UP)
    except InvalidOperation:  # ±Infinity, or finer than the value's digits
        return x
    return type(x)(exact)


def _substring(s, pos, length=None):
    start = max(0, int(pos) - 1)  # 1-based like SQL SUBSTRING(s, pos, len)
    return s[start:] if length is None else s[start:start + int(length)]


def _to_long(fn: Callable[[float], int]) -> Callable[..., object]:
    """``floor``/``ceil`` as Spark's ``(long) Math.floor(x)``: NaN is 0 and
    ±Infinity saturates."""
    def apply(x):
        try:
            return fn(x)
        except ValueError:  # NaN
            return 0
        except OverflowError:  # ±Infinity
            return 2 ** 63 - 1 if x > 0 else -2 ** 63

    return _strict(apply)


def _power(base, exponent):
    """Java's ``Math.pow``: overflow is ±Infinity, not an error."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return -math.inf if base < 0 and exponent % 2 == 1 else math.inf
    except ValueError:  # 0 to a negative power, or a negative base to a fraction
        return math.inf if base == 0 else math.nan


class ScalarFunction(Expression):
    """Built-in scalar functions (abs, round, coalesce, ...): each is a value
    function of the arguments' values and a result type (``None``: the
    first argument's)."""

    _FUNCTIONS: dict = {
        "abs": (_strict(abs), None),
        "round": (_strict(_round), DoubleType),
        "sqrt": (_strict(lambda x: math.sqrt(x) if x >= 0 else None), DoubleType),
        "coalesce": (lambda *args: next((a for a in args if a is not None), None),
                     None),
        "lower": (_strict(str.lower), StringType),
        "upper": (_strict(str.upper), StringType),
        "length": (_strict(len), LongType),
        "concat": (_strict(lambda *args: "".join(map(str, args))), StringType),
        "substring": (_strict(_substring), StringType),
        "trim": (_strict(str.strip), StringType),
        "ltrim": (_strict(str.lstrip), StringType),
        "rtrim": (_strict(str.rstrip), StringType),
        "replace": (_strict(lambda s, old, new: s.replace(str(old), str(new))),
                    StringType),
        # 1-based position of needle in haystack; 0 when absent (SQL INSTR)
        "instr": (_strict(lambda s, needle: s.find(str(needle)) + 1), LongType),
        "floor": (_to_long(math.floor), LongType),
        "ceil": (_to_long(math.ceil), LongType),
        "power": (_strict(_power), DoubleType),
        "greatest": (_strict(lambda *args: max(args)), None),
        "least": (_strict(lambda *args: min(args)), None),
        "if": (lambda cond, yes, no: yes if cond is True else no, None),
    }

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        key = name.lower()
        if key not in self._FUNCTIONS:
            raise AnalysisError(f"unknown function {name!r}")
        self.name = key
        self.children = tuple(args)

    def value_fn(self) -> Callable[..., object]:
        return self._FUNCTIONS[self.name][0]

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
    """Base for aggregate functions with partial-aggregation support.

    The protocol never evaluates the argument: ``update`` takes its value
    for one row (``None`` for ``COUNT(*)``), which the caller computes.
    """

    def __init__(self, child: Optional[Expression], distinct: bool = False) -> None:
        self.children = (child,) if child is not None else ()
        self.distinct = distinct

    @property
    def child(self) -> Optional[Expression]:
        return self.children[0] if self.children else None

    # partial aggregation protocol
    def init_acc(self) -> object:
        raise NotImplementedError

    def update(self, acc: object, value: object) -> object:
        raise NotImplementedError

    def merge(self, acc1: object, acc2: object) -> object:
        raise NotImplementedError

    def finish(self, acc: object) -> object:
        raise NotImplementedError


class Count(AggregateExpression):
    """COUNT(*) / COUNT(expr) / COUNT(DISTINCT expr)."""

    def data_type(self) -> DataType:
        return LongType

    def init_acc(self) -> object:
        return set() if self.distinct else 0

    def update(self, acc: object, value: object) -> object:
        if value is None:
            return acc if self.children else acc + 1
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

    def update(self, acc: object, value: object) -> object:
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

    def update(self, acc: object, value: object) -> object:
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

    def update(self, acc: object, value: object) -> object:
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

    def update(self, acc: object, value: object) -> object:
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

    def update(self, acc: object, value: object) -> object:
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
