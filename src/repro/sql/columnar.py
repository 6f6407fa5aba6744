"""Columnar batches and vectorized expression kernels.

A row-at-a-time interpreter walks a bound expression tree once per row --
for a 100k-row scan with a three-conjunct filter that is ~a million Python
frame pushes.  Batch execution amortises the dispatch: rows are packed
into :class:`RecordBatch` column vectors (:data:`BATCH_SIZE` rows per
batch) and :func:`compile_kernel` turns a bound expression tree into a
closure evaluating one *column* per call, with the inner loops running as
list comprehensions over C-level iterators (``zip``, ``operator.lt``,
``itertools.compress``).

Semantics are bit-for-bit those of :mod:`repro.sql.expressions`: SQL
three-valued NULL logic, ``/ 0 -> NULL``, ``IN`` with NULL options, invalid
casts to NULL.  The compiler is total: a node with no column form compiles
to a kernel that calls ``expr.eval`` once per row of the batch, so every
operator runs on batches whatever its expressions are.  Parity is enforced
by randomized kernel-vs-``eval`` tests
(``tests/sql/test_vectorized_kernels.py``).  See docs/vectorized.md.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, List, Sequence

from repro.sql import expressions as E
from repro.sql.types import BooleanType, StringType

#: a compiled kernel: (columns, num_rows) -> one output column
Kernel = Callable[[Sequence[list], int], list]

#: rows per RecordBatch at scan and row->batch transition boundaries; read
#: when an operator executes, so tests shrink it to force batch seams
BATCH_SIZE = 1024


class RecordBatch:
    """A batch of rows in columnar layout: one list per output attribute.

    ``columns[i][r]`` is row ``r``'s value for attribute ``i``.  Zero-width
    batches (e.g. the input of a bare ``COUNT(*)``) keep only ``num_rows``.
    """

    __slots__ = ("columns", "num_rows")

    def __init__(self, columns: Sequence[list], num_rows: int) -> None:
        self.columns = list(columns)
        self.num_rows = num_rows

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "RecordBatch":
        """Transpose row tuples into column vectors (C-speed ``zip``)."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        if width == 0:
            return cls([], len(rows))
        return cls(list(zip(*rows)), len(rows))

    def to_rows(self) -> Iterator[tuple]:
        """Transpose back to row tuples (C-speed ``zip``)."""
        if not self.columns:
            return iter([()] * self.num_rows)
        return zip(*self.columns)

    def __len__(self) -> int:
        return self.num_rows


def batches_from_rows(rows: Iterable[tuple], width: int,
                      batch_size: int) -> Iterator[RecordBatch]:
    """Slice a row stream into :class:`RecordBatch` chunks of ``batch_size``."""
    it = iter(rows)
    while True:
        chunk = list(itertools.islice(it, batch_size))
        if not chunk:
            return
        yield RecordBatch.from_rows(chunk, width)


def apply_mask(batch: RecordBatch, mask: Sequence[object]) -> RecordBatch:
    """Keep the rows whose mask entry is exactly ``True``.

    Predicate kernels produce only ``True``/``False``/``None``; of those
    only ``True`` is truthy, so :func:`itertools.compress` implements the
    SQL keep-on-True rule directly.
    """
    if not batch.columns:
        return RecordBatch([], sum(1 for m in mask if m is True))
    columns = [list(itertools.compress(col, mask)) for col in batch.columns]
    return RecordBatch(columns, len(columns[0]))


# -- the kernel compiler ------------------------------------------------------

_CMP_FNS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITH_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _binary_null_propagating(fn, left: Kernel, right: Kernel) -> Kernel:
    def kernel(cols: Sequence[list], n: int) -> list:
        return [None if a is None or b is None else fn(a, b)
                for a, b in zip(left(cols, n), right(cols, n))]

    return kernel


def _compile_division(op: str, left: Kernel, right: Kernel) -> Kernel:
    fn = operator.truediv if op == "/" else operator.mod

    def kernel(cols: Sequence[list], n: int) -> list:
        return [None if a is None or b is None else
                (fn(a, b) if b != 0 else None)
                for a, b in zip(left(cols, n), right(cols, n))]

    return kernel


def _compile_in(expr: E.In, value: Kernel) -> Kernel:
    # literal option lists only: the interpreter's linear ``==`` probe and a
    # set membership test agree for hashable scalar literals
    present = {o.value for o in expr.options if o.value is not None}
    saw_null = any(o.value is None for o in expr.options)
    miss = None if saw_null else False

    def kernel(cols: Sequence[list], n: int) -> list:
        return [None if v is None else (True if v in present else miss)
                for v in value(cols, n)]

    return kernel


def _compile_case(expr: E.CaseWhen) -> Kernel:
    branch_fns = [(compile_kernel(cond), compile_kernel(value))
                  for cond, value in expr.branches()]
    tail = expr.else_value()
    else_fn = compile_kernel(tail) if tail is not None else None

    def kernel(cols: Sequence[list], n: int) -> list:
        out = list(else_fn(cols, n)) if else_fn is not None else [None] * n
        # apply branches last-to-first so the first matching WHEN wins
        for cond_fn, value_fn in reversed(branch_fns):
            out = [v if c is True else o
                   for c, v, o in zip(cond_fn(cols, n), value_fn(cols, n), out)]
        return out

    return kernel


def _compile_cast(expr: E.Cast, child: Kernel) -> Kernel:
    dtype = expr.dtype
    if dtype is BooleanType:
        convert: Callable = bool
    elif dtype is StringType:
        convert = str
    elif dtype.python_type is int:
        convert = int
    elif dtype.python_type is float:
        convert = float
    else:
        convert = lambda v: v  # noqa: E731 - identity cast

    def cast_one(v: object) -> object:
        try:
            return convert(v)
        except (TypeError, ValueError):
            return None

    def kernel(cols: Sequence[list], n: int) -> list:
        return [None if v is None else cast_one(v) for v in child(cols, n)]

    return kernel


def _compile_row_fallback(expr: E.Expression) -> Kernel:
    """The kernel of a node with no column form: ``expr.eval`` per row."""
    evaluate = expr.eval

    def kernel(cols: Sequence[list], n: int) -> list:
        if not cols:
            return [evaluate(()) for _ in range(n)]
        return [evaluate(row) for row in zip(*cols)]

    return kernel


def compile_kernel(expr: E.Expression) -> Kernel:
    """Compile a *bound* expression into a column kernel.

    The compiled closure returns a fresh column whose element ``r`` equals
    ``expr.eval(row_r)`` for every row of the batch -- the parity contract
    the property tests pin down.  Nodes without a column form (a non-literal
    ``IN`` list, expression classes defined outside this module) fall back
    to evaluating ``expr.eval`` per row, so compilation never fails.
    """
    if isinstance(expr, E.Alias):
        return compile_kernel(expr.child)
    if isinstance(expr, E.BoundReference):
        ordinal = expr.ordinal

        return lambda cols, n: cols[ordinal]
    if isinstance(expr, E.Literal):
        value = expr.value

        return lambda cols, n: [value] * n
    if isinstance(expr, (E.Comparison, E.BinaryArithmetic)):
        left = compile_kernel(expr.children[0])
        right = compile_kernel(expr.children[1])
        if isinstance(expr, E.Comparison):
            return _binary_null_propagating(_CMP_FNS[expr.op], left, right)
        if expr.op in _ARITH_FNS:
            return _binary_null_propagating(_ARITH_FNS[expr.op], left, right)
        return _compile_division(expr.op, left, right)
    if isinstance(expr, E.And):
        left = compile_kernel(expr.children[0])
        right = compile_kernel(expr.children[1])

        def and_kernel(cols: Sequence[list], n: int) -> list:
            return [False if a is False or b is False else
                    (None if a is None or b is None else True)
                    for a, b in zip(left(cols, n), right(cols, n))]

        return and_kernel
    if isinstance(expr, E.Or):
        left = compile_kernel(expr.children[0])
        right = compile_kernel(expr.children[1])

        def or_kernel(cols: Sequence[list], n: int) -> list:
            return [True if a is True or b is True else
                    (None if a is None or b is None else False)
                    for a, b in zip(left(cols, n), right(cols, n))]

        return or_kernel
    if isinstance(expr, E.Not):
        child = compile_kernel(expr.children[0])
        return lambda cols, n: [None if v is None else (not v)
                                for v in child(cols, n)]
    if isinstance(expr, E.IsNull):
        child = compile_kernel(expr.children[0])
        return lambda cols, n: [v is None for v in child(cols, n)]
    if isinstance(expr, E.IsNotNull):
        child = compile_kernel(expr.children[0])
        return lambda cols, n: [v is not None for v in child(cols, n)]
    if isinstance(expr, E.In) and all(
            isinstance(o, E.Literal) for o in expr.options):
        return _compile_in(expr, compile_kernel(expr.value))
    if isinstance(expr, E.Like):
        child = compile_kernel(expr.children[0])
        regex = expr._regex

        return lambda cols, n: [None if v is None else bool(regex.match(str(v)))
                                for v in child(cols, n)]
    if isinstance(expr, E.CaseWhen):
        return _compile_case(expr)
    if isinstance(expr, E.Cast):
        return _compile_cast(expr, compile_kernel(expr.children[0]))
    if isinstance(expr, E.ScalarFunction):
        args = [compile_kernel(c) for c in expr.children]
        fn, __ = E.ScalarFunction._FUNCTIONS[expr.name]
        if len(args) == 1:
            only = args[0]

            return lambda cols, n: [fn((v,)) for v in only(cols, n)]

        def fn_kernel(cols: Sequence[list], n: int) -> list:
            return [fn(vals) for vals in zip(*(a(cols, n) for a in args))]

        return fn_kernel
    return _compile_row_fallback(expr)


def compile_bound(expr: E.Expression, attrs: Sequence[E.Attribute]) -> Kernel:
    """Bind ``expr`` against ``attrs`` and compile it.

    A reference ``attrs`` does not provide is a planner bug: the
    ``AnalysisError`` from binding (it names the attribute and what the
    child offers) propagates instead of demoting the operator.
    """
    return compile_kernel(E.bind_expression(expr, attrs))


def key_tuples(key_kernels: Sequence[Kernel], cols: Sequence[list],
               n: int) -> Iterator[tuple]:
    """Row-order key tuples from per-key kernels (hash build/probe input)."""
    if not key_kernels:
        return iter(itertools.repeat((), n))
    return zip(*(k(cols, n) for k in key_kernels))


__all__: List[str] = [
    "BATCH_SIZE",
    "Kernel",
    "RecordBatch",
    "apply_mask",
    "batches_from_rows",
    "compile_bound",
    "compile_kernel",
    "key_tuples",
]
