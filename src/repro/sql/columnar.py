"""Columnar batches and the one expression compiler.

Batch execution amortises per-row dispatch: rows are packed into
:class:`RecordBatch` column vectors (:data:`BATCH_SIZE` rows per batch)
and :func:`compile_kernel` turns a bound expression tree into a closure
evaluating one *column* per call, each node's value function mapped over
its operands' columns by C-level ``map``.  :func:`compile_row` builds the
row form of the same tree from the same value functions, for what is
evaluated row by row (join residuals, sort keys, constant folding).

All semantics live in :meth:`repro.sql.expressions.Expression.value_fn`;
the compiler adds none, so the two forms agree by construction.  The
property tests (``tests/sql/test_vectorized_kernels.py``) hold both to
stdlib ``sqlite3`` as an outside referee.  See docs/vectorized.md.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, List, Sequence

from repro.sql import expressions as E

#: a compiled kernel: (columns, num_rows) -> one output column
Kernel = Callable[[Sequence[list], int], list]

#: rows per RecordBatch where batches are cut from rows (local scans, the
#: reduce side of an exchange); read when an operator executes, so tests
#: shrink it to force batch seams
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


def rows_from_batches(batches: Iterable[RecordBatch]) -> Iterator[tuple]:
    """The row tuples of a batch stream, in order (no Python frame per row)."""
    return itertools.chain.from_iterable(map(RecordBatch.to_rows, batches))


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


# -- the expression compiler --------------------------------------------------
#
# One compiler, two forms, both built from each node's ``value_fn``: only
# the leaves (``BoundReference``, ``Literal``) and ``Alias`` are special.

def compile_row(expr: E.Expression) -> Callable[[tuple], object]:
    """Compile a *bound* expression into a row closure ``row -> value``.

    Join residuals, sort keys, constant folding, ``VALUES`` and the
    coprocessor endpoint evaluate through this.
    """
    if isinstance(expr, E.Alias):
        return compile_row(expr.child)
    if isinstance(expr, E.BoundReference):
        return operator.itemgetter(expr.ordinal)
    if isinstance(expr, E.Literal):
        value = expr.value
        return lambda row: value
    fn = expr.value_fn()
    args = [compile_row(c) for c in expr.operands()]
    if len(args) == 1:
        only = args[0]
        return lambda row: fn(only(row))
    if len(args) == 2:
        left, right = args
        return lambda row: fn(left(row), right(row))
    return lambda row: fn(*[arg(row) for arg in args])


def compile_kernel(expr: E.Expression) -> Kernel:
    """Compile a *bound* expression into a column kernel.

    The closure returns a column whose element ``r`` is what
    :func:`compile_row` gives for row ``r``: the node's value function
    mapped over its operands' columns.
    """
    if isinstance(expr, E.Alias):
        return compile_kernel(expr.child)
    if isinstance(expr, E.BoundReference):
        ordinal = expr.ordinal
        return lambda cols, n: cols[ordinal]
    if isinstance(expr, E.Literal):
        value = expr.value
        return lambda cols, n: [value] * n
    fn = expr.value_fn()
    args = [compile_kernel(c) for c in expr.operands()]
    return lambda cols, n: list(map(fn, *[arg(cols, n) for arg in args]))


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
    "compile_row",
    "key_tuples",
    "rows_from_batches",
]
