"""Server-side filters evaluated inside Region Servers.

SHC's predicate pushdown (section VI.A.3) works by compiling Spark SQL source
filters into instances of these classes and attaching them to ``Scan``
requests; the Region Server then drops non-matching rows *before* anything
crosses the network.  The hierarchy mirrors the HBase filters SHC actually
uses: row-key comparisons, single-column value comparisons, prefix filters,
and AND/OR filter lists.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, List, Sequence

from repro.hbase.cell import Cell

#: what a compiled filter is: ``keep(row, cells) -> bool``
Predicate = Callable[[bytes, Sequence[Cell]], bool]


class CompareOp(enum.Enum):
    """Byte-wise comparison operators (HBase ``CompareFilter.CompareOp``)."""

    LESS = "<"
    LESS_OR_EQUAL = "<="
    EQUAL = "="
    NOT_EQUAL = "!="
    GREATER_OR_EQUAL = ">="
    GREATER = ">"

    @property
    def function(self) -> Callable[[bytes, bytes], bool]:
        """The operator as a plain two-argument function (``operator.lt``
        for ``LESS``, ...): what :meth:`evaluate` and compiled filters call."""
        return _COMPARISONS[self]

    def evaluate(self, lhs: bytes, rhs: bytes) -> bool:
        """Apply the operator to two byte strings (lexicographic order)."""
        return _COMPARISONS[self](lhs, rhs)


#: the six comparisons, defined once
_COMPARISONS = {
    CompareOp.LESS: operator.lt,
    CompareOp.LESS_OR_EQUAL: operator.le,
    CompareOp.EQUAL: operator.eq,
    CompareOp.NOT_EQUAL: operator.ne,
    CompareOp.GREATER_OR_EQUAL: operator.ge,
    CompareOp.GREATER: operator.gt,
}


class Filter:
    """Base class: decides whether a fully-assembled row survives the scan.

    :meth:`filter_row` is the reference: the rule, one row at a time, on
    this object.  A scan runs :meth:`compile` instead -- once per scan (per
    Get, per client-side fallback), then once per row -- so what a filter
    can bind (its column, comparator and operator) is looked up once, and
    whatever state a filter kept would live in the closure and start afresh
    with each scan.  ``compile()`` on a fresh filter keeps exactly the rows
    ``filter_row`` keeps, and raises on the same row.
    """

    def filter_row(self, row: bytes, cells: Sequence[Cell]) -> bool:
        """Return True to keep the row, False to drop it."""
        raise NotImplementedError

    def compile(self) -> Predicate:
        """One ``keep(row, cells)`` closure for one scan; by default the
        bound :meth:`filter_row`."""
        return self.filter_row

    def cells_evaluated(self) -> int:
        """How many cell comparisons one row costs (for the cost model)."""
        return 1


class RowFilter(Filter):
    """Compare the row key itself against a constant."""

    def __init__(self, op: CompareOp, comparator: bytes) -> None:
        self.op = op
        self.comparator = comparator

    def filter_row(self, row: bytes, cells: Sequence[Cell]) -> bool:
        return self.op.evaluate(row, self.comparator)

    def compile(self) -> Predicate:
        compare, comparator = self.op.function, self.comparator
        return lambda row, cells: compare(row, comparator)

    def __repr__(self) -> str:
        return f"RowFilter(row {self.op.value} {self.comparator!r})"


class PrefixFilter(Filter):
    """Keep rows whose key starts with ``prefix``."""

    def __init__(self, prefix: bytes) -> None:
        self.prefix = prefix

    def filter_row(self, row: bytes, cells: Sequence[Cell]) -> bool:
        return row.startswith(self.prefix)

    def __repr__(self) -> str:
        return f"PrefixFilter({self.prefix!r})"


class SingleColumnValueFilter(Filter):
    """Compare one column's latest value against a constant.

    ``filter_if_missing`` matches HBase semantics: when False (the default), a
    row that lacks the column passes the filter.  SHC sets it True because the
    relational model treats a missing column as NULL, and NULL never satisfies
    a comparison predicate.
    """

    def __init__(
        self,
        family: str,
        qualifier: str,
        op: CompareOp,
        comparator: bytes,
        filter_if_missing: bool = True,
    ) -> None:
        self.family = family
        self.qualifier = qualifier
        self.op = op
        self.comparator = comparator
        self.filter_if_missing = filter_if_missing

    def filter_row(self, row: bytes, cells: Sequence[Cell]) -> bool:
        for cell in cells:
            if cell.family == self.family and cell.qualifier == self.qualifier:
                return self.op.evaluate(cell.value, self.comparator)
        return not self.filter_if_missing

    def compile(self) -> Predicate:
        family, qualifier = self.family, self.qualifier
        compare, comparator = self.op.function, self.comparator
        missing = not self.filter_if_missing

        def keep(row: bytes, cells: Sequence[Cell]) -> bool:
            for cell in cells:
                if cell.family == family and cell.qualifier == qualifier:
                    return compare(cell.value, comparator)
            return missing

        return keep

    def __repr__(self) -> str:
        return (
            f"SingleColumnValueFilter({self.family}:{self.qualifier} "
            f"{self.op.value} {self.comparator!r})"
        )


class FilterListOp(enum.Enum):
    """Combination mode of a :class:`FilterList` (AND vs OR)."""

    MUST_PASS_ALL = "AND"
    MUST_PASS_ONE = "OR"


class FilterList(Filter):
    """Boolean combination of child filters (AND / OR)."""

    def __init__(self, operator: FilterListOp, filters: Sequence[Filter]) -> None:
        self.operator = operator
        self.filters: List[Filter] = list(filters)

    def filter_row(self, row: bytes, cells: Sequence[Cell]) -> bool:
        if self.operator is FilterListOp.MUST_PASS_ALL:
            return all(f.filter_row(row, cells) for f in self.filters)
        return any(f.filter_row(row, cells) for f in self.filters)

    def compile(self) -> Predicate:
        """The children compiled, tried in order until one decides (as
        ``all`` / ``any`` stop)."""
        children = [f.compile() for f in self.filters]
        if self.operator is FilterListOp.MUST_PASS_ALL:
            def keep(row: bytes, cells: Sequence[Cell]) -> bool:
                for child in children:
                    if not child(row, cells):
                        return False
                return True
        else:
            def keep(row: bytes, cells: Sequence[Cell]) -> bool:
                for child in children:
                    if child(row, cells):
                        return True
                return False
        return keep

    def cells_evaluated(self) -> int:
        return sum(f.cells_evaluated() for f in self.filters)

    def __repr__(self) -> str:
        inner = f" {self.operator.value} ".join(repr(f) for f in self.filters)
        return f"FilterList({inner})"
