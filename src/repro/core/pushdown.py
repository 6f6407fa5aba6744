"""Selective predicate pushdown: source filters -> HBase server-side filters.

Implements the *rule-based* policy of section VI.A.3: predicates HBase
evaluates well become ``SingleColumnValueFilter``s (wrapped in AND/OR filter
lists); predicates that would force expensive whole-table work inside HBase
-- ``NOT IN``, negations, large IN lists -- are deliberately left to Spark's
second filtering layer.  The compiler reports which offered filters it fully
handled, which is exactly what ``unhandledFilters`` tells the engine so it
can skip redundant re-filtering (and re-apply only what it must).  A row-key
conjunct never becomes a server-side filter: it is handled exactly when the
scan ranges enforce it, which only the range builder decides.

Non-order-preserving encodings are handled like the PrimitiveType read path
(section IV.B.1): a numeric comparison is pre-processed into byte-monotone
segments and pushed as an OR of range filter lists, so no data is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.coders.base import ByteRange
from repro.core.keys import RowCodec
from repro.core.ranges import COMPARISON_OPS, RangeBuilder
from repro.hbase.filters import (
    CompareOp,
    Filter as HFilter,
    FilterList,
    FilterListOp,
    RowFilter,
    SingleColumnValueFilter,
)
from repro.sql import sources as S

#: IN lists longer than this are not worth building server-side filters for
MAX_PUSHED_IN_VALUES = 10


@dataclass
class CompiledPushdown:
    """Outcome of compiling one conjunctive filter set."""

    hbase_filter: Optional[HFilter]
    unhandled: List[S.Filter]
    #: every (family, qualifier) the server-side filter reads, recorded as
    #: each column's value filters are built
    columns: Set[Tuple[str, str]]


def _never(flt: S.Filter) -> bool:
    return False


def _combined(op: FilterListOp, parts: List[HFilter]) -> Optional[HFilter]:
    """``parts`` under ``op``: None for none, the filter itself for one."""
    if len(parts) > 1:
        return FilterList(op, parts)
    return parts[0] if parts else None


class PushdownCompiler:
    """Compiles source filters for one table's row format.

    ``ranges`` is the scan's range builder, or None when pruning is off: a
    row-key atom is handled exactly when it says the ranges enforce it.
    """

    def __init__(self, codec: RowCodec, ranges: Optional[RangeBuilder]) -> None:
        self.catalog = codec.catalog
        self._field_coders = codec.field_coders
        self._row_key = frozenset(codec.catalog.row_key)
        self._enforces: Callable[[S.Filter], bool] = \
            ranges.enforces if ranges is not None else _never
        self._read: List[Tuple[str, str]] = []

    def compile(self, filters: Sequence[S.Filter]) -> CompiledPushdown:
        self._read = []
        unhandled: List[S.Filter] = []
        pushed: List[HFilter] = []
        for flt in filters:
            hfilter, fully = self._compile_one(flt, self._enforces)
            if hfilter is not None:
                pushed.append(hfilter)
            if not fully:
                unhandled.append(flt)
        return CompiledPushdown(_combined(FilterListOp.MUST_PASS_ALL, pushed),
                                unhandled, set(self._read))

    # -- one filter -> (hbase filter or None, fully handled?) -------------------
    #
    # ``enforces`` says which row-key atoms the scan ranges enforce.  Inside
    # an OR it is never true: pruning unions the branch ranges, so a branch
    # whose row-key atom the *other* branch does not constrain is NOT
    # enforced (``tag = 'a' OR (ts = 0 AND tag = 'b')`` scans everything).
    # Such an OR is still pushed as a weakened superset filter but reported
    # not-fully-handled so the engine re-applies the exact predicate.
    def _compile_one(self, flt: S.Filter,
                     enforces: Callable[[S.Filter], bool]) -> Tuple[Optional[HFilter], bool]:
        if isinstance(flt, S.And):
            left_f, left_ok = self._compile_one(flt.left, enforces)
            right_f, right_ok = self._compile_one(flt.right, enforces)
            # pushing a *subset* of an AND is always safe (superset of rows)
            parts = [f for f in (left_f, right_f) if f is not None]
            return _combined(FilterListOp.MUST_PASS_ALL, parts), left_ok and right_ok
        if isinstance(flt, S.Or):
            read = len(self._read)
            left_f, left_ok = self._compile_one(flt.left, _never)
            right_f, right_ok = self._compile_one(flt.right, _never)
            # an OR may only be pushed when BOTH branches compiled; one that
            # is not pushed reads no column either
            if left_f is None or right_f is None:
                del self._read[read:]
                return None, False
            return FilterList(FilterListOp.MUST_PASS_ONE, [left_f, right_f]), \
                left_ok and right_ok
        if not isinstance(flt, S.AttributeFilter):
            # the paper's policy: negations (NOT IN, !=) stay in Spark
            return None, False
        if flt.attribute in self._row_key:
            # no server-side filter reads the key: a key dimension is in every
            # row, so IS NOT NULL holds; any other atom is handled exactly
            # when the scan ranges enforce it
            return None, isinstance(flt, S.IsNotNull) or enforces(flt)
        if isinstance(flt, S.In):
            return self._compile_in(flt)
        if type(flt) in COMPARISON_OPS:
            return self._compile_comparison(flt)
        # a relational NULL is an absent cell; rows lacking the column are
        # dropped by any filter_if_missing SCVF, but standalone existence
        # checks (and prefixes) stay in Spark: no native HBase filter
        return None, False

    def _compile_comparison(self, flt: S.AttributeFilter) -> Tuple[Optional[HFilter], bool]:
        column = self.catalog.column(flt.attribute)
        ranges = self._field_coders[flt.attribute].byte_ranges(
            COMPARISON_OPS[type(flt)], flt.value, column.dtype)
        if not ranges:
            return None, False
        branches: List[HFilter] = []
        for br in ranges:
            branch = self._range_filter(column.family, column.qualifier, br)
            if branch is None:
                return None, False
            branches.append(branch)
        self._read.append((column.family, column.qualifier))
        return _combined(FilterListOp.MUST_PASS_ONE, branches), True

    def _compile_in(self, flt: S.In) -> Tuple[Optional[HFilter], bool]:
        if len(flt.values) > MAX_PUSHED_IN_VALUES:
            # expensive point filters are not worth building server-side
            return None, False
        column = self.catalog.column(flt.attribute)
        in_coder = self._field_coders[flt.attribute]
        equals: List[HFilter] = []
        for v in flt.values:
            ranges = in_coder.byte_ranges("=", v, column.dtype)
            if ranges is None:
                return None, False  # mistyped literal: engine filters
            if ranges:  # a provably-empty option (1.5 in an int column) has none
                equals.append(SingleColumnValueFilter(
                    column.family, column.qualifier, CompareOp.EQUAL, ranges[0].lo))
        if not equals:
            # every option is unsatisfiable: nothing can match
            return RowFilter(CompareOp.LESS, b""), True
        self._read.append((column.family, column.qualifier))
        return _combined(FilterListOp.MUST_PASS_ONE, equals), True

    @staticmethod
    def _range_filter(family: str, qualifier: str, br: ByteRange) -> Optional[HFilter]:
        if br.is_point():
            return SingleColumnValueFilter(family, qualifier, CompareOp.EQUAL, br.lo)
        parts: List[HFilter] = []
        if br.lo is not None:
            op = CompareOp.GREATER_OR_EQUAL if br.lo_inclusive else CompareOp.GREATER
            parts.append(SingleColumnValueFilter(family, qualifier, op, br.lo))
        if br.hi is not None:
            op = CompareOp.LESS_OR_EQUAL if br.hi_inclusive else CompareOp.LESS
            parts.append(SingleColumnValueFilter(family, qualifier, op, br.hi))
        return _combined(FilterListOp.MUST_PASS_ALL, parts)
