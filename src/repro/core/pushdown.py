"""Selective predicate pushdown: source filters -> HBase server-side filters.

Implements the *rule-based* policy of section VI.A.3: predicates HBase
evaluates well become ``SingleColumnValueFilter``s (wrapped in AND/OR filter
lists); predicates that would force expensive whole-table work inside HBase
-- ``NOT IN``, negations, large IN lists -- are deliberately left to Spark's
second filtering layer.  The compiler reports which offered filters it fully
handled, which is exactly what ``unhandledFilters`` tells the engine so it
can skip redundant re-filtering (and re-apply only what it must).

Non-order-preserving encodings are handled like the PrimitiveType read path
(section IV.B.1): a numeric comparison is pre-processed into byte-monotone
segments and pushed as an OR of range filter lists, so no data is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.coders.base import ByteRange
from repro.core.keys import RowCodec
from repro.hbase.filters import (
    CompareOp,
    Filter as HFilter,
    FilterList,
    FilterListOp,
    SingleColumnValueFilter,
)
from repro.sql import sources as S

#: IN lists longer than this are not worth building server-side filters for
MAX_PUSHED_IN_VALUES = 10


@dataclass
class CompiledPushdown:
    """Outcome of compiling one conjunctive filter set."""

    hbase_filter: Optional[HFilter]
    handled: List[S.Filter]
    unhandled: List[S.Filter]
    #: the subset of ``handled`` that is only correct because range pruning
    #: restricts the scan (first-dimension row-key predicates); if pruning is
    #: disabled these must be re-applied by the engine
    handled_by_pruning: List[S.Filter] = None


class PushdownCompiler:
    """Compiles source filters for one table's row format."""

    def __init__(self, codec: RowCodec) -> None:
        self.catalog = codec.catalog
        #: the key's coder; a data column's comes from ``field_coders``
        self.coder = codec.coder
        self._field_coders = codec.field_coders

    def compile(self, filters: Sequence[S.Filter]) -> CompiledPushdown:
        handled: List[S.Filter] = []
        unhandled: List[S.Filter] = []
        via_pruning: List[S.Filter] = []
        pushed: List[HFilter] = []
        for flt in filters:
            hfilter, fully, needs_pruning = self._compile_one(flt)
            if hfilter is not None:
                pushed.append(hfilter)
            if fully:
                handled.append(flt)
                if needs_pruning:
                    via_pruning.append(flt)
            else:
                unhandled.append(flt)
        combined: Optional[HFilter] = None
        if len(pushed) == 1:
            combined = pushed[0]
        elif pushed:
            combined = FilterList(FilterListOp.MUST_PASS_ALL, pushed)
        return CompiledPushdown(combined, handled, unhandled, via_pruning)

    # -- one filter -> (hbase filter or None, fully handled?, via pruning?) ----
    #
    # The third element marks "fully handled" claims that are only correct
    # because range pruning restricts the scan (row-key atoms compiled to no
    # server-side filter).  It must propagate through ANDs -- the claim
    # survives even when the other conjunct produced a filter -- and it
    # poisons ORs: pruning unions the branch ranges, so a branch whose
    # row-key atom the *other* branch does not constrain is NOT enforced
    # (``tag = 'a' OR (ts = 0 AND tag = 'b')`` scans everything).  Such an
    # OR is still pushed as a weakened superset filter but reported
    # not-fully-handled so the engine re-applies the exact predicate.
    def _compile_one(self, flt: S.Filter) -> Tuple[Optional[HFilter], bool, bool]:
        if isinstance(flt, S.And):
            left_f, left_ok, left_np = self._compile_one(flt.left)
            right_f, right_ok, right_np = self._compile_one(flt.right)
            parts = [f for f in (left_f, right_f) if f is not None]
            # pushing a *subset* of an AND is always safe (superset of rows)
            combined = None
            if len(parts) == 1:
                combined = parts[0]
            elif parts:
                combined = FilterList(FilterListOp.MUST_PASS_ALL, parts)
            return combined, left_ok and right_ok, left_np or right_np
        if isinstance(flt, S.Or):
            left_f, left_ok, left_np = self._compile_one(flt.left)
            right_f, right_ok, right_np = self._compile_one(flt.right)
            # an OR may only be pushed when BOTH branches compiled
            if left_f is None or right_f is None:
                return None, False, False
            fully = left_ok and right_ok and not (left_np or right_np)
            return FilterList(FilterListOp.MUST_PASS_ONE, [left_f, right_f]), \
                fully, False
        if isinstance(flt, S.Not):
            # the paper's policy: negations (NOT IN, !=) stay in Spark
            return None, False, False
        if isinstance(flt, S.In):
            return self._compile_in(flt)
        if isinstance(flt, S.IsNotNull):
            # a relational NULL is an absent cell; rows lacking the column are
            # dropped by any filter_if_missing SCVF, but standalone existence
            # checks stay in Spark (no native HBase filter for it).  Row-key
            # columns are present in every row, so the check is a tautology
            # there -- handled without pruning's help.
            return None, self._is_rowkey(flt.attribute), False
        if isinstance(flt, S.IsNull):
            return None, False, False
        if isinstance(flt, S.StringStartsWith):
            ok = self._is_first_dim_ordered(flt.attribute)
            return None, ok, ok
        if isinstance(flt, (S.EqualTo, S.GreaterThan, S.GreaterThanOrEqual,
                            S.LessThan, S.LessThanOrEqual)):
            return self._compile_comparison(flt)
        return None, False, False

    def _compile_comparison(self, flt: S.AttributeFilter) -> Tuple[Optional[HFilter], bool, bool]:
        name = flt.attribute
        op = _OP_FOR[type(flt)]
        if self._is_rowkey(name):
            # first-dimension predicates are fully handled by range pruning
            # (the scan never visits excluded rows); other dimensions are
            # re-applied by Spark
            if name == self.catalog.row_key[0]:
                column = self.catalog.column(name)
                exact = self.coder.byte_ranges(op, flt.value, column.dtype) is not None
                return None, exact, exact
            return None, False, False
        column = self.catalog.column(name)
        ranges = self._field_coders[name].byte_ranges(op, flt.value, column.dtype)
        if ranges is None:
            return None, False, False
        branches: List[HFilter] = []
        for br in ranges:
            branch = self._range_filter(column.family, column.qualifier, br)
            if branch is None:
                return None, False, False
            branches.append(branch)
        if not branches:
            return None, False, False
        if len(branches) == 1:
            return branches[0], True, False
        return FilterList(FilterListOp.MUST_PASS_ONE, branches), True, False

    def _compile_in(self, flt: S.In) -> Tuple[Optional[HFilter], bool, bool]:
        name = flt.attribute
        if self._is_rowkey(name):
            first = name == self.catalog.row_key[0]
            return None, first, first
        if len(flt.values) > MAX_PUSHED_IN_VALUES:
            # expensive point filters are not worth building server-side
            return None, False, False
        column = self.catalog.column(name)
        in_coder = self._field_coders[name]
        equals: List[HFilter] = []
        for v in flt.values:
            ranges = in_coder.byte_ranges("=", v, column.dtype)
            if ranges is None:
                return None, False, False  # mistyped literal: engine filters
            if not ranges:
                continue  # provably-empty option (e.g. 1.5 in an int column)
            equals.append(SingleColumnValueFilter(
                column.family, column.qualifier, CompareOp.EQUAL, ranges[0].lo,
            ))
        if not equals:
            # every option is unsatisfiable: nothing can match
            from repro.hbase.filters import RowFilter

            return RowFilter(CompareOp.LESS, b""), True, False
        if len(equals) == 1:
            return equals[0], True, False
        return FilterList(FilterListOp.MUST_PASS_ONE, equals), True, False

    def _range_filter(self, family: str, qualifier: str,
                      br: ByteRange) -> Optional[HFilter]:
        if br.is_point():
            return SingleColumnValueFilter(family, qualifier, CompareOp.EQUAL, br.lo)
        parts: List[HFilter] = []
        if br.lo is not None:
            op = CompareOp.GREATER_OR_EQUAL if br.lo_inclusive else CompareOp.GREATER
            parts.append(SingleColumnValueFilter(family, qualifier, op, br.lo))
        if br.hi is not None:
            op = CompareOp.LESS_OR_EQUAL if br.hi_inclusive else CompareOp.LESS
            parts.append(SingleColumnValueFilter(family, qualifier, op, br.hi))
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return FilterList(FilterListOp.MUST_PASS_ALL, parts)

    def _is_rowkey(self, name: str) -> bool:
        column = self.catalog.columns.get(name)
        return column is not None and column.is_rowkey()

    def _is_first_dim_ordered(self, name: str) -> bool:
        if name != self.catalog.row_key[0]:
            return False
        return self.coder.order_preserving(self.catalog.column(name).dtype)


_OP_FOR = {
    S.EqualTo: "=",
    S.GreaterThan: ">",
    S.GreaterThanOrEqual: ">=",
    S.LessThan: "<",
    S.LessThanOrEqual: "<=",
}
