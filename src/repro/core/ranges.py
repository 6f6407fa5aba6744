"""Row-key range algebra: predicates -> merged HBase scan ranges.

This is the partition-pruning engine of sections VI.A.1 and VI.A.5: source
filters over row-key dimensions are compiled into byte-space ranges (through
the table coder, which knows where its encoding's byte order diverges from
the value order), then conjunctions are *intersected* and disjunctions
*unioned*, with overlapping ranges merged over sorted bounds exactly as the
paper describes (``t in [a,b] ∩ [c,d] -> [c,b]``, ``[a,b] ∪ [c,d] -> [a,d]``).

Pruning is performed on the **first dimension** of composite keys (the
paper's shipping behaviour); the all-dimension extension the paper lists as
future work is implemented behind ``prune_all_dimensions=True``.  The
builder also owns the rule for which conjuncts pruning *handles*
(:meth:`RangeBuilder.enforces`); the pushdown compiler asks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.coders.base import ByteRange, normalize_bound
from repro.core.keys import (
    RowCodec, dimension_width, encode_key_dimension, prefix_successor,
)
from repro.sql import sources as S


@dataclass(frozen=True)
class ScanRange:
    """A half-open row-key interval ``[start, stop)``.

    ``start=b""`` means "from the first row"; ``stop=None`` means "to the
    last".  ``point`` marks ranges that select exactly one *complete* row key
    -- those become ``Get``s instead of ``Scan``s (section VI.A.4).
    """

    start: bytes = b""
    stop: Optional[bytes] = None
    point: bool = False

    def is_empty(self) -> bool:
        return self.stop is not None and self.start >= self.stop

    def intersect(self, other: "ScanRange") -> Optional["ScanRange"]:
        start = max(self.start, other.start)
        if self.stop is None:
            stop = other.stop
        elif other.stop is None:
            stop = self.stop
        else:
            stop = min(self.stop, other.stop)
        merged = ScanRange(start, stop, self.point or other.point)
        return None if merged.is_empty() else merged

    def overlaps_region(self, region_start: bytes, region_end: bytes) -> bool:
        """Does this range touch region ``[region_start, region_end)``?"""
        if region_end and self.start >= region_end:
            return False
        if self.stop is not None and self.stop <= region_start:
            return False
        return True

    def clamp_to_region(self, region_start: bytes,
                        region_end: bytes) -> Optional["ScanRange"]:
        start = max(self.start, region_start)
        if region_end:
            stop = region_end if self.stop is None else min(self.stop, region_end)
        else:
            stop = self.stop
        clamped = ScanRange(start, stop, self.point)
        return None if clamped.is_empty() else clamped

    def __repr__(self) -> str:
        stop = "inf" if self.stop is None else self.stop.hex()
        marker = " point" if self.point else ""
        return f"ScanRange([{self.start.hex()}, {stop}){marker})"


FULL_SCAN: List[ScanRange] = [ScanRange()]

#: the comparison source filters, as the coders' ``byte_ranges`` operators
COMPARISON_OPS: Dict[type, str] = {
    S.EqualTo: "=", S.GreaterThan: ">", S.GreaterThanOrEqual: ">=",
    S.LessThan: "<", S.LessThanOrEqual: "<=",
}


def merge_ranges(ranges: Sequence[ScanRange]) -> List[ScanRange]:
    """Union a set of ranges, merging overlaps/adjacency over sorted bounds."""
    live = [r for r in ranges if not r.is_empty()]
    if not live:
        return []
    live.sort(key=lambda r: r.start)
    merged: List[ScanRange] = [live[0]]
    for current in live[1:]:
        last = merged[-1]
        if last.stop is None or current.start <= last.stop:
            if last.stop is None:
                stop = None
            elif current.stop is None:
                stop = None
            else:
                stop = max(last.stop, current.stop)
            keep_point = last.point and current.point and last.start == current.start \
                and last.stop == current.stop
            merged[-1] = ScanRange(last.start, stop, keep_point)
        else:
            merged.append(current)
    return merged


def intersect_range_lists(a: Sequence[ScanRange],
                          b: Sequence[ScanRange]) -> List[ScanRange]:
    """Pairwise intersection of two unions of ranges."""
    out: List[ScanRange] = []
    for left in a:
        for right in b:
            hit = left.intersect(right)
            if hit is not None:
                out.append(hit)
    return merge_ranges(out)


def _byte_range_to_scan_range(br: ByteRange, complete_key: bool) -> Optional[ScanRange]:
    """Prefix semantics: a first-dimension bound covers every key under it."""
    if br.lo is None:
        start: Optional[bytes] = b""
    elif br.lo_inclusive:
        start = br.lo
    else:
        start = prefix_successor(br.lo)
        if start is None:
            return None
    if br.hi is None:
        stop: Optional[bytes] = None
    elif br.hi_inclusive:
        stop = prefix_successor(br.hi)
    else:
        stop = br.hi
    point = complete_key and br.is_point()
    out = ScanRange(start, stop, point)
    return None if out.is_empty() else out


class RangeBuilder:
    """Compiles source filters into scan ranges for one table's row format."""

    def __init__(self, codec: RowCodec) -> None:
        self.catalog = codec.catalog
        self.coder = codec.coder
        self._first_dim = self.catalog.row_key[0]
        self._single_dim_key = len(self.catalog.row_key) == 1

    def ranges_for_filters(self, filters: Sequence[S.Filter],
                           prune_all_dimensions: bool = False) -> List[ScanRange]:
        """AND-combine the scan ranges of the given (conjunctive) filters."""
        current = list(FULL_SCAN)
        for flt in filters:
            ranges = self._ranges_for(flt)
            if ranges is None:
                continue  # this filter does not constrain the key
            current = intersect_range_lists(current, ranges)
            if not current:
                return []
        if prune_all_dimensions and len(self.catalog.row_key) > 1:
            refined = self._refine_with_leading_equalities(filters)
            if refined is not None:
                current = intersect_range_lists(current, refined)
        return current

    def enforces(self, flt: S.Filter) -> bool:
        """Do the scan ranges alone enforce the atom ``flt``?

        The one rule for what pruning handles: a leading-key atom the
        builder turns into ranges.  It is asked of atoms only -- under an
        OR the ranges union the branches, so they never enforce a branch.
        """
        if isinstance(flt, S.In):
            if flt.attribute != self._first_dim:
                return False
            # equality translates every value that normalizes to the key's
            # domain (FieldCoder.byte_ranges); a NULL does not
            dtype = self.catalog.column(self._first_dim).dtype
            for value in flt.values:
                if normalize_bound("=", value, dtype) is None:
                    return False
            return True
        if isinstance(flt, S.StringStartsWith):
            return flt.attribute == self._first_dim and \
                self.coder.order_preserving(self.catalog.column(self._first_dim).dtype)
        return self._key_bounds(flt) is not None

    # -- single filter -> ranges (None = unconstrained) ----------------------
    def _ranges_for(self, flt: S.Filter) -> Optional[List[ScanRange]]:
        if isinstance(flt, S.And):
            left = self._ranges_for(flt.left)
            right = self._ranges_for(flt.right)
            if left is None:
                return right
            if right is None:
                return left
            return intersect_range_lists(left, right)
        if isinstance(flt, S.Or):
            left = self._ranges_for(flt.left)
            right = self._ranges_for(flt.right)
            if left is None or right is None:
                # one side is unconstrained: the OR covers the whole key space
                # (the paper's full-scan example in section VI.A.1)
                return None
            return merge_ranges(left + right)
        if isinstance(flt, (S.In, S.StringStartsWith)) and not self.enforces(flt):
            return None
        if isinstance(flt, S.StringStartsWith):
            column = self.catalog.column(self._first_dim)
            prefix = self.coder.encode(flt.prefix, column.dtype)
            return [ScanRange(prefix, prefix_successor(prefix))]
        bounds = self._key_bounds(flt)
        if bounds is None:
            return None
        out: List[ScanRange] = []
        for br in bounds:
            # pad fixed-width dimensions the same way the writer does
            converted = _byte_range_to_scan_range(self._pad(br), self._single_dim_key)
            if converted is not None:
                out.append(converted)
        return merge_ranges(out)

    def _key_bounds(self, flt: S.Filter) -> Optional[List[ByteRange]]:
        """The coder's byte ranges for a leading-key comparison, or for an
        IN list :meth:`enforces`; None for any other atom, or a comparison
        whose literal does not translate."""
        if not isinstance(flt, S.AttributeFilter) or flt.attribute != self._first_dim:
            return None
        dtype = self.catalog.column(self._first_dim).dtype
        if isinstance(flt, S.In):
            return [br for value in flt.values
                    for br in self.coder.byte_ranges("=", value, dtype)]
        op = COMPARISON_OPS.get(type(flt))
        return None if op is None else self.coder.byte_ranges(op, flt.value, dtype)

    def _pad(self, br: ByteRange) -> ByteRange:
        if self._single_dim_key and self.catalog.column(self._first_dim).length is None:
            return br
        width = dimension_width(self.catalog, self.coder, self._first_dim)
        if width is None:
            return br
        lo = br.lo.ljust(width, b"\x00") if br.lo is not None else None
        hi = br.hi.ljust(width, b"\x00") if br.hi is not None else None
        # padding preserves point-ness only if both ends padded identically
        return ByteRange(lo, br.lo_inclusive, hi, br.hi_inclusive)

    # -- all-dimension extension (the paper's future work) -----------------------
    def _refine_with_leading_equalities(
        self, filters: Sequence[S.Filter]
    ) -> Optional[List[ScanRange]]:
        """Build a composite prefix from equality chains on leading dims.

        ``k1 = a AND k2 = b AND k3 > c`` prunes to the byte range of
        ``enc(a) + enc(b) + (enc(c), ...)`` instead of just ``enc(a)``'s
        prefix.  Only top-level conjunctive equality filters participate.
        """
        equalities: Dict[str, object] = {}
        for flt in _flatten_and(filters):
            if isinstance(flt, S.EqualTo) and flt.attribute in self.catalog.row_key:
                equalities[flt.attribute] = flt.value
        prefix = b""
        consumed = 0
        for name in self.catalog.row_key:
            if name not in equalities:
                break
            try:
                prefix += encode_key_dimension(self.catalog, self.coder, name,
                                               equalities[name])
            except Exception:  # mistyped literal: skip the refinement
                break
            consumed += 1
        if consumed == 0:
            return None
        if consumed == len(self.catalog.row_key):
            stop = prefix_successor(prefix)
            return [ScanRange(prefix, stop, point=True)]
        # a leading-equality prefix plus an optional range on the next dim
        next_dim = self.catalog.row_key[consumed]
        next_ranges = self._next_dim_ranges(filters, next_dim)
        if next_ranges is None:
            if consumed == 1:
                return None  # first-dimension pruning already covers this
            return [ScanRange(prefix, prefix_successor(prefix))]
        out = []
        for br in next_ranges:
            lo = prefix + (br.lo or b"")
            if br.lo is not None and not br.lo_inclusive:
                successor = prefix_successor(lo)
                if successor is None:
                    continue
                lo = successor
            if br.hi is None:
                hi = prefix_successor(prefix)
            elif br.hi_inclusive:
                hi = prefix_successor(prefix + br.hi)
            else:
                hi = prefix + br.hi
            candidate = ScanRange(lo, hi)
            if not candidate.is_empty():
                out.append(candidate)
        return merge_ranges(out) if out else [ScanRange(prefix, prefix_successor(prefix))]

    def _next_dim_ranges(self, filters: Sequence[S.Filter],
                         dim: str) -> Optional[List[ByteRange]]:
        column = self.catalog.column(dim)
        collected: Optional[List[ByteRange]] = None
        for flt in _flatten_and(filters):
            op = _simple_op(flt, dim)
            if op is None:
                continue
            ranges = self.coder.byte_ranges(op, flt.value, column.dtype)
            if ranges is None:
                continue
            collected = ranges if collected is None else collected + ranges
        return collected


def _flatten_and(filters: Sequence[S.Filter]) -> List[S.Filter]:
    out: List[S.Filter] = []
    stack = list(filters)
    while stack:
        flt = stack.pop()
        if isinstance(flt, S.And):
            stack.extend((flt.left, flt.right))
        else:
            out.append(flt)
    return out


def _simple_op(flt: S.Filter, attribute: str) -> Optional[str]:
    if not isinstance(flt, S.AttributeFilter) or flt.attribute != attribute:
        return None
    return COMPARISON_OPS.get(type(flt))
