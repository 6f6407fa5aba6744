"""Row-key range algebra: predicates -> merged HBase scan ranges.

This is the partition-pruning engine of sections VI.A.1 and VI.A.5: source
filters over row-key dimensions are compiled into byte-space ranges (through
the table coder, which knows where its encoding's byte order diverges from
the value order), then conjunctions are *intersected* and disjunctions
*unioned*, with overlapping ranges merged over sorted bounds exactly as the
paper describes (``t in [a,b] ∩ [c,d] -> [c,b]``, ``[a,b] ∪ [c,d] -> [a,d]``).

Pruning is performed on the **first dimension** of composite keys (the
paper's shipping behaviour); the all-dimension extension the paper lists as
future work is implemented behind ``prune_all_dimensions=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.coders.base import ByteRange
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

    def __init__(self, codec: RowCodec,
                 prune_all_dimensions: bool = False) -> None:
        self.catalog = codec.catalog
        self.coder = codec.coder
        self.prune_all_dimensions = prune_all_dimensions
        self._first_dim = self.catalog.row_key[0]
        self._single_dim_key = len(self.catalog.row_key) == 1

    def ranges_for_filters(self, filters: Sequence[S.Filter]) -> List[ScanRange]:
        """AND-combine the scan ranges of the given (conjunctive) filters."""
        current = list(FULL_SCAN)
        for flt in filters:
            ranges = self._ranges_for(flt)
            if ranges is None:
                continue  # this filter does not constrain the key
            current = intersect_range_lists(current, ranges)
            if not current:
                return []
        if self.prune_all_dimensions and len(self.catalog.row_key) > 1:
            refined = self._refine_with_leading_equalities(filters)
            if refined is not None:
                current = intersect_range_lists(current, refined)
        return current

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
        if isinstance(flt, S.In) and flt.attribute == self._first_dim:
            points: List[ScanRange] = []
            for value in flt.values:
                converted = self._comparison_ranges("=", value)
                if converted is None:
                    return None
                points.extend(converted)
            return merge_ranges(points)
        if isinstance(flt, S.EqualTo) and flt.attribute == self._first_dim:
            return self._comparison_ranges("=", flt.value)
        if isinstance(flt, S.GreaterThan) and flt.attribute == self._first_dim:
            return self._comparison_ranges(">", flt.value)
        if isinstance(flt, S.GreaterThanOrEqual) and flt.attribute == self._first_dim:
            return self._comparison_ranges(">=", flt.value)
        if isinstance(flt, S.LessThan) and flt.attribute == self._first_dim:
            return self._comparison_ranges("<", flt.value)
        if isinstance(flt, S.LessThanOrEqual) and flt.attribute == self._first_dim:
            return self._comparison_ranges("<=", flt.value)
        if isinstance(flt, S.StringStartsWith) and flt.attribute == self._first_dim:
            column = self.catalog.column(self._first_dim)
            if not self.coder.order_preserving(column.dtype):
                return None
            prefix = self.coder.encode(flt.prefix, column.dtype)
            return [ScanRange(prefix, prefix_successor(prefix))]
        return None

    def _comparison_ranges(self, op: str, value: object) -> Optional[List[ScanRange]]:
        column = self.catalog.column(self._first_dim)
        byte_ranges = self.coder.byte_ranges(op, value, column.dtype)
        if byte_ranges is None:
            return None
        out: List[ScanRange] = []
        for br in byte_ranges:
            # pad fixed-width dimensions the same way the writer does
            br = self._pad(br)
            converted = _byte_range_to_scan_range(br, self._single_dim_key)
            if converted is not None:
                out.append(converted)
        return merge_ranges(out)

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
    if isinstance(flt, S.EqualTo):
        return "="
    if isinstance(flt, S.GreaterThan):
        return ">"
    if isinstance(flt, S.GreaterThanOrEqual):
        return ">="
    if isinstance(flt, S.LessThan):
        return "<"
    if isinstance(flt, S.LessThanOrEqual):
        return "<="
    return None
