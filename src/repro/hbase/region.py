"""Regions: contiguous row-key ranges of a table, the unit of distribution.

A region holds one :class:`Store` per column family (HBase keeps separate
store files per family, which is exactly why SHC's column pruning saves real
I/O: families that no required column maps to are never read).  Each store is
a memstore plus a stack of immutable store files; reads merge them, flushes
roll the memstore into a new file, compactions collapse the stack and drop
shadowed cells and tombstones.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

from repro.common.errors import HBaseError
from repro.hbase.cell import Cell, CellType
from repro.hbase.hfile import RowHash, StoreFile, row_hash
from repro.hbase.memstore import MemStore

DEFAULT_FLUSH_THRESHOLD_BYTES = 256 * 1024
#: one visible row: its key and its cells in KeyValue order
RowResult = Tuple[bytes, List[Cell]]
#: a version limit that limits nothing
ALL_VERSIONS = sys.maxsize
_ROW = operator.attrgetter("row")


@dataclass(frozen=True)
class TimeRange:
    """Half-open timestamp interval ``[min_ts, max_ts)`` in milliseconds."""

    min_ts: int = 0
    max_ts: int = 2**63 - 1

    def contains(self, timestamp: int) -> bool:
        return self.min_ts <= timestamp < self.max_ts


class Store:
    """One column family's storage inside a region."""

    def __init__(self, family: str) -> None:
        self.family = family
        self.memstore = MemStore()
        self.files: List[StoreFile] = []

    def flush(self) -> Optional[StoreFile]:
        """Roll the memstore into a new store file; returns it (or None)."""
        cells = self.memstore.scan()
        if not cells:
            return None
        store_file = StoreFile(cells)
        self.files.append(store_file)
        self.memstore.clear()
        return store_file

    def compact(self, drop_deletes: bool, max_versions: int = ALL_VERSIONS) -> None:
        """Merge every store file into one.

        Major compactions (``drop_deletes=True``) also discard tombstones,
        the cells they shadow and the versions of a column beyond the newest
        ``max_versions`` (the family's limit: nobody can ask for more), and
        the file they write records that limit; minor compactions keep them
        all so older files on other stores still get masked correctly.

        The files merge by row (:func:`_merge_by_row`).  A row only the
        largest file holds, when that file is resolved at a limit no higher
        than this one, is already what ``_visible_rows`` makes of it -- no
        tombstone, no rewrite, no version past the limit -- so it passes
        through and only the other rows are resolved; otherwise (a load's
        first compaction, a lowered limit) one pass resolves every row.
        Either way the new file equals ``_visible_rows(_merge_runs(...))``
        of the inputs.
        """
        files = self.files
        if not files or (len(files) == 1 and not drop_deletes):
            return
        base = max(files, key=len)
        shared, held = _rows_beside(base, files)
        resolved = base.resolved_versions
        if drop_deletes and resolved is not None and resolved <= max_versions:
            # the base's rows between its shared ones pass through; the
            # shared ones merge with the other files' rows and are resolved
            cells: List[Cell] = []
            base_shared: List[Cell] = []
            end = 0
            for position in held:
                cells += base.row_run(end, position)
                base_shared += base.row_run(position, position + 1)
                end = position + 1
            cells += base.row_run(end, len(base.row_keys))
            runs = (base_shared if f is base else f.scan() for f in reversed(files))
            cells += _resolved(_merge_by_row(runs, shared), max_versions)
            cells.sort(key=_ROW)
        else:
            cells = _merge_by_row((f.scan() for f in reversed(files)), shared)
            if drop_deletes:
                cells = _resolved(cells, max_versions)
        limit = max_versions if drop_deletes else None
        self.files = [StoreFile(cells, resolved_versions=limit)] if cells else []

    def size_bytes(self) -> int:
        return self.memstore.size_bytes + sum(f.size_bytes for f in self.files)

    def runs(self, start_row: bytes, stop_row: Optional[bytes]) -> List[List[Cell]]:
        """The sorted runs holding cells of the row range, newest source
        first: the memstore, then the files from youngest to oldest."""
        runs = [self.memstore.scan(start_row, stop_row)]
        runs.extend(f.scan(start_row, stop_row) for f in reversed(self.files))
        return [run for run in runs if run]

    def scan(self, start_row: bytes, stop_row: Optional[bytes]) -> List[Cell]:
        """Merged view over memstore + files for the row range."""
        return _merge_runs(self.runs(start_row, stop_row))


class Region:
    """A ``[start_row, end_row)`` slice of one table.

    ``region_id`` comes from the owning cluster's counter
    (``HBaseCluster.next_region_id``), never from process-wide state: the
    region name keys retry jitter, the fault schedule and the logs' flush
    watermarks, so it must be a function of that cluster's own history.
    """

    def __init__(
        self,
        table_name: str,
        families: Sequence[str],
        start_row: bytes = b"",
        end_row: bytes = b"",
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD_BYTES,
        *,
        region_id: int,
    ) -> None:
        self.table_name = table_name
        self.start_row = start_row
        self.end_row = end_row  # b"" means unbounded
        self.region_id = region_id
        self.name = f"{table_name},{start_row.hex()},{self.region_id}"
        self.stores: Dict[str, Store] = {f: Store(f) for f in families}
        self.flush_threshold = flush_threshold
        #: store files created by the last flush/compaction (for placement)
        self.last_new_files: list = []

    # -- row-range plumbing -------------------------------------------------
    def contains_row(self, row: bytes) -> bool:
        if row < self.start_row:
            return False
        return not self.end_row or row < self.end_row

    def clamp(self, start_row: bytes, stop_row: Optional[bytes]) -> Tuple[bytes, Optional[bytes]]:
        """Intersect a scan range with this region's boundaries."""
        lo = max(start_row, self.start_row)
        if self.end_row:
            hi = self.end_row if stop_row is None else min(stop_row, self.end_row)
        else:
            hi = stop_row
        return lo, hi

    # -- writes ------------------------------------------------------------
    def put_cells(self, cells: Sequence[Cell]) -> None:
        """Apply already-WAL-logged cells to the memstores."""
        by_family: Dict[str, List[Cell]] = {}
        for cell in cells:
            if not self.contains_row(cell.row):
                raise HBaseError(
                    f"row {cell.row!r} outside region {self.name} "
                    f"[{self.start_row!r}, {self.end_row!r})"
                )
            if cell.family not in self.stores:
                raise HBaseError(f"unknown column family {cell.family!r} in {self.table_name}")
            by_family.setdefault(cell.family, []).append(cell)
        for family, group in by_family.items():
            self.stores[family].memstore.add_all(group)

    def fresh_rows(self, cells: Sequence[Cell]) -> FrozenSet[bytes]:
        """The rows of ``cells`` this region holds no cell of -- no put, no
        tombstone, in any store -- asked before the cells are applied.

        Per store, the memstore answers exactly (:meth:`MemStore.held_rows`)
        and each file by :meth:`StoreFile.admitted_rows`: its row index
        admits the rows it holds, and only the others ask its bloom.  A row
        outside a file's ``first_row..last_row`` is cut off by bisect, so
        only the rows inside some file's span are hashed, each once.  A
        bloom false positive leaves a fresh row unmarked, which is safe: the
        mark only lets a reader skip reading the row back.
        """
        rows = sorted(set(map(_ROW, cells)))
        held: Set[bytes] = set()
        hashes: Dict[bytes, RowHash] = {}
        for store in self.stores.values():
            held.update(store.memstore.held_rows(rows))
            for store_file in store.files:
                inside = [row for row in rows[
                    bisect.bisect_left(rows, store_file.first_row):
                    bisect.bisect_right(rows, store_file.last_row)]
                    if row not in held]
                if not inside:
                    continue
                for row in inside:
                    if row not in hashes:
                        hashes[row] = row_hash(row)
                admitted = store_file.admitted_rows(
                    inside, list(map(hashes.__getitem__, inside)))
                held.update(map(inside.__getitem__, admitted))
        return frozenset(rows).difference(held)

    def memstore_size(self) -> int:
        return sum(s.memstore.size_bytes for s in self.stores.values())

    def should_flush(self) -> bool:
        return self.memstore_size() >= self.flush_threshold

    def flush(self) -> int:
        """Flush every store; returns total bytes written to store files."""
        written = 0
        self.last_new_files = []
        for store in self.stores.values():
            store_file = store.flush()
            if store_file is not None:
                written += store_file.size_bytes
                self.last_new_files.append(store_file)
        return written

    def compact(self, major: bool = False, max_versions: int = ALL_VERSIONS) -> None:
        # objects, not addresses: while ``before`` holds the old files, no
        # new file can be handed one of their ids
        before = self.store_files()
        for store in self.stores.values():
            store.compact(drop_deletes=major, max_versions=max_versions)
        self.last_new_files = [
            f for store in self.stores.values() for f in store.files
            if f not in before
        ]

    def size_bytes(self) -> int:
        return sum(s.size_bytes() for s in self.stores.values())

    # -- reads --------------------------------------------------------------
    def scan_rows(
        self,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        families: Optional[Set[str]] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
        time_range: Optional[TimeRange] = None,
        max_versions: int = 1,
    ) -> Tuple[List[RowResult], List[int]]:
        """The range's visible rows, ``(row_key, cells)`` in row order, and
        beside them the bytes each row's cells carry.

        Applies delete-marker masking, version pruning, the time range and
        column selection.  ``families`` limits which stores are read at all
        (column-family pruning); ``columns`` further restricts to specific
        qualifiers.

        A row is a *slice* when nothing in it needs resolving: every chosen
        family's cells in the range come from one store file, whose columns
        are all asked for; the families holding cells there hold the same
        rows; and there is no time range.  Then each row's cells are a slice
        of its file (one per family), its bytes come off the file's
        ``RowFacts``, and only the dirty rows there go through the
        visibility pass.  Any other
        read -- memstore cells, several files, a time range, families that
        disagree on their rows -- merges the runs and passes every cell
        through ``_visible_rows``, the reference both forms answer alike.
        """
        lo, hi = self.clamp(start_row, stop_row)
        if hi is not None and lo >= hi:
            return [], []
        chosen = self._chosen_families(families, columns)
        if time_range is None and max_versions > 0:
            sliced = self._sliced_rows(chosen, lo, hi, columns, max_versions)
            if sliced is not None:
                return sliced
        runs = [run for family in chosen for run in self.stores[family].runs(lo, hi)]
        rows = list(_visible_rows(_merge_runs(runs), columns, time_range, max_versions))
        return rows, [sum(map(Cell.heap_size, cells)) for __, cells in rows]

    def _sliced_rows(
        self,
        chosen: List[str],
        lo: bytes,
        hi: Optional[bytes],
        columns: Optional[Set[Tuple[str, str]]],
        max_versions: int,
    ) -> Optional[Tuple[List[RowResult], List[int]]]:
        """:meth:`scan_rows` by the slice, or None when the read is not one."""
        spans: List[Tuple[StoreFile, int, int]] = []
        for family in chosen:
            store = self.stores[family]
            if len(store.memstore) and store.memstore.scan(lo, hi):
                return None
            held = [(f, *f.row_span(lo, hi)) for f in store.files]
            held = [span for span in held if span[1] < span[2]]
            if not held:
                continue
            if len(held) > 1:
                return None
            if columns is not None and not held[0][0].row_facts().columns <= columns:
                return None
            spans.append(held[0])
        if not spans:
            return [], []
        (store_file, first, end), *others = spans
        keys = store_file.row_keys[first:end]
        if any(other.row_keys[o_first:o_end] != keys
               for other, o_first, o_end in others):
            return None
        facts = store_file.row_facts()
        cells = store_file.row_slices(first, end)
        row_bytes = facts.row_bytes[first:end].tolist()
        dirty = {p - first for p in facts.dirty_in(first, end)}
        for other, o_first, o_end in others:
            o_facts = other.row_facts()
            cells = list(map(operator.add, cells, other.row_slices(o_first, o_end)))
            row_bytes = list(map(operator.add, row_bytes, o_facts.row_bytes[o_first:o_end]))
            dirty.update(p - o_first for p in o_facts.dirty_in(o_first, o_end))
        rows = list(zip(keys, cells))
        if dirty:
            gone = []
            for p in sorted(dirty):
                visible = [seen for __, seen in _visible_rows(
                    cells[p], columns, None, max_versions)]
                if visible:
                    rows[p] = (keys[p], visible[0])
                    row_bytes[p] = sum(map(Cell.heap_size, visible[0]))
                else:
                    gone.append(p)
            for p in reversed(gone):
                del rows[p], row_bytes[p]
        return rows, row_bytes

    def io_bytes_for_range(
        self,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        families: Optional[Set[str]] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
    ) -> int:
        """Store-file + memstore bytes a scan over the range would read:
        the sum of :meth:`touched_blocks_by_file`, wherever the reader
        sits."""
        files, memstore_bytes = self.touched_blocks_by_file(
            "", start_row, stop_row, families, columns)
        return memstore_bytes + sum(
            nbytes for __, __local, blocks in files for __block, nbytes in blocks)

    def touched_blocks_by_file(
        self,
        host: str,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        families: Optional[Set[str]] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
    ) -> Tuple[List[Tuple[StoreFile, bool, List[tuple]]], int]:
        """The one walk of what a range scan reads, block by block.

        Returns ``(files, memstore_bytes)`` where ``files`` lists, for every
        store file of the chosen families (one the range misses has no
        blocks), the file itself, whether its HDFS replica is local to
        ``host`` -- a file without placement metadata counts as local, the
        memstore always is -- and its ``(block_index, nbytes)`` pairs.  The
        region server bills a scan from it block by block; every other count
        of a range's bytes (:meth:`io_bytes_for_range`) is its sum.
        """
        # an empty clamp (lo >= hi) lists every file and no block of any
        lo, hi = self.clamp(start_row, stop_row)
        files: List[Tuple[StoreFile, bool, List[tuple]]] = []
        memstore_bytes = 0
        for family in self._chosen_families(families, columns):
            store = self.stores[family]
            for store_file in store.files:
                placed = store_file.hdfs_file
                is_local = placed is None or placed.is_local_to(host)
                files.append((store_file, is_local,
                              store_file.blocks_for_range(lo, hi)))
            memstore = store.memstore
            span = memstore.span()
            if span is None:
                continue
            if lo <= span[0] and (hi is None or span[1] < hi):
                # the range covers every row: the running total is the sum
                memstore_bytes += memstore.size_bytes
            else:
                memstore_bytes += sum(map(Cell.heap_size, memstore.scan(lo, hi)))
        return files, memstore_bytes

    def store_files(self) -> Set[StoreFile]:
        """Every store file currently in this region."""
        return {f for store in self.stores.values() for f in store.files}

    def _chosen_families(
        self,
        families: Optional[Set[str]],
        columns: Optional[Set[Tuple[str, str]]],
    ) -> List[str]:
        wanted = set(self.stores)
        if families is not None:
            wanted &= families
        if columns:
            wanted &= {f for f, __ in columns}
        return sorted(wanted)

    # -- split ----------------------------------------------------------------
    def split_point(self) -> Optional[bytes]:
        """Midpoint row of the largest store, or None if unsplittable."""
        largest = max(self.stores.values(), key=Store.size_bytes, default=None)
        if largest is None:
            return None
        rows = sorted({row for f in largest.files for row in f.row_keys})
        if len(rows) < 2:
            return None
        mid = rows[len(rows) // 2]
        if mid == self.start_row:
            return None
        return mid

    def split(self, next_region_id: Callable[[], int]
              ) -> Optional[Tuple["Region", "Region"]]:
        """Split into two daughter regions at the midpoint (HBase-style).

        Daughter ids are drawn from ``next_region_id`` only once the split
        is known to happen, so an unsplittable region consumes none.
        """
        point = self.split_point()
        if point is None:
            return None
        families = list(self.stores)
        left = Region(self.table_name, families, self.start_row, point,
                      self.flush_threshold, region_id=next_region_id())
        right = Region(self.table_name, families, point, self.end_row,
                       self.flush_threshold, region_id=next_region_id())
        for family, store in self.stores.items():
            cells = store.scan(self.start_row, None)
            cut = bisect.bisect_left(cells, point, key=_ROW)
            if cut:
                left.stores[family].files.append(StoreFile(cells[:cut]))
            if cut < len(cells):
                right.stores[family].files.append(StoreFile(cells[cut:]))
        return left, right

    def __repr__(self) -> str:
        return f"Region({self.name}, [{self.start_row!r}, {self.end_row!r}))"


def _merge_runs(runs: List[List[Cell]]) -> List[Cell]:
    """One KeyValue-ordered list out of sorted runs.

    Cells with equal sort keys -- one column rewritten at one timestamp --
    come out in run order, which is why callers list the newest source
    first.  A single run is already the answer; several are concatenated
    and sorted, which for a stable merge sort over presorted runs is the
    merge, ties included.
    """
    if len(runs) == 1:
        return runs[0]
    merged = list(itertools.chain.from_iterable(runs))
    merged.sort(key=Cell.sort_key)
    return merged


def _rows_beside(base: StoreFile, files: Sequence[StoreFile]
                 ) -> Tuple[List[bytes], List[int]]:
    """The rows two or more of ``files`` hold, in order, and the positions
    in ``base`` of those ``base`` holds.  The other files' keys are
    bisected into ``base.row_keys`` (no set over every row), and two other
    files share a row where it repeats in their merged keys."""
    keys = base.row_keys
    shared: List[bytes] = []
    held: List[int] = []
    lo, previous = 0, None
    for row in sorted(itertools.chain.from_iterable(
            f.row_keys for f in files if f is not base)):
        if row == previous:
            if shared[-1:] != [row]:
                shared.append(row)
            continue
        previous = row
        lo = bisect.bisect_left(keys, row, lo)
        if lo < len(keys) and keys[lo] == row:
            shared.append(row)
            held.append(lo)
    return shared, held


def _merge_by_row(runs: Iterable[List[Cell]], shared: Sequence[bytes]) -> List[Cell]:
    """:func:`_merge_runs` of ``runs`` (newest first), told the rows two or
    more of them hold.  A stable sort on the row alone leaves every row's
    cells in run order, which for a row one run holds is already KeyValue
    order; only the shared rows' cells are re-sorted, stably, so a tie
    still lists the newer run's cell first."""
    merged = list(itertools.chain.from_iterable(runs))
    merged.sort(key=_ROW)
    lo = 0
    for row in shared:
        lo = bisect.bisect_left(merged, row, lo, key=_ROW)
        hi = bisect.bisect_right(merged, row, lo, key=_ROW)
        merged[lo:hi] = sorted(merged[lo:hi], key=Cell.sort_key)
        lo = hi
    return merged


def _resolved(cells: Sequence[Cell], max_versions: int) -> List[Cell]:
    """The cells a major compaction keeps of ``cells`` (KeyValue order)."""
    return [cell for __, visible in _visible_rows(cells, None, None, max_versions)
            for cell in visible]


def _visible_rows(
    cells: Sequence[Cell],
    columns: Optional[Set[Tuple[str, str]]],
    time_range: Optional[TimeRange],
    max_versions: int,
) -> Iterator[Tuple[bytes, List[Cell]]]:
    """Resolve deletes, versions, time range and column selection in one
    pass over cells in KeyValue order; yields ``(row, visible cells)``.

    The order does the work (it is HBase's ScanQueryMatcher's too).  A
    tombstone sorts before every cell it shadows -- a family delete carries
    the empty qualifier and so leads its family, a column or version delete
    leads the versions of its column it covers -- so what is deleted is
    known by the time a put arrives.  The versions of a column are adjacent,
    newest first, so counting them needs no table; and of two puts to one
    column at one timestamp the first is the later write, the second a
    rewritten value nobody can see.  HBase applies the time range while
    scanning and then keeps the newest ``max_versions`` of what qualified.
    """
    never = -math.inf
    min_ts, max_ts = (time_range.min_ts, time_range.max_ts) \
        if time_range is not None else (never, math.inf)
    put = CellType.PUT
    row = family = qualifier = None
    # newest tombstone over the current family / column, the single versions
    # deleted in it, and what the column has yielded so far
    family_deleted = column_deleted = never
    versions_deleted: Tuple[int, ...] = ()
    wanted = True
    kept, kept_ts = 0, None
    visible: List[Cell] = []
    for cell in cells:
        if cell.row != row:
            if visible:
                yield row, visible
                visible = []
            row = cell.row
            family = None
        if cell.family != family:
            family = cell.family
            family_deleted = never
            qualifier = None
        if cell.qualifier != qualifier:
            qualifier = cell.qualifier
            column_deleted = never
            versions_deleted = ()
            wanted = columns is None or (family, qualifier) in columns
            kept, kept_ts = 0, None
        timestamp = cell.timestamp
        kind = cell.cell_type
        if kind != put:
            if kind == CellType.DELETE_FAMILY:
                family_deleted = max(family_deleted, timestamp)
            elif kind == CellType.DELETE_COLUMN:
                column_deleted = max(column_deleted, timestamp)
            else:
                versions_deleted += (timestamp,)
            continue
        if (
            not wanted
            or timestamp <= family_deleted
            or timestamp <= column_deleted
            or timestamp in versions_deleted
            or not min_ts <= timestamp < max_ts
            or timestamp == kept_ts
            or kept >= max_versions
        ):
            continue
        kept += 1
        kept_ts = timestamp
        visible.append(cell)
    if visible:
        yield row, visible
