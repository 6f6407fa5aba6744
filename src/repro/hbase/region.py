"""Regions: contiguous row-key ranges of a table, the unit of distribution.

A region holds one :class:`Store` per column family (HBase keeps separate
store files per family, which is exactly why SHC's column pruning saves real
I/O: families that no required column maps to are never read).  Each store is
a memstore plus a stack of immutable store files; reads merge them, flushes
roll the memstore into a new file, compactions collapse the stack and drop
shadowed cells and tombstones.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import HBaseError
from repro.hbase.cell import Cell, CellType
from repro.hbase.hfile import StoreFile
from repro.hbase.memstore import MemStore

DEFAULT_FLUSH_THRESHOLD_BYTES = 256 * 1024
#: a version limit that limits nothing
ALL_VERSIONS = sys.maxsize


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
        snapshot = self.memstore.snapshot()
        if not snapshot:
            return None
        store_file = StoreFile(snapshot)
        self.files.append(store_file)
        self.memstore.clear()
        return store_file

    def compact(self, drop_deletes: bool, max_versions: int = ALL_VERSIONS) -> None:
        """Merge every store file into one.

        Major compactions (``drop_deletes=True``) also discard tombstones,
        the cells they shadow and the versions of a column beyond the newest
        ``max_versions`` (the family's limit: nobody can ask for more); minor
        compactions keep them all so older files on other stores still get
        masked correctly.
        """
        if len(self.files) <= 1 and not drop_deletes:
            return
        merged = _merge_runs([f.scan() for f in reversed(self.files)])
        if drop_deletes:
            merged = [
                cell
                for __, cells in _visible_rows(merged, None, None, max_versions)
                for cell in cells
            ]
        self.files = [StoreFile(merged)] if merged else []

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

    def scanned_bytes(self, start_row: bytes, stop_row: Optional[bytes]) -> int:
        """I/O bytes a scan of the range touches in this store."""
        total = sum(f.scanned_bytes(start_row, stop_row) for f in self.files)
        total += sum(c.heap_size() for c in self.memstore.scan(start_row, stop_row))
        return total


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
    ) -> Iterator[Tuple[bytes, List[Cell]]]:
        """Yield ``(row_key, visible cells)`` in row order.

        Applies delete-marker masking, version pruning and column selection.
        ``families`` limits which stores are read at all (column-family
        pruning); ``columns`` further restricts to specific qualifiers.
        """
        lo, hi = self.clamp(start_row, stop_row)
        if hi is not None and lo >= hi:
            return iter(())
        runs = [
            run
            for family in self._chosen_families(families, columns)
            for run in self.stores[family].runs(lo, hi)
        ]
        return _visible_rows(_merge_runs(runs), columns, time_range, max_versions)

    def io_bytes_for_range(
        self,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        families: Optional[Set[str]] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
    ) -> int:
        """Store-file + memstore bytes a scan over the range would read."""
        lo, hi = self.clamp(start_row, stop_row)
        if hi is not None and lo >= hi:
            return 0
        chosen = self._chosen_families(families, columns)
        return sum(self.stores[f].scanned_bytes(lo, hi) for f in chosen)

    def touched_blocks_by_file(
        self,
        host: str,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        families: Optional[Set[str]] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
    ) -> Tuple[List[Tuple[StoreFile, bool, List[tuple]]], int]:
        """Block-granular view of the I/O a range scan performs.

        Returns ``(files, memstore_bytes)`` where ``files`` lists, for every
        store file of the chosen families (one the range misses has no
        blocks), the file itself, whether its HDFS replica is local to
        ``host`` -- a file without placement metadata counts as local, the
        memstore always is -- and its ``(block_index, nbytes)`` pairs.  All
        block bytes plus ``memstore_bytes`` are what
        :meth:`io_bytes_for_range` reports; the region server bills the
        scan from this decomposition, block by block.
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
            memstore_bytes += sum(c.heap_size() for c in store.memstore.scan(lo, hi))
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
        rows = sorted({c.row for f in largest.files for c in f.scan()})
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
            cells = list(store.scan(self.start_row or b"", None))
            left_cells = [c for c in cells if c.row < point]
            right_cells = [c for c in cells if c.row >= point]
            if left_cells:
                left.stores[family].files.append(StoreFile(left_cells))
            if right_cells:
                right.stores[family].files.append(StoreFile(right_cells))
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
