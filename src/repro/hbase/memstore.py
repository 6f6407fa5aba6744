"""The in-memory write buffer of a region (HBase MemStore).

Cells are kept sorted in KeyValue order so reads can merge the memstore with
store files without sorting, and so a flush can emit an already-sorted store
file in one pass.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.hbase.cell import Cell


class MemStore:
    """A sorted, size-tracked buffer of cells."""

    def __init__(self) -> None:
        # entries are (sort_key, -insertion_seq, cell): the sequence number
        # makes every entry distinct, so sorting never compares Cell objects,
        # and its sign lists the later of two writes to the same coordinates
        # and timestamp first -- the newest write wins, as in HBase, where
        # the later mutation carries the higher sequence id
        self._entries: List[Tuple[tuple, int, Cell]] = []
        self._seq = 0
        self._size_bytes = 0

    def add_all(self, cells: List[Cell]) -> None:
        """Bulk insert; re-sorts once, which is cheaper than n insorts."""
        if not cells:
            return
        for cell in cells:
            self._seq += 1
            self._entries.append((cell.sort_key(), -self._seq, cell))
        self._entries.sort()
        self._size_bytes += sum(map(Cell.heap_size, cells))

    def scan(self, start_row: bytes = b"", stop_row: bytes | None = None) -> List[Cell]:
        """The cells with ``start_row <= row < stop_row``, in KeyValue order."""
        # ((row,),) sorts before every entry of ``row``: a 1-tuple is less
        # than any longer sort key it prefixes
        lo = bisect.bisect_left(self._entries, ((start_row,),)) if start_row else 0
        hi = len(self._entries) if stop_row is None \
            else bisect.bisect_left(self._entries, ((stop_row,),), lo)
        return [cell for __, __seq, cell in self._entries[lo:hi]]

    def row_cells(self, row: bytes, lo: int = 0) -> Tuple[List[Cell], int]:
        """The cells of ``row`` and the index where they start, bisecting
        from ``lo`` (:meth:`StoreFile.row_cells
        <repro.hbase.hfile.StoreFile.row_cells>`)."""
        entries = self._entries
        lo = bisect.bisect_left(entries, ((row,),), lo)
        hi = bisect.bisect_left(entries, ((row + b"\x00",),), lo)
        return [cell for __, __seq, cell in entries[lo:hi]], lo

    def span(self) -> Optional[Tuple[bytes, bytes]]:
        """The first and last row the memstore holds, or None when empty."""
        entries = self._entries
        if not entries:
            return None
        return entries[0][0][0], entries[-1][0][0]

    def held_rows(self, rows: Sequence[bytes]) -> List[bytes]:
        """Of ``rows`` (sorted), those the memstore holds a cell of.  The
        rows outside its :meth:`span` are cut off by bisect; each row inside
        is one forward bisect of the entries."""
        span = self.span()
        if span is None:
            return []
        entries = self._entries
        held = []
        lo = 0
        for row in rows[bisect.bisect_left(rows, span[0]):
                        bisect.bisect_right(rows, span[1])]:
            lo = bisect.bisect_left(entries, ((row,),), lo)
            if entries[lo][0][0] == row:
                held.append(row)
        return held

    def clear(self) -> None:
        self._entries.clear()
        self._size_bytes = 0

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def __len__(self) -> int:
        return len(self._entries)
