"""Immutable store files (HBase HFiles) with block index, bloom filter and
row index.

A flush writes the memstore snapshot into a :class:`StoreFile`.  The file
keeps a sparse *block index* (first row key of every block) so scans starting
mid-file seek instead of reading from the top, and a row-key *bloom filter*
so point Gets can skip files that certainly do not contain the row -- both
mechanisms HBase relies on and both metered by the cost model.  Its *row
index* (where each row's cells start) and :class:`RowFacts` (what a scan
needs to hand rows out as slices) are what the simulator computes with,
and are never billed.  The bloom's answers are billed, building it is not:
a row the file holds is admitted by its row index (a bloom never misses a
key it was built from), so the bits are built on the first ask about a row
the file does not hold.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import struct
from array import array
from itertools import compress, islice
from operator import attrgetter, methodcaller, ne
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.hbase.cell import Cell, CellType

DEFAULT_BLOCK_CELLS = 64


#: the two 64-bit halves a row's bloom positions are derived from
RowHash = Tuple[int, int]
#: a row's 16-byte blake2b digest, and its two big-endian halves
_DIGEST = functools.partial(hashlib.blake2b, digest_size=16)
_DIGEST_BYTES = methodcaller("digest")
_HALVES = struct.Struct(">QQ")
_ROW = attrgetter("row")


def row_hash(row: bytes) -> RowHash:
    """Hash a row key once; every bloom it is probed against derives its
    bit positions from this pair (double hashing)."""
    h1, h2 = _HALVES.unpack(hashlib.blake2b(row, digest_size=16).digest())
    return h1, h2 | 1


class BloomFilter:
    """A classic k-hash bloom filter over row keys: key ``k`` sets the
    positions ``(h1 + i * h2) mod bits``, ``i < 3``, of its
    :func:`row_hash` ``(h1, h2)``."""

    def __init__(self, keys: Sequence[bytes], bits_per_key: int = 10) -> None:
        num_bits = self._num_bits = max(64, len(keys) * bits_per_key)
        bits = self._bits = bytearray((num_bits + 7) // 8)
        # one loop over the distinct keys: the digests stream from C-level
        # maps (no list of them) and the three positions are set inline,
        # stepping by h2 modulo the size -- the same positions, small ints
        for h1, h2 in map(_HALVES.unpack, map(_DIGEST_BYTES, map(_DIGEST, keys))):
            pos = h1 % num_bits
            step = (h2 | 1) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            pos = (pos + step) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            pos = (pos + step) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)

    def admitted(self, hashes: Sequence[RowHash]) -> List[int]:
        """The indexes of the ``hashes`` the filter might contain, asked in
        one loop: a batch of rows costs one call, not one per row."""
        bits, num_bits = self._bits, self._num_bits
        admitted = []
        for index, (h1, h2) in enumerate(hashes):
            for i in (0, 1, 2):
                pos = (h1 + i * h2) % num_bits
                if not bits[pos >> 3] & (1 << (pos & 7)):
                    break
            else:
                admitted.append(index)
        return admitted


class RowFacts:
    """What a scan needs to hand a store file's rows out as slices.

    ``row_bytes[i]`` is the bytes row ``i``'s cells carry.  ``dirty`` lists,
    in order, the rows a reader must resolve: those holding a delete
    marker, or two adjacent cells of one column (versions, or a rewrite at
    one timestamp).  A row that is not dirty has one put per column, so a
    read without a time range that asks for all of them sees exactly its
    cells.  ``columns`` are the ``(family, qualifier)`` pairs of the file's
    puts.
    """

    __slots__ = ("row_bytes", "dirty", "columns")

    def __init__(self, cells: Sequence[Cell]) -> None:
        row_bytes = array("I")
        dirty: List[int] = []
        columns: Set[Tuple[str, str]] = set()
        put = CellType.PUT
        row = column = None
        nbytes, clean = 0, True
        for cell in cells:
            if cell.row != row:
                if row is not None:
                    row_bytes.append(nbytes)
                    if not clean:
                        dirty.append(len(row_bytes) - 1)
                row, column = cell.row, None
                nbytes, clean = 0, True
            nbytes += cell.heap_size()
            previous, column = column, (cell.family, cell.qualifier)
            if cell.cell_type != put or column == previous:
                clean = False
            else:
                columns.add(column)
        if row is not None:
            row_bytes.append(nbytes)
            if not clean:
                dirty.append(len(row_bytes) - 1)
        self.row_bytes = row_bytes
        self.dirty = dirty
        self.columns: FrozenSet[Tuple[str, str]] = frozenset(columns)

    def dirty_in(self, lo: int, hi: int) -> List[int]:
        """The dirty rows among positions ``[lo, hi)``."""
        dirty = self.dirty
        return dirty[bisect.bisect_left(dirty, lo):bisect.bisect_left(dirty, hi)]


class StoreFile:
    """An immutable, sorted run of cells plus its index structures.

    The cells arrive in KeyValue order -- a memstore snapshot, a merge of
    files, a split half; a bulk load sorts its loose cells first -- and the
    file keeps that order, so of two cells with equal :meth:`Cell.sort_key`
    the builder lists the newer write first.

    The *row index* is built with the file, by C-level maps over the cells:
    ``row_keys`` are the distinct row keys in order, and row ``i``'s cells
    are ``cells[row_starts[i]:row_starts[i + 1]]`` (``row_starts`` ends with
    the cell count).  Ranged scans, Gets, bloom checks and the block lookup
    bisect it.  Two structures cost a second pass, so each waits for its
    first use and is kept from then on: the :class:`RowFacts` a sliced scan
    needs, and the bloom, built from ``row_keys`` in one loop when the file
    is first asked about a row it does not hold.  A flush, split, bulk load
    or compaction hashes nothing; a file that only scans or Gets of its own
    rows read, or that is compacted away first, never builds either.
    """

    def __init__(self, cells: List[Cell], block_cells: int = DEFAULT_BLOCK_CELLS,
                 resolved_versions: Optional[int] = None) -> None:
        # the file keeps the list it is handed (every builder hands a fresh
        # one) and never changes it
        self._cells = cells = cells if isinstance(cells, list) else list(cells)
        self._block_cells = block_cells
        #: bytes per block, summed once: the file never changes, and every
        #: scan is charged by the block
        self._block_bytes: List[int] = [
            sum(map(Cell.heap_size, cells[first:first + block_cells]))
            for first in range(0, len(cells), block_cells)]
        self.size_bytes = sum(self._block_bytes)
        # in KeyValue order a row's cells are adjacent: a row starts where
        # a cell's row differs from the one before it
        starts = self.row_starts = array("I", [0] if cells else [])
        starts.extend(compress(range(1, len(cells)), map(
            ne, map(_ROW, cells), map(_ROW, islice(cells, 1, None)))))
        self.row_keys: List[bytes] = list(map(_ROW, map(cells.__getitem__, starts)))
        starts.append(len(cells))
        self._bloom: Optional[BloomFilter] = None
        #: the version limit a major compaction resolved every row at (no
        #: tombstones, no rewrites, at most that many versions per column);
        #: None for a file that may hold anything
        self.resolved_versions = resolved_versions
        self._facts: Optional[RowFacts] = None
        #: HDFS placement; None means "assume local" (tests, bulk loads)
        self.hdfs_file = None

    def __len__(self) -> int:
        return len(self._cells)

    def row_facts(self) -> RowFacts:
        """The file's :class:`RowFacts`, built on the first call."""
        facts = self._facts
        if facts is None:
            facts = self._facts = RowFacts(self._cells)
        return facts

    def bloom(self) -> BloomFilter:
        """The file's bloom over ``row_keys``, built on the first call.  Two
        threads that race here build the same bits."""
        bloom = self._bloom
        if bloom is None:
            bloom = self._bloom = BloomFilter(self.row_keys)
        return bloom

    @property
    def first_row(self) -> Optional[bytes]:
        return self.row_keys[0] if self.row_keys else None

    @property
    def last_row(self) -> Optional[bytes]:
        return self.row_keys[-1] if self.row_keys else None

    def admitted_rows(self, rows: Sequence[bytes],
                      hashes: Sequence[RowHash]) -> List[int]:
        """Bloom check of a batch of sorted ``rows`` and their
        :func:`row_hash` es: the indexes, in order, of the rows that might
        be in this file.  A row left out is certainly not in it, so a Get
        neither seeks nor reads the file for it.

        A row the file holds is admitted by a forward bisect of the row
        index, exactly as its bloom would admit it; only the others -- rows
        outside the file's span included, whose false positives are billed
        -- ask the bloom (:meth:`bloom`)."""
        keys = self.row_keys
        end = len(keys)
        admitted: List[int] = []
        absent: List[int] = []
        lo = 0
        for index, row in enumerate(rows):
            lo = bisect.bisect_left(keys, row, lo)
            if lo < end and keys[lo] == row:
                admitted.append(index)
            else:
                absent.append(index)
        if absent:
            passed = self.bloom().admitted(list(map(hashes.__getitem__, absent)))
            admitted.extend(map(absent.__getitem__, passed))
            admitted.sort()
        return admitted

    def row_cells(self, row: bytes, lo: int = 0) -> Tuple[List[Cell], int]:
        """The cells of ``row`` and the row position the search stopped at,
        bisecting the row index from position ``lo``.  A batch read in row
        order passes each answer's position on as the next ``lo``, so every
        bisect moves forward; a repeated row starts where it started
        before."""
        keys = self.row_keys
        lo = bisect.bisect_left(keys, row, lo)
        if lo < len(keys) and keys[lo] == row:
            return self._cells[self.row_starts[lo]:self.row_starts[lo + 1]], lo
        return [], lo

    def row_span(self, start_row: bytes, stop_row: Optional[bytes]) -> Tuple[int, int]:
        """Row positions ``[lo, hi)`` holding ``start_row <= row < stop_row``."""
        keys = self.row_keys
        lo = bisect.bisect_left(keys, start_row) if start_row else 0
        hi = len(keys) if stop_row is None else bisect.bisect_left(keys, stop_row, lo)
        return lo, hi

    def row_run(self, lo: int, hi: int) -> List[Cell]:
        """The cells of the rows at positions ``[lo, hi)``, as one run."""
        starts = self.row_starts
        return self._cells[starts[lo]:starts[hi]]

    def row_slices(self, lo: int, hi: int) -> List[List[Cell]]:
        """The cells of the rows at positions ``[lo, hi)``, one slice each."""
        starts = self.row_starts
        return list(map(self._cells.__getitem__,
                        map(slice, starts[lo:hi], starts[lo + 1:hi + 1])))

    def block_start_keys(self) -> List[bytes]:
        """First row key of every block -- the sparse block index.

        Replica-aware routing splits a hot region's scan range at these
        keys, so each piece aligns with whole blocks and the per-piece
        charges sum exactly to the unsplit scan's charge.
        """
        return [cell.row for cell in self._cells[::self._block_cells]]

    def _cell_span(self, start_row: bytes, stop_row: Optional[bytes]) -> Tuple[int, int]:
        """Cell indexes ``[lo, hi)`` holding ``start_row <= row < stop_row``."""
        lo, hi = self.row_span(start_row, stop_row)
        return self.row_starts[lo], self.row_starts[hi]

    def scan(self, start_row: bytes = b"", stop_row: bytes | None = None) -> List[Cell]:
        """The cells with ``start_row <= row < stop_row``, in KeyValue order."""
        return self.row_run(*self.row_span(start_row, stop_row))

    def blocks_for_range(
        self, start_row: bytes = b"", stop_row: bytes | None = None
    ) -> List[Tuple[int, int]]:
        """The ``(block_index, nbytes)`` pairs a scan of the range reads.

        HBase reads whole blocks, so the range is rounded out to block
        boundaries: their sizes summed are the bytes a scan of the range
        touches in this file.  Block indices are stable for the lifetime of
        this (immutable) file, which is what lets the region-server block
        cache key on ``(store_file, block_index)``.
        """
        lo, hi = self._cell_span(start_row, stop_row)
        if lo >= hi:
            return []
        bc = self._block_cells
        first_block = lo // bc
        last_block = (hi + bc - 1) // bc  # exclusive
        return list(enumerate(self._block_bytes[first_block:last_block],
                              first_block))
