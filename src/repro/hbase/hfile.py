"""Immutable store files (HBase HFiles) with block index and bloom filter.

A flush writes the memstore snapshot into a :class:`StoreFile`.  The file
keeps a sparse *block index* (first row key of every block) so scans starting
mid-file seek instead of reading from the top, and a row-key *bloom filter*
so point Gets can skip files that certainly do not contain the row -- both
mechanisms HBase relies on and both metered by the cost model.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Sequence, Tuple

from repro.hbase.cell import Cell

DEFAULT_BLOCK_CELLS = 64


#: the two 64-bit halves a row's bloom positions are derived from
RowHash = Tuple[int, int]
_LOW_64 = (1 << 64) - 1


def row_hash(row: bytes) -> RowHash:
    """Hash a row key once; every bloom it is added to or probed against
    derives its bit positions from this pair (double hashing)."""
    digest = int.from_bytes(hashlib.blake2b(row, digest_size=16).digest(), "big")
    return digest >> 64, (digest & _LOW_64) | 1


class BloomFilter:
    """A classic k-hash bloom filter over row keys, fed :func:`row_hash`."""

    def __init__(self, expected_keys: int, bits_per_key: int = 10, num_hashes: int = 3) -> None:
        self._num_bits = max(64, expected_keys * bits_per_key)
        self._bits = bytearray((self._num_bits + 7) // 8)
        self._num_hashes = num_hashes

    def add(self, hashed: RowHash) -> None:
        h1, h2 = hashed
        bits, num_bits = self._bits, self._num_bits
        for i in range(self._num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, hashed: RowHash) -> bool:
        return bool(self.admitted((hashed,)))

    def admitted(self, hashes: Sequence[RowHash]) -> List[int]:
        """The indexes of the ``hashes`` the filter might contain, asked in
        one loop: a batch of rows costs one call, not one per row."""
        bits, num_bits = self._bits, self._num_bits
        probes = range(self._num_hashes)
        admitted = []
        for index, (h1, h2) in enumerate(hashes):
            for i in probes:
                pos = (h1 + i * h2) % num_bits
                if not bits[pos >> 3] & (1 << (pos & 7)):
                    break
            else:
                admitted.append(index)
        return admitted


class StoreFile:
    """An immutable, sorted run of cells plus its index structures.

    The cells arrive in KeyValue order -- a memstore snapshot, a merge of
    files, a split half; a bulk load sorts its loose cells first -- and the
    file keeps that order, so of two cells with equal :meth:`Cell.sort_key`
    the builder lists the newer write first.
    """

    _next_id = 0

    def __init__(self, cells: Sequence[Cell], block_cells: int = DEFAULT_BLOCK_CELLS) -> None:
        self._cells: List[Cell] = list(cells)
        self._rows: List[bytes] = [c.row for c in self._cells]
        self._block_cells = block_cells
        self._block_index: List[bytes] = self._rows[::block_cells]
        #: bytes per block, summed once: the file never changes, and every
        #: scan is charged by the block
        self._block_bytes: List[int] = []
        # one pass: each cell sized once, each distinct row hashed once (in
        # KeyValue order a row's cells are adjacent)
        hashes: List[RowHash] = []
        last_row = None
        for start in range(0, len(self._cells), block_cells):
            nbytes = 0
            for cell in self._cells[start:start + block_cells]:
                nbytes += cell.heap_size()
                if cell.row != last_row:
                    last_row = cell.row
                    hashes.append(row_hash(last_row))
            self._block_bytes.append(nbytes)
        self.size_bytes = sum(self._block_bytes)
        # the bloom is sized by the distinct rows, so it is filled after them
        self._bloom = BloomFilter(max(1, len(hashes)))
        for hashed in hashes:
            self._bloom.add(hashed)
        StoreFile._next_id += 1
        self.file_id = StoreFile._next_id
        #: HDFS placement; None means "assume local" (tests, bulk loads)
        self.hdfs_file = None

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def first_row(self) -> Optional[bytes]:
        return self._rows[0] if self._rows else None

    @property
    def last_row(self) -> Optional[bytes]:
        return self._rows[-1] if self._rows else None

    def might_contain_row(self, hashed: RowHash) -> bool:
        """Bloom check of a :func:`row_hash`: False means the row is
        certainly not in this file, so a Get neither seeks nor reads it."""
        return self._bloom.might_contain(hashed)

    def admitted_rows(self, hashes: Sequence[RowHash]) -> List[int]:
        """Bloom check of a batch of :func:`row_hash` es: the indexes of the
        rows that might be in this file, each asked as
        :meth:`might_contain_row` asks it."""
        return self._bloom.admitted(hashes)

    def row_cells(self, row: bytes, lo: int = 0) -> Tuple[List[Cell], int]:
        """The cells of ``row`` and the index where they start, bisecting
        from ``lo``.  A batch read in row order passes each answer's index
        on as the next ``lo``, so every bisect moves forward; a repeated row
        starts where it started before."""
        rows = self._rows
        lo = bisect.bisect_left(rows, row, lo)
        return self._cells[lo:bisect.bisect_right(rows, row, lo)], lo

    def block_start_keys(self) -> List[bytes]:
        """First row key of every block -- the sparse block index.

        Replica-aware routing splits a hot region's scan range at these
        keys, so each piece aligns with whole blocks and the per-piece
        charges sum exactly to the unsplit scan's charge.
        """
        return list(self._block_index)

    def _cell_span(self, start_row: bytes, stop_row: Optional[bytes]) -> Tuple[int, int]:
        """Cell indexes ``[lo, hi)`` holding ``start_row <= row < stop_row``."""
        lo = bisect.bisect_left(self._rows, start_row) if start_row else 0
        hi = len(self._rows) if stop_row is None \
            else bisect.bisect_left(self._rows, stop_row, lo)
        return lo, hi

    def scan(self, start_row: bytes = b"", stop_row: bytes | None = None) -> List[Cell]:
        """The cells with ``start_row <= row < stop_row``, in KeyValue order."""
        lo, hi = self._cell_span(start_row, stop_row)
        return self._cells[lo:hi]

    def scanned_bytes(self, start_row: bytes = b"", stop_row: bytes | None = None) -> int:
        """Bytes a scan over the given range touches (block-granular)."""
        return sum(nbytes for _, nbytes in self.blocks_for_range(start_row, stop_row))

    def blocks_for_range(
        self, start_row: bytes = b"", stop_row: bytes | None = None
    ) -> List[Tuple[int, int]]:
        """The ``(block_index, nbytes)`` pairs a scan of the range reads.

        HBase reads whole blocks, so the range is rounded out to block
        boundaries; the per-block sizes sum exactly to ``scanned_bytes``
        for the same range.  Block indices are stable for the lifetime of
        this (immutable) file, which is what lets the region-server block
        cache key on ``(file_id, block_index)``.
        """
        lo, hi = self._cell_span(start_row, stop_row)
        if lo >= hi:
            return []
        bc = self._block_cells
        first_block = lo // bc
        last_block = (hi + bc - 1) // bc  # exclusive
        return list(enumerate(self._block_bytes[first_block:last_block],
                              first_block))
