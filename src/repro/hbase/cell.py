"""Cells -- the atomic unit of HBase storage.

A cell is the tuple ``(row, column family, qualifier, timestamp, type, value)``.
Cells sort by row ascending, then family, then qualifier, then timestamp
*descending* (newest first), matching HBase's ``KeyValue`` comparator; the
memstore, store files and scanners all rely on this order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class CellType(enum.IntEnum):
    """Mutation type carried by a cell (subset of HBase's KeyValue types)."""

    PUT = 4
    DELETE = 8           # delete a specific cell version
    DELETE_COLUMN = 12   # delete all versions of one column
    DELETE_FAMILY = 14   # delete a whole column family for the row


@dataclass(frozen=True, slots=True)
class Cell:
    """One immutable HBase cell (slotted: a loaded cluster holds hundreds of
    thousands, and a ``__dict__`` apiece is most of their footprint)."""

    row: bytes
    family: str
    qualifier: str
    timestamp: int
    value: bytes = b""
    cell_type: CellType = CellType.PUT

    def sort_key(self) -> Tuple[bytes, str, str, int, int]:
        """Key realising the KeyValue comparator (timestamp descending).

        Within identical coordinates, delete markers sort before puts (higher
        type code first) so scanners see the tombstone before the shadowed
        value -- same tie-break HBase uses.
        """
        return (self.row, self.family, self.qualifier, -self.timestamp, -int(self.cell_type))

    def heap_size(self) -> int:
        """Approximate on-disk / in-memory footprint in bytes."""
        return len(self.row) + len(self.family) + len(self.qualifier) + len(self.value) + 12

    def is_delete(self) -> bool:
        return self.cell_type != CellType.PUT

    def shadows(self, other: "Cell") -> bool:
        """True when this delete marker hides ``other`` from readers.

        The rule, pair by pair; a scan applies it by position instead
        (``region._visible_rows``): in KeyValue order a marker precedes
        everything it hides.
        """
        if not self.is_delete() or self.row != other.row or self.family != other.family:
            return False
        if self.cell_type == CellType.DELETE_FAMILY:
            return other.timestamp <= self.timestamp
        if self.qualifier != other.qualifier:
            return False
        if self.cell_type == CellType.DELETE_COLUMN:
            return other.timestamp <= self.timestamp
        return other.timestamp == self.timestamp


def compare_cells(a: Cell, b: Cell) -> int:
    """Three-way comparison in KeyValue order."""
    ka, kb = a.sort_key(), b.sort_key()
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0
