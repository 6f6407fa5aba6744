"""Write-ahead log, one per region server.

Every mutation is appended (and "synced") to the WAL before it lands in the
memstore, which is what lets a replacement region server replay unflushed
edits after a crash (section VI.B fault tolerance).  Entries are tagged with
the region so replay can route them, and with the table (HBase's ``WALKey``
carries both) so a change feed can pick out what it subscribed to.

A region's unflushed edits live in the log of the server that serves it, and
nowhere else (docs/fault_tolerance.md, "Hand-over"), so an edit is logged
once, in one log -- which is what lets the log itself keep its readers'
positions and decide what it may let go.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence,
)

from repro.hbase.cell import Cell

_SEQUENCE_ID = attrgetter("sequence_id")


@dataclass(frozen=True)
class WALEntry:
    """One logged mutation batch (an empty one is a flush marker)."""

    region_name: str
    sequence_id: int
    cells: tuple
    table_name: str = ""
    #: heap bytes of ``cells``, summed once when the batch was logged
    nbytes: int = 0
    #: the rows of ``cells`` the region held no cell of when the batch was
    #: applied (``Region.fresh_rows``); marked only while an attached reader
    #: consumes the table, and empty otherwise -- which claims nothing
    fresh: FrozenSet[bytes] = frozenset()


class WriteAheadLog:
    """Append-only log that truncates behind its flushes and its readers."""

    def __init__(self) -> None:
        #: retained entries in sequence order (truncation leaves gaps)
        self._entries: List[WALEntry] = []
        self._next_seq = 0
        #: highest sequence id flushed per region; entries at or below are stale
        self._flushed_seq: Dict[str, int] = {}
        #: attached reader -> the sequence id it has read up to
        self._readers: Dict[Hashable, int] = {}
        #: attached reader -> the tables it consumes, and all of them
        self._tables: Dict[Hashable, FrozenSet[str]] = {}
        self._tailed: FrozenSet[str] = frozenset()

    def append(self, region_name: str, cells: Sequence[Cell],
               table_name: str = "", nbytes: Optional[int] = None,
               fresh: FrozenSet[bytes] = frozenset()) -> int:
        """Log a mutation batch; returns its sequence id.  ``nbytes`` is its
        heap size where the caller has summed it already (the put path),
        ``fresh`` the rows it marks new (:attr:`WALEntry.fresh`)."""
        self._next_seq += 1
        cells = tuple(cells)
        if nbytes is None:
            nbytes = sum(c.heap_size() for c in cells)
        self._entries.append(WALEntry(
            region_name, self._next_seq, cells, table_name, nbytes, fresh))
        return self._next_seq

    def mark_flushed(self, region_name: str, sequence_id: int) -> None:
        """Record that edits up to ``sequence_id`` are durable in store files."""
        current = self._flushed_seq.get(region_name, 0)
        if sequence_id > current:
            self._flushed_seq[region_name] = sequence_id

    def _since(self, sequence_id: int) -> List[WALEntry]:
        """Retained entries strictly after ``sequence_id``, oldest first."""
        return self._entries[
            bisect_right(self._entries, sequence_id, key=_SEQUENCE_ID):]

    def replay(self, region_name: str) -> Iterator[Cell]:
        """Yield unflushed cells for one region, oldest first (crash recovery)."""
        for entry in self._since(self._flushed_seq.get(region_name, 0)):
            if entry.region_name == region_name:
                yield from entry.cells

    def last_sequence_id(self) -> int:
        """Highest sequence id ever handed out (0 when nothing was logged)."""
        return self._next_seq

    def flushed_sequence_id(self, region_name: str) -> int:
        """Highest sequence id known durable in store files for a region."""
        return self._flushed_seq.get(region_name, 0)

    def entries_since(self, region_name: str, sequence_id: int) -> List[WALEntry]:
        """Retained entries for one region strictly after ``sequence_id``.

        This is the replication tail (docs/replication.md): a region replica
        tracks the last sequence id it applied and ships everything newer.
        Unlike :meth:`replay` it is *not* filtered by the flushed watermark,
        but flushed history is kept only while an attached reader is behind
        it (:meth:`truncate`); the unflushed tail always is.
        """
        return [e for e in self._since(sequence_id)
                if e.region_name == region_name]

    # -- readers -------------------------------------------------------------
    def attach(self, reader: Hashable, tables: Iterable[str] = ()) -> None:
        """Start a reader at the log's end: it sees what is appended from
        now.  ``tables`` are the ones whose entries it consumes
        (:meth:`tails`)."""
        self._readers[reader] = self._next_seq
        self._tables[reader] = frozenset(tables)
        self._tailed = frozenset().union(*self._tables.values())

    def tails(self, table_name: str) -> bool:
        """Whether an attached reader consumes ``table_name``'s entries."""
        return table_name in self._tailed

    def detach(self, reader: Hashable) -> None:
        """Forget a reader; it no longer holds anything in the log."""
        self._readers.pop(reader, None)
        self._tables.pop(reader, None)
        self._tailed = frozenset().union(*self._tables.values())

    def unread(self, reader: Hashable) -> List[WALEntry]:
        """Every entry appended since ``reader`` last read (a peek)."""
        return self._since(self._readers[reader])

    def read(self, reader: Hashable) -> List[WALEntry]:
        """Hand ``reader`` what it has not read and move it past that."""
        entries = self.unread(reader)
        if entries:
            self._readers[reader] = entries[-1].sequence_id
        return entries

    def truncate(self) -> None:
        """Drop entries that are flushed and behind every attached reader."""
        read_by_all = min(self._readers.values(), default=self._next_seq)
        flushed = self._flushed_seq
        self._entries = [
            e for e in self._entries
            if e.sequence_id > read_by_all
            or e.sequence_id > flushed.get(e.region_name, 0)
        ]

    def __len__(self) -> int:
        return len(self._entries)
