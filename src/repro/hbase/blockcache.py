"""The region-server block cache: an LRU over HFile blocks.

Real HBase fronts every store-file read with a per-server ``BlockCache``:
the first scan of a block pays the HDFS read (disk, and the network too if
the replica is remote), every subsequent scan of the same block is a memory
read.  Store files are immutable, so a cached block can never be *stale* --
invalidation is purely a lifecycle concern: blocks are dropped when their
file disappears (compaction rewrote it, the region split, moved away, or
the table was dropped) and the whole cache vanishes when the server process
dies.  :class:`~repro.hbase.regionserver.RegionServer` owns at most one
cache and consults it per touched block inside ``scan``; the cost ledger
bills hits at memory bandwidth and misses at the usual HDFS rates, which is
what makes the repeated-scan speedup of ``bench_ablation_caching``
measurable.  With no cache attached (the default) the scan path is
byte-identical to the uncached simulation.

Thread safety: the parallel stage runner scans one region server from many
executor threads at once, so every cache operation is a single critical
section around the LRU dict.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, NamedTuple, Set, Tuple

#: a cached block: which immutable store file (by identity), which block in it
BlockId = Tuple[Hashable, int]


class BlockAccess(NamedTuple):
    """Outcome of one block lookup: hit or miss, plus eviction fallout."""

    hit: bool
    evicted_blocks: int
    evicted_bytes: int


class BlockCacheStats(NamedTuple):
    """A point-in-time snapshot of one cache's lifetime counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    current_bytes: int
    capacity_bytes: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BlockCache:
    """A byte-budgeted LRU cache of HFile blocks for one region server.

    Keys are ``(store_file, block_index)`` pairs (the file by identity) --
    store files are immutable, so the pair identifies the block's bytes
    forever.  ``access`` performs the whole read-through protocol (lookup,
    admit on miss, evict past the budget) in one critical section so
    concurrent scan tasks never observe a half-updated LRU.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        #: block id -> size in bytes, in LRU order (oldest first)
        self._blocks: "OrderedDict[BlockId, int]" = OrderedDict()
        #: store file -> its cached block ids, for O(file) invalidation
        self._by_file: Dict[Hashable, Set[BlockId]] = {}
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # -- the read-through protocol ---------------------------------------
    def access(self, store_file: Hashable, block_index: int, nbytes: int) -> BlockAccess:
        """Look up one block; admit it on a miss, evicting past the budget.

        Returns whether the block was already cached plus how many blocks
        (and bytes) the admission pushed out, so the caller can bill the
        eviction churn to the scan that caused it.  A block larger than the
        whole budget is never admitted (it would evict everything for a
        cache that can still never hold it).
        """
        block_id = (store_file, block_index)
        with self._lock:
            if block_id in self._blocks:
                self._blocks.move_to_end(block_id)
                self._hits += 1
                return BlockAccess(True, 0, 0)
            self._misses += 1
            if nbytes > self.capacity_bytes:
                return BlockAccess(False, 0, 0)
            self._blocks[block_id] = nbytes
            self._by_file.setdefault(store_file, set()).add(block_id)
            self._current_bytes += nbytes
            evicted_blocks = 0
            evicted_bytes = 0
            while self._current_bytes > self.capacity_bytes:
                victim, victim_bytes = self._blocks.popitem(last=False)
                self._drop_file_link(victim)
                self._current_bytes -= victim_bytes
                evicted_blocks += 1
                evicted_bytes += victim_bytes
            self._evictions += evicted_blocks
            return BlockAccess(False, evicted_blocks, evicted_bytes)

    def contains(self, store_file: Hashable, block_index: int) -> bool:
        """Whether a block is currently cached (no LRU side effects)."""
        with self._lock:
            return (store_file, block_index) in self._blocks

    # -- lifecycle invalidation ------------------------------------------
    def invalidate_files(self, store_files: Iterable[Hashable]) -> int:
        """Drop every cached block of the given store files.

        Called when files cease to exist on this server: a compaction
        rewrote them, the region split, was moved away or dropped.  Returns
        the number of blocks dropped.
        """
        dropped = 0
        with self._lock:
            for store_file in store_files:
                for block_id in self._by_file.pop(store_file, ()):
                    nbytes = self._blocks.pop(block_id, None)
                    if nbytes is not None:
                        self._current_bytes -= nbytes
                        dropped += 1
            self._invalidations += dropped
        return dropped

    def clear(self) -> int:
        """Empty the cache (the server process died); returns blocks dropped."""
        with self._lock:
            dropped = len(self._blocks)
            self._blocks.clear()
            self._by_file.clear()
            self._current_bytes = 0
            self._invalidations += dropped
        return dropped

    def _drop_file_link(self, block_id: BlockId) -> None:
        links = self._by_file.get(block_id[0])
        if links is not None:
            links.discard(block_id)
            if not links:
                del self._by_file[block_id[0]]

    # -- introspection ----------------------------------------------------
    def stats(self) -> BlockCacheStats:
        """Lifetime counters plus current occupancy, as one snapshot."""
        with self._lock:
            return BlockCacheStats(self._hits, self._misses, self._evictions,
                                   self._invalidations, self._current_bytes,
                                   self.capacity_bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def __repr__(self) -> str:
        s = self.stats()
        return (f"BlockCache({s.current_bytes}/{s.capacity_bytes}B, "
                f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})")
