"""The executor-side partition cache behind ``DataFrame.cache()/persist()``.

Spark's ``CacheManager`` keeps materialised query fragments in executor
memory so repeated references skip recomputation; this module reproduces
that tier for the simulation.  Entries are keyed by a *plan fingerprint*
(:func:`repro.sql.fingerprint.plan_fingerprint`), hold one immutable row
list per partition, and are evicted whole, least-recently-used first, when
the byte budget overflows -- a dropped entry is simply recomputed on the
next reference, exactly like Spark's ``MEMORY_ONLY`` storage level.

Correctness under the fault-tolerant runner is the delicate part.  Task
attempts can fail mid-partition and be retried on another host, so
:class:`CachingRDD` buffers rows *per attempt* and publishes the whole
partition atomically only when the attempt's iterator is exhausted: a
failed attempt publishes nothing.  :meth:`CacheManager.publish` is
put-if-absent, so when two computations of one partition overlap (queries
on two caller threads over one persisted frame) the later publish is a
no-op and a cached partition can never mix rows from different attempts.  Consumers that stop
early (LIMIT) never exhaust the iterator and therefore never publish.

The session owns one manager and drops every entry on ``shutdown()``, the
same lifecycle discipline the shuffle block store follows, so long-lived
sessions do not leak executor memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.rdd import Partition, RDD
from repro.engine.shuffle import estimate_size


class CachedPartition(NamedTuple):
    """One immutable materialised partition of a cached plan."""

    rows: Tuple[object, ...]
    nbytes: int
    host: str


class CacheManagerStats(NamedTuple):
    """Lifetime counters plus current occupancy of one manager."""

    hits: int
    misses: int
    evicted_entries: int
    current_bytes: int
    capacity_bytes: int
    entries: int


class _Entry:
    """Mutable per-fingerprint state (guarded by the manager's lock)."""

    def __init__(self, fingerprint: str, description: str) -> None:
        self.fingerprint = fingerprint
        self.description = description
        #: number of partitions the plan produces, learned at first execution
        self.expected: Optional[int] = None
        self.partitions: Dict[int, CachedPartition] = {}
        self.nbytes = 0
        #: set when the entry alone exceeds the budget; stops re-admission thrash
        self.oversized = False

    def complete(self) -> bool:
        return (self.expected is not None
                and len(self.partitions) == self.expected
                and not self.oversized)


class CacheManager:
    """Byte-budgeted LRU store of materialised plan fragments.

    All mutation happens under one lock: callers' own threads can run
    queries over the same cached plan concurrently, each publishing
    partitions from its own thread.  The default budget is a session's
    partition cache: 64 MiB.
    """

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        #: fingerprint -> entry, in LRU order (least recently used first)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evicted_entries = 0

    # -- persist / unpersist ----------------------------------------------
    def register(self, fingerprint: str, description: str = "") -> None:
        """Mark a plan for caching (``persist()``); idempotent."""
        with self._lock:
            if fingerprint not in self._entries:
                self._entries[fingerprint] = _Entry(fingerprint, description)

    def unregister(self, fingerprint: str) -> bool:
        """Drop a plan and its data (``unpersist()``); False if unknown."""
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is None:
                return False
            self._current_bytes -= entry.nbytes
            return True

    def is_registered(self, fingerprint: str) -> bool:
        """Whether ``persist()`` was called for this fingerprint."""
        with self._lock:
            return fingerprint in self._entries

    def has_registrations(self) -> bool:
        """Cheap gate: False means the planner can skip fingerprinting."""
        with self._lock:
            return bool(self._entries)

    def clear(self) -> int:
        """Drop every entry (session shutdown); returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
        return dropped

    # -- execution-side protocol ------------------------------------------
    def expect_partitions(self, fingerprint: str, num_partitions: int) -> None:
        """Pin the partition count the plan produces this run.

        If a previous run saw a different count (the underlying region
        layout changed between runs), the stale partial data is dropped --
        mixing partitions from two different layouts could duplicate or
        lose rows.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return
            if entry.expected is not None and entry.expected != num_partitions:
                self._current_bytes -= entry.nbytes
                entry.partitions = {}
                entry.nbytes = 0
                entry.oversized = False
            entry.expected = num_partitions

    def read_partition(self, fingerprint: str, index: int) -> Optional[CachedPartition]:
        """One partition's rows if published, bumping the entry's recency."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None  # concurrently unpersisted; not a cache miss
            cached = entry.partitions.get(index)
            if cached is None:
                self._misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            return cached

    def publish(self, fingerprint: str, index: int, rows: Sequence[object],
                nbytes: int, host: str) -> Tuple[bool, int, int]:
        """Atomically publish one fully-computed partition (put-if-absent).

        Returns ``(published, evicted_entries, evicted_bytes)``.  The first
        attempt to exhaust a partition's iterator wins; later publishes for
        the same ``(fingerprint, index)`` -- an overlapping computation on
        another caller thread -- are no-ops, so exactly one attempt's output is
        ever visible.  Publishing past the byte budget evicts other entries
        LRU-first; an entry that alone cannot fit is marked oversized and
        excluded from caching until unpersisted or dropped.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or entry.oversized:
                return False, 0, 0
            if index in entry.partitions:
                return False, 0, 0
            entry.partitions[index] = CachedPartition(tuple(rows), nbytes, host)
            entry.nbytes += nbytes
            self._current_bytes += nbytes
            self._entries.move_to_end(fingerprint)
            evicted_entries = 0
            evicted_bytes = 0
            while self._current_bytes > self.capacity_bytes:
                # evict data LRU-first, but keep the persist() registration:
                # a dropped entry recomputes (and re-caches) on next use
                victim = next(
                    (e for e in self._entries.values() if e.nbytes > 0), None
                )
                if victim is None or victim.fingerprint == fingerprint:
                    # everything else is gone and we still do not fit: this
                    # plan is bigger than the whole cache
                    self._current_bytes -= entry.nbytes
                    evicted_bytes += entry.nbytes
                    entry.partitions = {}
                    entry.nbytes = 0
                    entry.oversized = True
                    return False, evicted_entries, evicted_bytes
                self._current_bytes -= victim.nbytes
                evicted_entries += 1
                evicted_bytes += victim.nbytes
                victim.partitions = {}
                victim.nbytes = 0
                self._evicted_entries += 1
            return True, evicted_entries, evicted_bytes

    def peek_host(self, fingerprint: str, index: int) -> Optional[str]:
        """The publisher host of a partition, with no stats/LRU side effects.

        Used by the scheduler's locality probe (``preferred_locations``),
        which must not distort hit/miss accounting.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            cached = entry.partitions.get(index)
            return cached.host if cached is not None else None

    def snapshot(self, fingerprint: str) -> Optional[Dict[int, CachedPartition]]:
        """A consistent copy of a *complete* entry's partitions, or None.

        The returned dict keeps the row tuples alive even if the entry is
        evicted mid-job, so a running query never observes a half-dropped
        cache entry.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or not entry.complete():
                return None
            self._entries.move_to_end(fingerprint)
            return dict(entry.partitions)

    # -- introspection ----------------------------------------------------
    def cached_bytes(self, fingerprint: str) -> int:
        """Bytes currently cached for one fingerprint (0 if unknown)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.nbytes if entry is not None else 0

    def stats(self) -> CacheManagerStats:
        """Lifetime counters plus occupancy, as one snapshot."""
        with self._lock:
            return CacheManagerStats(self._hits, self._misses,
                                     self._evicted_entries,
                                     self._current_bytes, self.capacity_bytes,
                                     len(self._entries))

    def __repr__(self) -> str:
        s = self.stats()
        return (f"CacheManager({s.current_bytes}/{s.capacity_bytes}B, "
                f"{s.entries} entries, hits={s.hits}, misses={s.misses})")


class CachingRDD(RDD):
    """Write-through wrapper: serves published partitions, computes the rest.

    Wraps the physical plan's RDD for a persisted-but-not-yet-complete
    fingerprint.  A partition already published by an earlier run (or an
    earlier task of this run) is served from memory at
    ``cached_partition_bytes_per_sec``; everything else computes through the
    parent lineage, buffering rows per attempt and publishing atomically on
    exhaustion -- see the module docstring for why that ordering is what
    makes retries safe.
    """

    def __init__(self, parent: RDD, manager: CacheManager, fingerprint: str) -> None:
        super().__init__([parent])
        self.manager = manager
        self.fingerprint = fingerprint
        self.manager.expect_partitions(fingerprint, len(parent.partitions()))

    def partitions(self) -> List[Partition]:
        return self.parents[0].partitions()

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        host = self.manager.peek_host(self.fingerprint, partition.index)
        if host:
            return (host,)
        return self.parents[0].preferred_locations(partition)

    def compute(self, partition: Partition, ctx) -> Iterator[object]:
        cached = self.manager.read_partition(self.fingerprint, partition.index)
        if cached is not None:
            cost = ctx._scheduler.cost
            ctx.ledger.charge(cached.nbytes / cost.cached_partition_bytes_per_sec,
                              "engine.cache.read_bytes", cached.nbytes)
            ctx.ledger.count("engine.cache.hits")
            return iter(cached.rows)
        ctx.ledger.count("engine.cache.misses")
        return self._compute_and_publish(partition, ctx)

    def _compute_and_publish(self, partition: Partition, ctx) -> Iterator[object]:
        buffer: List[object] = []
        for row in self.parents[0].compute(partition, ctx):
            buffer.append(row)
            yield row
        # reaching here means the attempt exhausted the partition: publish it
        # whole.  An early-closed generator (LIMIT) or a failed attempt never
        # gets here, so partial outputs are never visible to anyone.
        nbytes = sum(estimate_size(r) for r in buffer)
        published, evicted, _evicted_bytes = self.manager.publish(
            self.fingerprint, partition.index, buffer, nbytes, ctx.host
        )
        if published:
            ctx.ledger.count("engine.cache.write_bytes", nbytes)
        if evicted:
            ctx.ledger.count("engine.cache.evictions", evicted)
        if ctx.span.enabled:
            ctx.span.event("cache-publish", fingerprint=self.fingerprint,
                           partition=partition.index, published=published,
                           nbytes=nbytes)


class CachedRDD(RDD):
    """Serves a fully-materialised cache entry; no upstream lineage at all.

    Built from a :meth:`CacheManager.snapshot`, so concurrent eviction
    cannot pull partitions out from under a running job.  Each partition
    prefers the host that originally published it (memory locality).
    """

    def __init__(self, fingerprint: str,
                 snapshot: Dict[int, CachedPartition]) -> None:
        super().__init__()
        self.fingerprint = fingerprint
        self._snapshot = snapshot

    def partitions(self) -> List[Partition]:
        return [Partition(i) for i in sorted(self._snapshot)]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        host = self._snapshot[partition.index].host
        return (host,) if host else ()

    def compute(self, partition: Partition, ctx) -> Iterator[object]:
        cached = self._snapshot[partition.index]
        cost = ctx._scheduler.cost
        ctx.ledger.charge(cached.nbytes / cost.cached_partition_bytes_per_sec,
                          "engine.cache.read_bytes", cached.nbytes)
        ctx.ledger.count("engine.cache.hits")
        return iter(cached.rows)
