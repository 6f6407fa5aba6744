"""SHC's connection cache (section V.B.1).

``ConnectionFactory.create_connection`` is heavyweight (ZooKeeper round
trips, meta cache warm-up), so SHC keeps a pool keyed by the connection
configuration.  Entries carry a reference count and the timestamp at which
the count last dropped to zero; a housekeeping pass lazily evicts entries
that have been idle longer than ``connectionCloseDelay`` (10 minutes by
default).  Cache hits skip the setup cost entirely -- the difference is
metered and shows up in the ablation benchmark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.cost import CostModel
from repro.common.metrics import CostLedger
from repro.common.simclock import SimClock
from repro.hbase.client import Configuration, Connection, ConnectionFactory
from repro.hbase.security import UserGroupInformation

DEFAULT_CLOSE_DELAY_S = 600.0  # the paper's 10-minute default


def _cache_key(conf: Configuration) -> str:
    """Cache key: the configuration -- the cluster, the client host (one
    JVM-local cache per executor) and whatever retry knobs the connection
    is built with, so a read never inherits another's deadline."""
    conf.cluster_key()  # a configuration without a quorum names no cluster
    return "|".join(f"{key}={conf[key]}" for key in sorted(conf))


@dataclass
class _CacheEntry:
    connection: Connection
    refcount: int = 0
    idle_since: Optional[float] = None


class SHCConnectionCache:
    """A reference-counted connection pool with lazy eviction.

    Thread-safe: with the parallel stage runner, every executor-slot thread
    acquires and releases pooled connections concurrently, so the entry map
    and the per-entry refcounts mutate only under the cache lock.  The lock
    also closes the check-then-create race -- two tasks missing on the same
    key would otherwise both pay connection setup and leak one connection.
    """

    def __init__(self, close_delay_s: float = DEFAULT_CLOSE_DELAY_S) -> None:
        self.close_delay_s = close_delay_s
        self._lock = threading.RLock()
        self._entries: Dict[str, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def acquire(
        self,
        conf: Configuration,
        clock: SimClock,
        cost: CostModel,
        ledger: Optional[CostLedger] = None,
        ugi: Optional[UserGroupInformation] = None,
    ) -> Connection:
        """Get a pooled connection, creating (and charging for) one on miss."""
        key = _cache_key(conf)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry.connection.closed:
                self.hits += 1
                entry.refcount += 1
                entry.idle_since = None
                if ugi is not None:
                    entry.connection.ugi = ugi
                return entry.connection
            self.misses += 1
            if ledger is not None:
                ledger.charge(cost.connection_setup_s, "shc.connection_setups")
            connection = ConnectionFactory.create_connection(conf, ugi)
            self._entries[key] = _CacheEntry(connection, refcount=1)
            return connection

    def release(self, conf: Configuration, clock: SimClock) -> None:
        """Drop one reference; idle connections become eviction candidates."""
        with self._lock:
            entry = self._entries.get(_cache_key(conf))
            if entry is None:
                return
            entry.refcount = max(0, entry.refcount - 1)
            if entry.refcount == 0:
                entry.idle_since = clock.now()

    def housekeeping(self, clock: SimClock) -> int:
        """The lazy deletion pass; returns how many connections were closed."""
        now = clock.now()
        evicted = 0
        with self._lock:
            for key in list(self._entries):
                entry = self._entries[key]
                if (
                    entry.refcount == 0
                    and entry.idle_since is not None
                    and now - entry.idle_since >= self.close_delay_s
                ):
                    entry.connection.close()
                    del self._entries[key]
                    evicted += 1
        return evicted

    def size(self) -> int:
        with self._lock:
            return len(self._entries)

    def active_refcount(self) -> int:
        """Total outstanding references across all pooled connections."""
        with self._lock:
            return sum(entry.refcount for entry in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                entry.connection.close()
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: process-wide cache instance used by HBaseRelation (tests may swap it)
DEFAULT_CONNECTION_CACHE = SHCConnectionCache()
