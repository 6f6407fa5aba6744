"""Change-data capture: a WAL-tailing change stream for base tables.

Materialized-view maintenance (docs/views.md) needs every Put and Delete
that lands in a base table, delivered exactly once and in a deterministic
order, regardless of region splits, balance moves and server crashes.  The
substrate keeps the books already: an edit is logged once, in the log of the
server that served its region (docs/fault_tolerance.md, "Hand-over"), every
entry names its table, and a :class:`~repro.hbase.wal.WriteAheadLog` keeps
the position of each reader attached to it.  What is left for the stream:

- A **subscription** is a name, a set of tables and a callback.  Subscribing
  attaches a reader of that name at the end of every server's log, so a
  consumer that starts from a freshly materialized snapshot sees exactly the
  changes the snapshot missed.
- :meth:`CDCStream.pump` (driven from ``HBaseCluster.run_maintenance``)
  reads each server's log once per subscription and ships what it read
  table by table.  A region that moves, splits or fails over leaves its
  history in the log it was written to -- a log outlives its server's
  process and keeps what an attached reader has not read -- and continues
  in its new server's log: nothing is lost, nothing delivered twice.
- Shipping is billed like replication, to a cluster-owned
  :class:`~repro.common.metrics.CostLedger` (``hbase.cdc.*``), never a
  query ledger; :meth:`CDCStream.lag_s` prices the unshipped tail in
  simulated seconds -- the freshness signal behind ``sql.view.staleness``.

With CDC never enabled (``cluster.cdc is None``, the default) nothing in
this module runs and every ledger stays byte-identical to the seed.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Set,
    Tuple,
)

from repro.common.errors import HBaseError
from repro.common.metrics import CostLedger
from repro.hbase.cell import Cell
from repro.hbase.wal import WALEntry, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster

_ROW = attrgetter("row")

#: a consumer callback: (table name, cells in delivery order, fresh rows)
#: -> None.  A fresh row is one its region held no cell of before the one
#: delivered entry that wrote it (:attr:`WALEntry.fresh`); a row two
#: delivered entries write is never fresh
ChangeCallback = Callable[[str, List[Cell], FrozenSet[bytes]], None]


class _Subscription(NamedTuple):
    """One consumer: its name is its reader's name in every server's log."""

    name: str
    tables: List[str]
    callback: ChangeCallback


def _fresh(entries: List[WALEntry]) -> FrozenSet[bytes]:
    """The rows the entries mark fresh, less any row two of them write."""
    marked = [e for e in entries if e.fresh]
    if not marked:
        return frozenset()
    written: Set[bytes] = set()
    twice: Set[bytes] = set()
    for entry in entries:
        rows = set(map(_ROW, entry.cells))
        twice |= written & rows
        written |= rows
    return frozenset().union(*(e.fresh for e in marked)) - twice


class CDCStream:
    """The change-data-capture hub for one cluster.

    Poll-based and deterministic: no background threads, no timestamps --
    delivery order is (table, server id, WAL sequence), which makes
    maintenance replayable under the chaos suite's pinned seeds.
    """

    def __init__(self, cluster: "HBaseCluster") -> None:
        self.cluster = cluster
        #: background shipping cost; counters land in ``cluster.metrics``
        self.ledger = CostLedger(cluster.metrics)
        self._subscriptions: Dict[str, _Subscription] = {}

    # -- subscriptions -----------------------------------------------------
    def _logs(self) -> List[WriteAheadLog]:
        """Every server's log, dead servers' included, in server-id order."""
        servers = self.cluster.region_servers
        return [servers[server_id].wal for server_id in sorted(servers)]

    def subscribe(self, name: str, tables: Iterable[str],
                  callback: ChangeCallback) -> _Subscription:
        """Start a change feed over ``tables`` from this instant onward."""
        if name in self._subscriptions:
            raise HBaseError(f"CDC subscription {name!r} already exists")
        subscription = _Subscription(name, sorted(set(tables)), callback)
        for wal in self._logs():
            wal.attach(name, subscription.tables)
        self._subscriptions[name] = subscription
        return subscription

    def unsubscribe(self, name: str) -> None:
        """Drop a subscription; its readers no longer hold any log's tail."""
        if self._subscriptions.pop(name, None) is not None:
            for wal in self._logs():
                wal.detach(name)

    def subscription_names(self) -> List[str]:
        return sorted(self._subscriptions)

    def _tail(self, subscription: _Subscription, take) -> Dict[str, List[WALEntry]]:
        """Per subscribed table, what ``take`` (``WriteAheadLog.read`` or
        ``.unread``) hands the subscription's reader from every log."""
        tail: Dict[str, List[WALEntry]] = {t: [] for t in subscription.tables}
        for wal in self._logs():
            for entry in take(wal, subscription.name):
                batch = tail.get(entry.table_name)
                if batch is not None:
                    batch.append(entry)
        return tail

    # -- shipping ----------------------------------------------------------
    def pump(self) -> int:
        """Drain every subscription's pending tail; returns entries shipped.

        Runs from ``HBaseCluster.run_maintenance`` after splits and balance
        moves, and before the logs are truncated.
        """
        shipped = 0
        for name in sorted(self._subscriptions):
            subscription = self._subscriptions[name]
            tail = self._tail(subscription, WriteAheadLog.read)
            for table, entries in tail.items():
                if entries:
                    self._ship(subscription, table, entries)
                    shipped += len(entries)
        return shipped

    def _ship(self, subscription: _Subscription, table: str,
              entries: List[WALEntry]) -> None:
        cost = self.cluster.cost
        payload = sum(e.nbytes for e in entries)
        self.ledger.charge(cost.rpc_latency_s, "hbase.cdc.ship_batches")
        self.ledger.charge(payload / cost.replication_bytes_per_sec,
                           "hbase.cdc.bytes_shipped", payload)
        self.ledger.count("hbase.cdc.entries_shipped", len(entries))
        # shipping takes simulated time, and the shared clock must feel
        # it: the consumer's maintenance writes happen *after* the batch
        # they repair, so they need strictly newer cell timestamps --
        # a timestamp tie would let the older version shadow the newer
        self.cluster.clock.advance(
            cost.rpc_latency_s + payload / cost.replication_bytes_per_sec)
        # flush markers are empty batches; nothing to deliver
        cells = [c for e in entries for c in e.cells]
        if cells:
            subscription.callback(table, cells, _fresh(entries))

    # -- freshness ---------------------------------------------------------
    def pending(self, name: str) -> Tuple[int, int]:
        """(entries, bytes) not yet shipped to subscription ``name``.

        A metadata peek -- real consumers know their WAL offsets -- so it
        charges nothing and moves no reader.
        """
        subscription = self._subscriptions.get(name)
        if subscription is None:
            raise HBaseError(f"no CDC subscription {name!r}")
        tail = self._tail(subscription, WriteAheadLog.unread)
        return (sum(len(entries) for entries in tail.values()),
                sum(e.nbytes for entries in tail.values() for e in entries))

    def lag_s(self, name: str) -> float:
        """The unshipped tail priced in simulated seconds (0.0 = caught up)."""
        entries, payload = self.pending(name)
        if not entries:
            return 0.0
        return (self.cluster.cost.rpc_latency_s
                + payload / self.cluster.cost.replication_bytes_per_sec)

    def __repr__(self) -> str:
        return (f"CDCStream({self.cluster.name}, "
                f"subscriptions={self.subscription_names()})")
