"""RDD-level HBase operations (the ``HBaseContext`` of the hbase-spark module).

Section III.C contrasts SHC's DataFrame-level design with the community
connector's "rich support at the RDD level"; this module provides that lower
level too: ``bulk_put`` / ``bulk_get`` / ``bulk_delete`` / ``foreach_partition``
run user functions against HBase with a pooled connection per executor, so
programs that don't fit the relational model can still use the same caching
and cost-metered client.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.core.conncache import DEFAULT_CONNECTION_CACHE
from repro.hbase.cell import Cell
from repro.hbase.client import Configuration, Delete, Get, Put, Result
from repro.hbase.cluster import get_cluster
from repro.hbase.hfile import StoreFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD
    from repro.sql.session import SparkSession

BULK_BATCH_SIZE = 500


class HBaseContext:
    """Executor-side HBase access for RDD programs."""

    def __init__(self, session: "SparkSession", quorum: str) -> None:
        self.session = session
        self.quorum = quorum
        self.cluster = get_cluster(quorum)
        self.connection_cache = DEFAULT_CONNECTION_CACHE

    # -- connection plumbing ------------------------------------------------
    def _acquire(self, task_ctx):
        conf = Configuration({
            Configuration.QUORUM: self.quorum,
            Configuration.CLIENT_HOST: task_ctx.host,
        })
        return self.connection_cache.acquire(
            conf, self.cluster.clock, self.session.cost, task_ctx.ledger
        ), conf

    def _release(self, conf) -> None:
        self.connection_cache.release(conf, self.cluster.clock)

    # -- bulk writes ------------------------------------------------------------
    def bulk_put(self, rdd: "RDD", table_name: str,
                 to_put: Callable[[object], Put]) -> int:
        """Apply ``to_put`` to every element and write the Puts; returns count."""
        def write_partition(rows, task_ctx):
            connection, conf = self._acquire(task_ctx)
            try:
                table = connection.get_table(table_name)
                batch: List[Put] = []
                written = 0
                for row in rows:
                    batch.append(to_put(row))
                    written += 1
                    if len(batch) >= BULK_BATCH_SIZE:
                        table.put(batch, task_ctx.ledger)
                        batch = []
                if batch:
                    table.put(batch, task_ctx.ledger)
                yield written
            finally:
                self._release(conf)

        scheduler = self.session.new_scheduler()
        return sum(scheduler.collect(rdd.map_partitions(write_partition)))

    def bulk_delete(self, rdd: "RDD", table_name: str,
                    to_delete: Callable[[object], Delete]) -> int:
        """Apply ``to_delete`` to every element; returns deletes issued."""
        def delete_partition(rows, task_ctx):
            connection, conf = self._acquire(task_ctx)
            try:
                table = connection.get_table(table_name)
                deleted = 0
                for row in rows:
                    table.delete(to_delete(row), task_ctx.ledger)
                    deleted += 1
                yield deleted
            finally:
                self._release(conf)

        scheduler = self.session.new_scheduler()
        return sum(scheduler.collect(rdd.map_partitions(delete_partition)))

    # -- bulk reads ----------------------------------------------------------------
    def bulk_get(self, rdd: "RDD", table_name: str,
                 to_get: Callable[[object], Get],
                 convert: Optional[Callable[[Result], object]] = None) -> "RDD":
        """Lazy: returns an RDD of (converted) Results, one per input element.

        Gets are batched per partition into multi-get RPCs, like the
        hbase-spark ``bulkGet``.
        """
        def get_partition(rows, task_ctx):
            connection, conf = self._acquire(task_ctx)
            try:
                table = connection.get_table(table_name)
                pending = [to_get(row) for row in rows]
                for start in range(0, len(pending), BULK_BATCH_SIZE):
                    chunk = pending[start:start + BULK_BATCH_SIZE]
                    for result in table.bulk_get(chunk, task_ctx.ledger):
                        yield convert(result) if convert is not None else result
            finally:
                self._release(conf)

        return rdd.map_partitions(get_partition)

    def bulk_load(self, rdd: "RDD", table_name: str,
                  to_cells: Callable[[object], Sequence[Cell]]) -> int:
        """HFile bulk load: write store files directly, bypassing WAL+memstore.

        Mirrors HBase's ``LoadIncrementalHFiles``: each task encodes its rows
        into cells, groups them by target region, and the completed store
        files are atomically adopted by the regions.  Much cheaper than Puts
        (no WAL sync, no memstore churn) but without their durability
        guarantees mid-flight -- exactly the real trade-off.
        """
        cluster = self.cluster
        locations = cluster.region_locations(table_name)

        def load_partition(rows, task_ctx):
            cells: List[Cell] = []
            for row in rows:
                cells.extend(to_cells(row))
            by_region: dict = {}
            for cell in cells:
                for location in locations:
                    region = cluster.get_region(location.region_name)
                    if region is not None and region.contains_row(cell.row):
                        by_region.setdefault(location.region_name, []).append(cell)
                        break
            loaded = 0
            for region_name, region_cells in by_region.items():
                region = cluster.get_region(region_name)
                by_family: dict = {}
                for cell in region_cells:
                    by_family.setdefault(cell.family, []).append(cell)
                for family, group in by_family.items():
                    # a store file takes its cells in KeyValue order; the
                    # stable sort keeps later rows first among equal keys,
                    # so the newest write wins a tie
                    store_file = StoreFile(sorted(group[::-1], key=Cell.sort_key))
                    region.stores[family].files.append(store_file)
                    # sequential HFile write: no WAL sync, no memstore
                    task_ctx.ledger.charge(
                        store_file.size_bytes / self.session.cost.write_bytes_per_sec,
                        "hbase.bulkload_bytes", store_file.size_bytes,
                    )
                loaded += len(region_cells)
            yield loaded

        scheduler = self.session.new_scheduler()
        return sum(scheduler.collect(rdd.map_partitions(load_partition)))

    # -- arbitrary partition-level access -------------------------------------------
    def foreach_partition(self, rdd: "RDD",
                          fn: Callable[[Iterable[object], object], None]) -> None:
        """Run ``fn(rows, table_accessor)`` once per partition (side effects)."""
        def apply(rows, task_ctx):
            connection, conf = self._acquire(task_ctx)
            try:
                fn(rows, connection)
                return iter(())
            finally:
                self._release(conf)

        scheduler = self.session.new_scheduler()
        scheduler.collect(rdd.map_partitions(apply))

    def map_partitions(self, rdd: "RDD",
                       fn: Callable[[Iterable[object], object], Iterable[object]]) -> "RDD":
        """Lazy: transform each partition with connection access."""
        def apply(rows, task_ctx):
            connection, conf = self._acquire(task_ctx)
            try:
                yield from fn(rows, connection)
            finally:
                self._release(conf)

        return rdd.map_partitions(apply)
