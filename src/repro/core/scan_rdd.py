"""HBaseTableScanRDD -- the customized RDD of section V.A.

The paper: "we propose HBaseTableScanRDD to scan the underlying HBase data
... We re-implement getPartitions, getPreferredLocations and compute".
Partitions are region-server-aligned (pruned + fused), preferred locations
are the Region Server hosts (data locality), and ``compute`` turns each
partition's ranges into HBase ``Scan``s and batched ``Get``s, decoding cells
through the catalog's coder straight out of HBase's byte arrays.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.common.errors import (
    FilterEvalError,
    RegionOfflineError,
    TransientRpcError,
)
from repro.core.catalog import ColumnDef
from repro.core.partitions import HBaseScanPartition
from repro.engine.rdd import Partition, RDD
from repro.hbase.client import Get, Result, Scan
from repro.hbase.filters import Filter as HFilter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.relation import HBaseRelation
    from repro.engine.scheduler import TaskContext


class HBaseTableScanRDD(RDD):
    """One partition per involved Region Server (post-pruning, fused)."""

    def __init__(
        self,
        relation: "HBaseRelation",
        required_columns: Sequence[str],
        hbase_filter: Optional[HFilter],
        scan_partitions: Sequence[HBaseScanPartition],
        filter_columns: Optional[Set[Tuple[str, str]]] = None,
    ) -> None:
        super().__init__()
        self.relation = relation
        self.required_columns = list(required_columns)
        self.hbase_filter = hbase_filter
        self.scan_partitions = list(scan_partitions)
        #: columns the pushed filter reads; they must be fetched even when
        #: the query does not project them, or the server-side filter would
        #: see "missing" cells and drop every row (the classic HBase SCVF
        #: gotcha SHC works around by widening the scan)
        self.filter_columns = set(filter_columns or ())
        catalog = relation.catalog
        self._data_columns: List[ColumnDef] = [
            catalog.column(c) for c in required_columns
            if not catalog.column(c).is_rowkey()
        ]
        #: the row codec's decode plan, resolved once per RDD, not per row
        self._decode = relation.codec.decoder(self.required_columns)

    # -- the three overridden methods ------------------------------------------
    def partitions(self) -> List[Partition]:
        return [Partition(p.index, payload=p) for p in self.scan_partitions]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        if not self.relation.locality_enabled:
            return ()
        return (partition.payload.host,)

    def compute(self, partition: Partition,
                ctx: "TaskContext") -> Iterator[tuple]:
        """Stream decoded tuples straight out of the region scans.

        No intermediate ``List[Result]`` is materialised: each region scan's
        results are decoded and yielded as they are produced, through the
        row codec's plan resolved at RDD construction.  Decode cost is
        charged for exactly the cells actually decoded -- a downstream
        consumer that stops early (a LIMIT) never pays for rows it did not
        pull -- via the ``finally`` block that runs when the generator
        finishes or is closed.
        """
        scan_partition: HBaseScanPartition = partition.payload
        relation = self.relation
        connection = relation.acquire_connection(ctx)
        decode_cost = relation.decode_cell_cost()
        decode = self._decode
        decoded_cells = 0
        # replica provenance rides on the span only when routing engaged, so
        # replica-off traces keep their exact historical shape
        replica_work = sum(
            1 for w in scan_partition.work if w.location.replica_id)
        extra = {"replica_regions": replica_work} if replica_work else {}
        span = ctx.span.child(
            f"scan-p{partition.index}", "scan", order=partition.index,
            host=scan_partition.host, regions=len(scan_partition.work),
            **extra,
        )
        sim_start = ctx.ledger.seconds if span.enabled else 0.0
        try:
            table = connection.get_table(relation.catalog.qualified_name)
            hbase_columns = self._hbase_columns()
            time_range = relation.time_range()
            max_versions = relation.max_versions()
            caching = relation.scan_caching()
            gets: List[Get] = []
            for work in scan_partition.work:
                for scan_range in work.ranges:
                    if scan_range.point:
                        gets.append(self._configure(
                            Get(scan_range.start), hbase_columns, time_range,
                            max_versions))
                    else:
                        for result in self._scan_range(
                            table, connection, work.location, scan_range,
                            hbase_columns, time_range, max_versions, caching,
                            ctx, span,
                        ):
                            values, ncells = decode(result.row, result.cells)
                            decoded_cells += ncells
                            yield values
            if gets:
                try:
                    results = table.bulk_get(gets, ctx.ledger)
                except FilterEvalError:
                    # the degradation _scan_range makes: fetch again without
                    # the pushed filter and apply the predicate client-side
                    ctx.ledger.count("shc.filter_fallbacks")
                    for get in gets:
                        get.filter = None
                    results = [
                        r for r in table.bulk_get(gets, ctx.ledger)
                        if not r.is_empty()
                        and self.hbase_filter.filter_row(r.row, r.cells)]
                for result in results:
                    if result.is_empty():
                        continue
                    values, ncells = decode(result.row, result.cells)
                    decoded_cells += ncells
                    yield values
        finally:
            ctx.ledger.charge(decode_cost * decoded_cells,
                              "shc.cells_decoded", decoded_cells)
            relation.release_connection(ctx)
            if span.enabled:
                span.set(cells_decoded=decoded_cells)
                span.finish(sim_seconds=ctx.ledger.seconds - sim_start)

    # -- fault-tolerant range scanning -------------------------------------------
    def _scan_range(self, table, connection, location, scan_range,
                    columns, time_range, max_versions,
                    caching: Optional[int],
                    ctx: "TaskContext", span=None) -> Iterator[Result]:
        """Scan one clipped range, surviving crashes and filter failures.

        Exactly-once resumption: ``resume`` is the successor of the last row
        key *received* (worked out when a failure needs it, not per row), so
        when the serving region server crashes mid-scan (or meta goes stale)
        the generator takes the connection's retry step
        (:meth:`RetryPolicy.before_retry`: attempts, backoff, and the
        operation deadline, whose clock starts here, when the range's first
        Scan is issued), re-locates the region -- by then the master has
        reassigned it and WAL replay restored unflushed cells -- and re-issues
        the scan from ``resume``: no row is lost or duplicated.  A pushed-down
        filter that fails server-side degrades gracefully: the scan is
        re-issued unfiltered from the same position and the predicate is
        applied client-side (the scan already fetches the filter's columns).
        Fault-free this makes exactly the one ``scan_region`` call per range
        it always made.
        """
        relation = self.relation
        table_name = relation.catalog.qualified_name
        resume = scan_range.start
        stop = scan_range.stop
        client_filter: Optional[HFilter] = None
        failures = 0
        started_s = ctx.ledger.seconds
        while True:
            scan = self._configure(Scan(resume, stop), columns, time_range,
                                   max_versions)
            if client_filter is not None:
                scan.filter = None
            if caching is not None:
                scan.set_caching(caching)
            result = None
            try:
                try:
                    for result in table.scan_region(location, scan, ctx.ledger):
                        if client_filter is None or client_filter.filter_row(
                                result.row, result.cells):
                            yield result
                finally:
                    # however this attempt ended, the next one starts after
                    # the last row it received (kept or filtered out)
                    if result is not None:
                        resume = result.row + b"\x00"
            except FilterEvalError:
                # graceful degradation: rerun the scan without the pushed
                # filter and evaluate the predicate as a client-side residual
                client_filter = self.hbase_filter
                ctx.ledger.count("shc.filter_fallbacks")
                if span is not None and span.enabled:
                    span.event("filter-fallback", region=location.region_name)
                continue
            except (RegionOfflineError, TransientRpcError) as exc:
                failures += 1
                connection.invalidate_location_cache(table_name)
                # warm failover (docs/replication.md): when the master has
                # already promoted a replica, resume there immediately --
                # the resume key is preserved, so no row repeats, and the
                # retry backoff is never paid
                failover = relation.replica_failover_location(location, resume)
                if failover is not None:
                    ctx.ledger.count("hbase.replica.failovers")
                    if span is not None and span.enabled:
                        span.event("replica-failover",
                                   region=location.region_name,
                                   server=failover.server_id,
                                   failures=failures)
                    location = failover
                else:
                    connection.retry_policy.before_retry(
                        failures, exc, ctx.ledger, started_s,
                        key=location.region_name, op="scan_range",
                        table=table_name)
                    location = connection.locate(table_name, resume)
                ctx.ledger.count("shc.scan_resumes")
                continue
            # this region is exhausted; a range extending past its end (the
            # region split since the partition was planned) continues in the
            # next region -- otherwise the range is done
            end = location.end_row
            if not end or (stop is not None and end >= stop):
                return
            resume = max(resume, end)
            location = connection.locate(table_name, resume)

    # -- request shaping ---------------------------------------------------------
    def _hbase_columns(self) -> Optional[Set[Tuple[str, str]]]:
        """Which (family, qualifier) pairs to fetch -- column pruning.

        When only row-key columns are requested we still must fetch *some*
        cells to enumerate rows, so every data family stays in (a row is
        visible iff it has at least one cell).
        """
        if not self.relation.column_pruning_enabled:
            return None  # fetch everything
        if self._data_columns or self.filter_columns:
            fetched = {(c.family, c.qualifier) for c in self._data_columns}
            fetched |= self.filter_columns
            return fetched
        return None

    def _configure(self, read, columns, time_range, max_versions):
        """Shape a Get or a Scan: columns, pushed filter, time range, versions."""
        if columns is not None:
            for family, qualifier in columns:
                read.add_column(family, qualifier)
        if self.hbase_filter is not None:
            read.set_filter(self.hbase_filter)
        if time_range is not None:
            read.set_time_range(time_range.min_ts, time_range.max_ts)
        if max_versions != 1:
            read.set_max_versions(max_versions)
        return read
