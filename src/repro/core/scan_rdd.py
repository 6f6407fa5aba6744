"""HBaseTableScanRDD -- the customized RDD of section V.A.

The paper: "we propose HBaseTableScanRDD to scan the underlying HBase data
... We re-implement getPartitions, getPreferredLocations and compute".
Partitions are region-server-aligned (pruned + fused), preferred locations
are the Region Server hosts (data locality), and ``compute`` turns each
partition's ranges into HBase ``Scan``s and batched ``Get``s, decoding cells
through the catalog's coder straight out of HBase's byte arrays, page by
page, into the column batches every scan operator reads.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.core.catalog import ColumnDef
from repro.core.partitions import HBaseScanPartition
from repro.engine.rdd import Partition, RDD
from repro.hbase.client import Get, Scan
from repro.hbase.filters import Filter as HFilter
from repro.sql import columnar as C

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
        #: the row codec's decode plan, resolved once per RDD, not per page
        self._decode_page = relation.codec.page_decoder(self.required_columns)

    # -- the three overridden methods ------------------------------------------
    def partitions(self) -> List[Partition]:
        return [Partition(p.index, payload=p) for p in self.scan_partitions]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        if not self.relation.locality_enabled:
            return ()
        return (partition.payload.host,)

    def compute(self, partition: Partition,
                ctx: "TaskContext") -> Iterator[C.RecordBatch]:
        """One partition as :class:`~repro.sql.columnar.RecordBatch` es of
        ``BATCH_SIZE`` rows (the last shorter), columns ordered as
        ``required_columns``.

        Each page the client receives (:meth:`_pages`) is decoded straight
        into columns by the row codec's page decoder, in parts cut where a
        batch fills, so a batch is yielded the moment its last row is
        decoded and before the next page is fetched.  When the pages are
        done or closed (after the open region stream bills its RPCs),
        ``shc.cells_decoded`` is charged for the parts decoded -- exactly
        the rows handed on when a LIMIT closes the scan at a batch -- the
        connection released and the scan's span finished.  A malformed cell
        raises the page decoder's :class:`~repro.common.errors.CoderError`,
        which fails the task without a retry.
        """
        scan_partition: HBaseScanPartition = partition.payload
        relation = self.relation
        connection = relation.acquire_connection(ctx)
        decode_cost = relation.decode_cell_cost()
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
        decode_page, batch_size = self._decode_page, C.BATCH_SIZE
        decoded = filled = 0
        columns: List[list] = []
        pages = self._pages(scan_partition, connection, ctx)
        try:
            for page in pages:
                start, nrows = 0, len(page)
                while start < nrows:
                    stop = min(nrows, start + batch_size - filled)
                    part = page if stop - start == nrows else page[start:stop]
                    part_columns, ncells = decode_page(part)
                    decoded += ncells
                    if filled:
                        for column, tail in zip(columns, part_columns):
                            column.extend(tail)
                    else:
                        columns = part_columns
                    filled += stop - start
                    start = stop
                    if filled == batch_size:
                        yield C.RecordBatch(columns, filled)
                        columns, filled = [], 0
        finally:
            pages.close()
            ctx.ledger.charge(decode_cost * decoded, "shc.cells_decoded", decoded)
            relation.release_connection(ctx)
            if span.enabled:
                span.set(cells_decoded=decoded)
                span.finish(sim_seconds=ctx.ledger.seconds - sim_start)
        # the pages are done: the scan is charged before its last batch is
        # handed on, so what a consumer charges for that batch comes after
        if filled:
            yield C.RecordBatch(columns, filled)

    def _pages(self, scan_partition: HBaseScanPartition, connection,
               ctx: "TaskContext") -> Iterator[Sequence[Tuple[bytes, list]]]:
        """The partition's rows as the client receives them: every scan
        range's pages (:meth:`Table.scan_pages
        <repro.hbase.client.Table.scan_pages>`, no ``Result`` built), then
        the point ranges' batched Gets as one page of the rows found."""
        relation = self.relation
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
                    continue
                scan = self._configure(
                    Scan(scan_range.start, scan_range.stop),
                    hbase_columns, time_range, max_versions)
                if caching is not None:
                    scan.set_caching(caching)
                yield from table.scan_pages(scan, ctx.ledger, work.location)
        if gets:
            found = [(result.row, result.cells)
                     for result in table.bulk_get(gets, ctx.ledger)
                     if not result.is_empty()]
            if found:
                yield found

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

