"""HBaseTableScanRDD -- the customized RDD of section V.A.

The paper: "we propose HBaseTableScanRDD to scan the underlying HBase data
... We re-implement getPartitions, getPreferredLocations and compute".
Partitions are region-server-aligned (pruned + fused), preferred locations
are the Region Server hosts (data locality), and ``compute`` turns each
partition's ranges into HBase ``Scan``s and batched ``Get``s, decoding cells
through the catalog's coder straight out of HBase's byte arrays -- for a
scan operator, page by page into column batches (``column_batches``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.core.catalog import ColumnDef
from repro.core.partitions import HBaseScanPartition
from repro.engine.rdd import Partition, RDD
from repro.hbase.client import Get, Scan
from repro.hbase.filters import Filter as HFilter
from repro.sql.columnar import RecordBatch

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
        #: the row codec's decode plans, resolved once per RDD, not per row
        self._decode = relation.codec.decoder(self.required_columns)
        self._decode_page = relation.codec.page_decoder(self.required_columns)

    # -- the three overridden methods ------------------------------------------
    def partitions(self) -> List[Partition]:
        return [Partition(p.index, payload=p) for p in self.scan_partitions]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        if not self.relation.locality_enabled:
            return ()
        return (partition.payload.host,)

    def compute(self, partition: Partition,
                ctx: "TaskContext") -> Iterator[tuple]:
        """Stream decoded tuples straight out of the region scans, one per
        row, through the row codec's row decoder (the reference for
        :meth:`column_batches`, which is what a scan operator reads).

        Decode cost is charged for exactly the cells of the rows yielded --
        a downstream consumer that stops early (a LIMIT) never pays for rows
        it did not pull -- once the partition's pages are done or closed
        (:meth:`_pages`).
        """
        decode = self._decode
        decoded = [0]
        pages = self._pages(partition, ctx, decoded)
        try:
            for page in pages:
                for row, cells in page:
                    values, ncells = decode(row, cells)
                    decoded[0] += ncells
                    yield values
        finally:
            pages.close()

    def column_batches(self, batch_size: int) -> RDD:
        """This scan as :class:`~repro.sql.columnar.RecordBatch` es of
        ``batch_size`` rows (the last of a partition shorter): the RDD a
        scan operator reads instead of cutting :meth:`compute`'s tuples
        into batches, with the same batches and the same charges."""
        return _ColumnBatchRDD(self, batch_size)

    def compute_batches(self, partition: Partition, ctx: "TaskContext",
                        batch_size: int) -> Iterator[RecordBatch]:
        """One partition as column batches, decoded page by page.

        Each page the client receives is decoded straight into columns by
        the row codec's page decoder, in parts cut where a batch fills, so
        a batch is yielded the moment its last row is decoded and before
        the next page is fetched -- the batches, page fetches and ledger of
        :meth:`compute`'s rows cut into ``batch_size`` batches.  Decode cost
        is charged for the rows of the parts decoded, which are exactly the
        rows handed on when a LIMIT closes the scan at a batch.  A part the
        page decoder fails on is decoded again row by row, so the rows
        before the bad one are charged and the error is the row decoder's.
        """
        decode_page, decode = self._decode_page, self._decode
        decoded = [0]
        pages = self._pages(partition, ctx, decoded)
        columns: List[list] = []
        filled = 0
        try:
            for page in pages:
                start, nrows = 0, len(page)
                while start < nrows:
                    stop = min(nrows, start + batch_size - filled)
                    part = page if stop - start == nrows else page[start:stop]
                    try:
                        part_columns, ncells = decode_page(part)
                    except Exception:
                        for row, cells in part:
                            decoded[0] += decode(row, cells)[1]
                        raise
                    decoded[0] += ncells
                    if filled:
                        for column, tail in zip(columns, part_columns):
                            column.extend(tail)
                    else:
                        columns = part_columns
                    filled += stop - start
                    start = stop
                    if filled == batch_size:
                        yield RecordBatch(columns, filled)
                        columns, filled = [], 0
            if filled:
                yield RecordBatch(columns, filled)
        finally:
            pages.close()

    def _pages(self, partition: Partition, ctx: "TaskContext",
               decoded: List[int]) -> Iterator[Sequence[Tuple[bytes, list]]]:
        """The partition's rows as the client receives them: every scan
        range's pages (:meth:`Table.scan_pages
        <repro.hbase.client.Table.scan_pages>`, no ``Result`` built), then
        the point ranges' batched Gets as one page of the rows found.

        The caller decodes them and counts the cells it decoded in
        ``decoded[0]``; when the pages are done or closed (after the open
        region stream bills its RPCs), ``shc.cells_decoded`` is charged for
        that count, the connection released and the scan's span finished.
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
        finally:
            ctx.ledger.charge(decode_cost * decoded[0],
                              "shc.cells_decoded", decoded[0])
            relation.release_connection(ctx)
            if span.enabled:
                span.set(cells_decoded=decoded[0])
                span.finish(sim_seconds=ctx.ledger.seconds - sim_start)

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


class _ColumnBatchRDD(RDD):
    """A scan's partitions as column batches (:meth:`HBaseTableScanRDD.
    column_batches`); the scan is its parent, so its lineage, locality and
    scope are the scan's."""

    def __init__(self, scan: HBaseTableScanRDD, batch_size: int) -> None:
        super().__init__([scan])
        self.batch_size = batch_size

    def partitions(self) -> List[Partition]:
        return self.parents[0].partitions()

    def compute(self, partition: Partition,
                ctx: "TaskContext") -> Iterator[RecordBatch]:
        return self.parents[0].compute_batches(partition, ctx, self.batch_size)
