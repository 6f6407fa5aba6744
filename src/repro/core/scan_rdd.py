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

from repro.core.catalog import ColumnDef
from repro.core.partitions import HBaseScanPartition
from repro.engine.rdd import Partition, RDD
from repro.hbase.client import Get, Scan
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

        No ``Result`` is built: each region scan's pages, as the client
        receives them (:meth:`Table.scan_pages
        <repro.hbase.client.Table.scan_pages>`), are decoded row by row and
        yielded through the row codec's plan resolved at RDD construction.
        Decode cost is charged for exactly the cells actually decoded -- a
        downstream consumer that stops early (a LIMIT) never pays for rows
        it did not pull -- via the ``finally`` block that runs when the
        generator finishes or is closed.
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
                        continue
                    scan = self._configure(
                        Scan(scan_range.start, scan_range.stop),
                        hbase_columns, time_range, max_versions)
                    if caching is not None:
                        scan.set_caching(caching)
                    for page in table.scan_pages(scan, ctx.ledger,
                                                 work.location):
                        for row, cells in page:
                            values, ncells = decode(row, cells)
                            decoded_cells += ncells
                            yield values
            if gets:
                for result in table.bulk_get(gets, ctx.ledger):
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
