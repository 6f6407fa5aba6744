"""Region Servers: the data-plane nodes of the HBase substrate.

A region server lives on a host, serves a set of regions, owns one write-ahead
log, and evaluates ``Scan``/``Get``/``Put``/``Delete`` RPCs.  Every operation
charges a :class:`~repro.common.metrics.CostLedger` so the caller (an engine
task or a bare client) is billed for exactly the I/O, filtering and transfer
work the request caused -- this is where pruning and pushdown turn into
measurable savings.
"""

from __future__ import annotations

import threading
from itertools import compress, starmap
from operator import length_hint
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.cost import CostModel
from repro.common.errors import (
    FilterEvalError,
    RegionOfflineError,
    RegionServerStoppedError,
)
from repro.common.metrics import CostLedger
from repro.hbase.blockcache import BlockCache
from repro.hbase.cell import Cell
from repro.hbase.client import Get
from repro.hbase.filters import Filter
from repro.hbase.hfile import StoreFile, row_hash
from repro.hbase.region import (
    ALL_VERSIONS, Region, RowResult, TimeRange, _merge_runs, _visible_rows,
)
from repro.hbase.wal import WriteAheadLog


class RegionServer:
    """One region server process bound to a host."""

    def __init__(self, server_id: str, host: str, cost_model: CostModel) -> None:
        self.server_id = server_id
        self.host = host
        self.cost = cost_model
        self.wal = WriteAheadLog()
        self.regions: Dict[str, Region] = {}
        #: read-only secondary copies served by this server; populated only
        #: by a cluster's ReplicationManager (docs/replication.md).  Only a
        #: read that names a secondary is answered from here (:meth:`_region`).
        self.replica_regions: Dict[str, Region] = {}
        self.alive = True
        #: (region_name) -> None callback fired when a region outgrows the
        #: cluster's split threshold (the master splits it on maintenance)
        self.split_listener = None
        self.region_max_bytes: Optional[int] = None
        #: the cluster's HDFS, set at wiring time; placement is skipped if None
        self.hdfs = None
        #: optional LRU block cache fronting HFile reads; with None (the
        #: default) every block a scan touches is a miss
        self.block_cache: Optional[BlockCache] = None
        #: serialises WAL append + memstore apply + flush decisions; parallel
        #: engine tasks write into the same regions concurrently
        self._write_lock = threading.RLock()
        #: per region: bytes each live ledger added to the memstore since the
        #: last flush, so flush I/O is billed to the writers that caused it
        self._flush_debts: Dict[str, Dict[int, Tuple[CostLedger, int]]] = {}

    # -- region lifecycle -----------------------------------------------------
    def open_region(self, region: Region, replay_wal: Optional[WriteAheadLog] = None) -> None:
        """Start serving a region, optionally replaying a dead server's WAL.

        Recovered edits are in no live server's log, so they are flushed
        before the region serves; only then does the dead log let them go.
        """
        self._check_alive()
        self.regions[region.name] = region
        recovered = [] if replay_wal is None else list(replay_wal.replay(region.name))
        if recovered:
            region.put_cells(recovered)
            self.flush_region(region.name)
            replay_wal.mark_flushed(region.name, replay_wal.last_sequence_id())

    def close_region(self, region_name: str) -> Region:
        """Stop serving a region; drops its cached blocks and flush debts.

        Every way a region leaves a server (move, split, merge, table drop)
        funnels through here, so evicting the region's store files from the
        block cache at this single point keeps the cache free of blocks this
        server can no longer legitimately serve.  The log lets the region's
        tail go too: its edits are flushed (:meth:`release_region`), in the
        daughters' files (split), or dropped with the table.
        """
        self._check_alive()
        region = self.regions.pop(region_name, None)
        if region is None:
            raise RegionOfflineError(f"{region_name} not served by {self.server_id}")
        self._flush_debts.pop(region_name, None)
        self.wal.mark_flushed(region_name, self.wal.last_sequence_id())
        if self.block_cache is not None:
            self.block_cache.invalidate_files(region.store_files())
        return region

    def release_region(self, region_name: str) -> Region:
        """Give a live region away: flush what its memstore holds (billed
        like ``flush_table``), then close -- it changes servers with nothing
        unflushed (the hand-over rule, docs/fault_tolerance.md)."""
        with self._write_lock:
            if self._region(region_name).memstore_size():
                self.flush_region(region_name)
            return self.close_region(region_name)

    def crash(self) -> None:
        """Simulate process death: memstores and the block cache vanish."""
        self.alive = False
        self._flush_debts.clear()
        if self.block_cache is not None:
            self.block_cache.clear()
        for region in self.regions.values():
            for store in region.stores.values():
                store.memstore.clear()
        # replica copies lose their shipped (in-memory) tails the same way
        for region in self.replica_regions.values():
            for store in region.stores.values():
                store.memstore.clear()

    def _check_alive(self) -> None:
        if not self.alive:
            raise RegionServerStoppedError(
                f"region server {self.server_id} is down"
            )

    def _region(self, region_name: str, replica_id: int = 0) -> Region:
        """The copy of a region that answers a request, or region-offline.

        A request names the copy it believes it is talking to.  Replica 0 is
        the primary: writes and strong reads are answered from
        :attr:`regions` or refused, so that a client with stale meta
        relocates instead of reading (or mutating) a secondary -- real
        HBase's read-only replicas.  A timeline read (a positive id) takes
        whichever copy this server holds; the primary, should it have
        arrived here since the read was planned, is never the staler one.
        """
        self._check_alive()
        region = self.regions.get(region_name)
        if region is None and replica_id:
            region = self.replica_regions.get(region_name)
        if region is None:
            raise RegionOfflineError(f"{region_name} not served by {self.server_id}")
        return region

    # -- writes ---------------------------------------------------------------
    def put(self, region_name: str, cells: Sequence[Cell], ledger: CostLedger,
            nbytes: int) -> None:
        """WAL-log then apply a mutation batch of ``nbytes`` heap bytes (the
        client sized it once for the request); flush if the memstore is full.
        While a change feed consumes the table, the entry marks the rows
        the region held no cell of before the batch (:meth:`Region.fresh_rows
        <repro.hbase.region.Region.fresh_rows>`).

        Flush I/O is billed to the ledgers that filled the memstore, each in
        proportion to the bytes it contributed, rather than entirely to the
        put that happened to cross the threshold.  With concurrent writers
        the threshold-crossing batch is a thread-timing lottery; per-byte
        attribution keeps every task's simulated cost independent of how the
        batches interleaved.
        """
        with self._write_lock:
            region = self._region(region_name)
            # a change feed learns which rows are new; nothing is billed,
            # as HBase's own put reads nothing
            fresh = region.fresh_rows(cells) \
                if self.wal.tails(region.table_name) else frozenset()
            seq = self.wal.append(region_name, cells, region.table_name,
                                  nbytes, fresh)
            region.put_cells(cells)
            ledger.charge(self.cost.wal_sync_cost_s, "hbase.wal_syncs")
            ledger.charge(nbytes / self.cost.write_bytes_per_sec,
                          "hbase.bytes_written", nbytes)
            debts = self._flush_debts.setdefault(region_name, {})
            owed_ledger, owed = debts.get(id(ledger), (ledger, 0))
            debts[id(ledger)] = (owed_ledger, owed + nbytes)
            if region.should_flush():
                written = region.flush()
                self._place_new_files(region)
                self.wal.mark_flushed(region_name, seq)
                self._bill_flush(region_name, written, ledger)
                if (
                    self.region_max_bytes is not None
                    and self.split_listener is not None
                    and region.size_bytes() >= self.region_max_bytes
                ):
                    self.split_listener(region_name)

    def _bill_flush(self, region_name: str, written: int,
                    trigger: CostLedger) -> None:
        """Split a flush's I/O cost across the writers that filled it."""
        debts = self._flush_debts.pop(region_name, {})
        billed = 0
        for contributor, contributed in debts.values():
            contributor.charge(contributed / self.cost.write_bytes_per_sec)
            billed += contributed
        # memstore bytes with no live debtor (increments) fall to the put
        # that triggered the flush, as they always did
        if written > billed:
            trigger.charge((written - billed) / self.cost.write_bytes_per_sec)
        trigger.count("hbase.flushes")

    def flush_region(self, region_name: str) -> None:
        with self._write_lock:
            region = self._region(region_name)
            region.flush()
            self._flush_debts.pop(region_name, None)
            self._place_new_files(region)
            self.wal.mark_flushed(
                region_name, self.wal.append(region_name, [], region.table_name))

    def compact_region(self, region_name: str, major: bool = False,
                       max_versions: int = ALL_VERSIONS) -> None:
        with self._write_lock:
            region = self._region(region_name)
            before = region.store_files()
            region.compact(major, max_versions)
            # compactions write fresh files on THIS server's host, which is how
            # HBase re-localises a region after it has been moved
            self._place_new_files(region)
            if self.block_cache is not None:
                # the merged-away inputs no longer exist; their blocks must go
                self.block_cache.invalidate_files(before - region.store_files())

    def _place_new_files(self, region: Region) -> None:
        if self.hdfs is None:
            return
        for store_file in getattr(region, "last_new_files", []):
            store_file.hdfs_file = self.hdfs.create_file(
                store_file.size_bytes, self.host
            )
        region.last_new_files = []

    # -- reads ---------------------------------------------------------------
    def scan(
        self,
        region_name: str,
        start_row: bytes = b"",
        stop_row: Optional[bytes] = None,
        columns: Optional[Set[Tuple[str, str]]] = None,
        families: Optional[Set[str]] = None,
        row_filter: Optional[Filter] = None,
        time_range: Optional[TimeRange] = None,
        max_versions: int = 1,
        ledger: Optional[CostLedger] = None,
        replica_id: int = 0,
    ) -> Tuple[List[RowResult], List[int]]:
        """Execute a scan over one region, applying the server-side filter.

        The ledger is charged for every byte the range *touches* (HBase reads
        whole blocks regardless of the filter) plus per-row filter evaluation;
        only surviving rows are returned, so the caller pays transfer and
        decode costs for matches only -- that asymmetry is the entire point of
        predicate pushdown.

        The rows are :meth:`Region.scan_rows
        <repro.hbase.region.Region.scan_rows>`' -- slices of the store
        files' row indexes wherever nothing needs resolving -- and so are the
        bytes each one carries, sized once, for ``hbase.bytes_returned`` and
        for whatever the client charges per RPC page.  The filter is
        compiled once for the scan (:meth:`Filter.compile
        <repro.hbase.filters.Filter.compile>`, so its state starts afresh)
        and run over the rows in one pass; its per-row cost, priced once, is
        then booked in one :meth:`CostLedger.charge_each` -- the seconds
        added row by row, in row order, as per-row charges would add them.
        A row the filter fails on is booked with every row before it, then
        surfaces as :class:`FilterEvalError`.
        """
        region = self._region(region_name, replica_id)
        ledger = ledger if ledger is not None else CostLedger()
        self._charge_scan_io(region, ledger, start_row, stop_row,
                             families, columns)

        results, row_bytes = region.scan_rows(
            start_row, stop_row, families, columns, time_range, max_versions)
        rows_visited = len(results)
        if row_filter is not None:
            evals_s = self._filter_cost_s(row_filter)
            keep = row_filter.compile()
            unread = iter(results)
            try:
                mask = list(starmap(keep, unread))
            except Exception as exc:
                # the iterator stopped just past the row that raised
                evaluated = rows_visited - length_hint(unread)
                ledger.charge_each(evals_s, evaluated, "hbase.filter_evals")
                raise self._filter_error(
                    exc, region_name, results[evaluated - 1][0]) from exc
            ledger.charge_each(evals_s, rows_visited, "hbase.filter_evals")
            results = list(compress(results, mask))
            row_bytes = list(compress(row_bytes, mask))
        ledger.count("hbase.rows_visited", rows_visited)
        ledger.count("hbase.rows_returned", len(results))
        ledger.count("hbase.bytes_returned", sum(row_bytes))
        return results, row_bytes

    def _filter_cost_s(self, row_filter: Filter) -> float:
        """What evaluating a pushed-down filter on one row costs."""
        return self.cost.cell_filter_cost_s * row_filter.cells_evaluated()

    @staticmethod
    def _filter_error(exc: Exception, region_name: str,
                      row: bytes) -> FilterEvalError:
        """What a pushed-down filter that raised on ``row`` surfaces as: a
        broken filter must not look like a server bug, so anything but a
        :class:`FilterEvalError` becomes one (retryable without the
        filter)."""
        if isinstance(exc, FilterEvalError):
            return exc
        return FilterEvalError(
            f"server-side filter failed on {region_name} "
            f"at row {row!r}: {exc}")

    def _charge_scan_io(
        self,
        region: Region,
        ledger: CostLedger,
        start_row: bytes,
        stop_row: Optional[bytes],
        families: Optional[Set[str]],
        columns: Optional[Set[Tuple[str, str]]],
    ) -> None:
        """Bill a range scan's I/O block by block.

        A block found in the block cache costs a memory read
        (``blockcache_bytes_per_sec``); any other block costs the HDFS read
        -- scan bandwidth, plus the network when the file's replica is
        remote -- and is admitted to the cache as it is read.  A server
        without a block cache is the case where every block misses.
        Memstore bytes are always read directly (they live in this process's
        heap already) and never enter the cache.  Every store file of the
        chosen families costs one seek -- the scanner opens it even to learn
        that the range is not in it -- unless the cache held every block the
        scan needed of it.
        """
        cache = self.block_cache
        files, memstore_bytes = region.touched_blocks_by_file(
            self.host, start_row, stop_row, families, columns
        )
        hits = misses = evictions = seeks = 0
        hit_bytes = local_miss_bytes = remote_miss_bytes = 0
        for store_file, is_local, blocks in files:
            missed_bytes = 0
            for block_idx, nbytes in blocks:
                if cache is not None:
                    outcome = cache.access(store_file, block_idx, nbytes)
                    evictions += outcome.evicted_blocks
                    if outcome.hit:
                        hits += 1
                        hit_bytes += nbytes
                        continue
                misses += 1
                missed_bytes += nbytes
            if missed_bytes or not blocks:
                seeks += 1
            if is_local:
                local_miss_bytes += missed_bytes
            else:
                remote_miss_bytes += missed_bytes
        ledger.charge(self.cost.seek_cost_s * max(1, seeks),
                      "hbase.seeks", max(1, seeks))
        disk_local = local_miss_bytes + memstore_bytes
        ledger.charge(disk_local / self.cost.scan_bytes_per_sec,
                      "hbase.bytes_scanned", disk_local + remote_miss_bytes)
        if remote_miss_bytes:
            # short-circuit-read is gone: the remote datanode still reads
            # the blocks off disk AND streams them over the network
            ledger.charge(
                remote_miss_bytes / self.cost.scan_bytes_per_sec
                + remote_miss_bytes / self.cost.network_bytes_per_sec,
                "hbase.remote_hdfs_bytes", remote_miss_bytes,
            )
        if cache is None:
            return      # no cache, no cache counters
        if hits:
            ledger.charge(hit_bytes / self.cost.blockcache_bytes_per_sec,
                          "hbase.blockcache.hit_bytes", hit_bytes)
            ledger.count("hbase.blockcache.hits", hits)
        if misses:
            ledger.count("hbase.blockcache.misses", misses)
            ledger.count("hbase.blockcache.miss_bytes",
                         local_miss_bytes + remote_miss_bytes)
        if evictions:
            ledger.count("hbase.blockcache.evictions", evictions)
        span = getattr(ledger, "trace_span", None)
        if span is not None and span.enabled and (hits or misses):
            span.event("blockcache", server=self.server_id, hits=hits,
                       misses=misses, hit_bytes=hit_bytes,
                       miss_bytes=local_miss_bytes + remote_miss_bytes)

    def get(
        self,
        region_name: str,
        row: bytes,
        columns: Optional[Set[Tuple[str, str]]] = None,
        families: Optional[Set[str]] = None,
        time_range: Optional[TimeRange] = None,
        max_versions: int = 1,
        ledger: Optional[CostLedger] = None,
        row_filter: Optional[Filter] = None,
        replica_id: int = 0,
    ) -> Optional[Tuple[bytes, List[Cell], int]]:
        """Point lookup, the one-Get case of :meth:`get_rows`: the row, its
        visible cells and the bytes they carry, or None."""
        get = Get(row)
        get.columns, get.families, get.time_range = columns, families, time_range
        get.max_versions, get.filter = max_versions, row_filter
        [(cells, nbytes)] = self.get_rows(region_name, [get], ledger, replica_id)
        return (row, cells, nbytes) if cells else None

    def get_rows(self, region_name: str, gets: Sequence[Get],
                 ledger: Optional[CostLedger] = None,
                 replica_id: int = 0) -> List[Tuple[List[Cell], int]]:
        """Serve a batch of Gets on one region in one pass: the server side
        of a multi-get.

        Answers, per Get in the order asked, its visible cells and the bytes
        they carry (sized once, as in :meth:`scan`); a row that is absent,
        outside the region or rejected by the Get's filter answers
        ``([], 0)``.  The region is resolved once and each distinct row
        hashed once.  Every store file of a family some Get chooses is asked
        about the whole batch in one call (:meth:`StoreFile.admitted_rows`:
        the rows it holds by its row index, the others by its bloom).  The
        Gets are then read in row order, each from the memstore and the
        files that admitted its row -- HBase's store-file scanner for a Get
        -- every source bisected forward from where the previous row
        started; an empty memstore is not asked.

        The ledger is what the Gets issued one by one, in the order asked,
        are charged: per Get, one seek per admitted file of its families,
        then its filter's cell evaluations on a row that was found.  The
        seeks are booked by :meth:`CostLedger.charge_each` up to each
        filter charge and at the end, bit for bit those seconds.  The seek,
        bloom-probe, row and byte counts are summed for the batch.
        """
        region = self._region(region_name, replica_id)
        ledger = ledger if ledger is not None else CostLedger()
        keys = [get.row for get in gets]
        rows = sorted(set(keys))
        slot = dict(zip(rows, range(len(rows))))
        hashes = list(map(row_hash, rows))
        chosen = [region._chosen_families(get.families, get.columns)
                  for get in gets]
        # per family: the files a Get asks, the files that admit each
        # distinct row (by its slot), youngest first, and the memstore
        # unless it is empty
        blooms: Dict[str, Tuple[int, Dict[int, List[StoreFile]], tuple]] = {}
        for family in set().union(*chosen):
            store = region.stores[family]
            files = store.files
            admitting: Dict[int, List[StoreFile]] = {}
            for store_file in reversed(files):
                for k in store_file.admitted_rows(rows, hashes):
                    admitting.setdefault(k, []).append(store_file)
            blooms[family] = (len(files), admitting,
                              (store.memstore,) if len(store.memstore) else ())

        found: List[Optional[List[Cell]]] = [None] * len(gets)
        cursors: Dict[object, int] = {}
        for i in sorted(range(len(gets)), key=keys.__getitem__):
            get, row = gets[i], keys[i]
            if not region.contains_row(row):
                continue
            k = slot[row]
            runs = []
            for family in chosen[i]:
                __, admitting, memstore = blooms[family]
                for source in (*memstore, *admitting.get(k, ())):
                    cells, cursors[source] = source.row_cells(
                        row, cursors.get(source, 0))
                    if cells:
                        runs.append(cells)
            if runs:
                for __, cells in _visible_rows(_merge_runs(runs), get.columns,
                                               get.time_range, get.max_versions):
                    found[i] = cells

        answers: List[Tuple[List[Cell], int]] = []
        seek_s = self.cost.seek_cost_s
        # each filter is priced once per batch, however many Gets share it
        evals_s: Dict[int, float] = {}
        for get in gets:
            if get.filter is not None and id(get.filter) not in evals_s:
                evals_s[id(get.filter)] = self._filter_cost_s(get.filter)
        # the seeks past ``booked`` are owed: booked in one charge_each
        # before a filter's charge and at the end, which adds their seconds
        # in the order one-by-one Gets would
        probed = seeks = booked = hits = returned = 0
        try:
            for i, get in enumerate(gets):
                k = slot[keys[i]]
                for family in chosen[i]:
                    asked, admitting, __ = blooms[family]
                    probed += asked
                    seeks += len(admitting.get(k, ()))
                cells = found[i]
                if cells and get.filter is not None:
                    # a Get is its own one-row scan: its filter is compiled
                    # for it, and charged between its seeks and the next's
                    ledger.charge_each(seek_s, seeks - booked)
                    booked = seeks
                    ledger.charge(evals_s[id(get.filter)], "hbase.filter_evals")
                    try:
                        kept = get.filter.compile()(keys[i], cells)
                    except Exception as exc:
                        raise self._filter_error(
                            exc, region_name, keys[i]) from exc
                    if not kept:
                        cells = None
                if not cells:
                    answers.append(([], 0))
                    continue
                nbytes = sum(map(Cell.heap_size, cells))
                hits += 1
                returned += nbytes
                answers.append((cells, nbytes))
        finally:
            ledger.charge_each(seek_s, seeks - booked)
            # a counter is created exactly when one-by-one Gets create it
            if gets:
                ledger.count("hbase.bloom_probes", probed)
            if seeks:
                ledger.count("hbase.seeks", seeks)
            if hits:
                ledger.count("hbase.rows_returned", hits)
                ledger.count("hbase.bytes_returned", returned)
        return answers

    # -- atomic row operations ----------------------------------------------
    def increment(self, region_name: str, row: bytes, family: str,
                  qualifier: str, amount: int, timestamp: int,
                  ledger: Optional[CostLedger] = None) -> int:
        """Atomically add ``amount`` to a counter column; returns the result.

        HBase counters are 8-byte big-endian longs; a missing cell counts
        as zero.
        """
        import struct

        with self._write_lock:
            region = self._region(region_name)
            ledger = ledger if ledger is not None else CostLedger()
            current = 0
            hit = self.get(region_name, row, columns={(family, qualifier)},
                           ledger=ledger)
            if hit is not None:
                for cell in hit[1]:
                    if cell.family == family and cell.qualifier == qualifier:
                        current = struct.unpack(">q", cell.value)[0]
                        break
            new_value = current + amount
            cell = Cell(row, family, qualifier, timestamp,
                        struct.pack(">q", new_value))
            self.wal.append(region_name, [cell], region.table_name)
            region.put_cells([cell])
            ledger.charge(self.cost.wal_sync_cost_s, "hbase.wal_syncs")
            return new_value

    def check_and_put(self, region_name: str, row: bytes, family: str,
                      qualifier: str, expected: Optional[bytes],
                      put_cells: Sequence[Cell], nbytes: int,
                      ledger: Optional[CostLedger] = None) -> bool:
        """Atomic compare-and-set: apply ``put_cells`` (``nbytes`` heap
        bytes) iff the current value of ``(row, family, qualifier)`` equals
        ``expected`` (None = absent)."""
        with self._write_lock:
            ledger = ledger if ledger is not None else CostLedger()
            hit = self.get(region_name, row, columns={(family, qualifier)},
                           ledger=ledger)
            current = None
            if hit is not None:
                for cell in hit[1]:
                    if cell.family == family and cell.qualifier == qualifier:
                        current = cell.value
                        break
            if current != expected:
                return False
            self.put(region_name, put_cells, ledger, nbytes)
            return True

    # -- coprocessors -----------------------------------------------------------
    def exec_coprocessor(self, region_name: str, endpoint, params: dict,
                         ledger: Optional[CostLedger] = None) -> object:
        """Run a server-side endpoint against one region (HBase coprocessors).

        ``endpoint`` is a callable ``(region, params, cost, ledger) -> result``
        executing *inside* the region server -- the mechanism the Huawei
        connector uses to ship aggregation into HBase (section III.C).
        """
        region = self._region(region_name)
        ledger = ledger if ledger is not None else CostLedger()
        ledger.charge(self.cost.rpc_latency_s, "hbase.coprocessor_calls")
        return endpoint(region, params, self.cost, ledger)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"RegionServer({self.server_id}@{self.host}, {len(self.regions)} regions, {state})"
