"""The HBase client API: Connections, Tables, Put/Get/Scan/Delete/Result.

Mirrors the pieces of ``org.apache.hadoop.hbase.client`` SHC programs against:
``ConnectionFactory.create_connection`` (the heavyweight operation SHC's
connection cache exists to avoid), ``Table`` with ``put``/``get``/``scan``/
``delete``/``bulk_get`` and ``get_scanner`` (the one scan, resumable, that
SHC reads through), and builder-style ``Scan``/``Get``/``Put``/``Delete``
request objects.  Every data operation accepts a cost ledger and charges RPC
latency plus network transfer when the caller is not co-located with the
region server -- which is how data locality becomes measurable.
"""

from __future__ import annotations

import copy
import threading
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar,
    TYPE_CHECKING,
)

import functools

from repro.common.errors import (
    FilterEvalError,
    HBaseError,
    RegionOfflineError,
    TransientRpcError,
)
from repro.common.faults import FAULT_FILTER, FAULT_RPC, FAULT_STALE_META, FAULT_SCAN_STREAM
from repro.common.metrics import CostLedger
from repro.common.retry import RetryPolicy
from repro.hbase.cell import Cell, CellType
from repro.hbase.filters import Filter
from repro.hbase.master import RegionLocation
from repro.hbase.region import TimeRange
from repro.hbase.security import UserGroupInformation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster

_R = TypeVar("_R", bound="_Read")


class Configuration(dict):
    """String-keyed configuration (``hbase-site.xml`` stand-in).

    The key ``hbase.zookeeper.quorum`` names the target cluster; it is also
    what SHC's connection cache and credentials manager key their caches on.
    """

    QUORUM = "hbase.zookeeper.quorum"
    CLIENT_HOST = "hbase.client.host"
    #: retry-policy knobs, named after their real hbase-site counterparts
    RETRIES_NUMBER = "hbase.client.retries.number"
    CLIENT_PAUSE = "hbase.client.pause"
    CLIENT_PAUSE_MAX = "hbase.client.pause.max"
    OPERATION_TIMEOUT = "hbase.client.operation.timeout"

    def cluster_key(self) -> str:
        quorum = self.get(self.QUORUM)
        if not quorum:
            raise HBaseError(f"configuration is missing {self.QUORUM}")
        return quorum


# -- request/response objects ------------------------------------------------

class Put:
    """A batched mutation adding cells to one row."""

    def __init__(self, row: bytes) -> None:
        self.row = row
        self._cells: List[Tuple[str, str, bytes, Optional[int]]] = []

    def add_column(self, family: str, qualifier: str, value: bytes,
                   timestamp: Optional[int] = None) -> "Put":
        self._cells.append((family, qualifier, value, timestamp))
        return self

    def to_cells(self, default_ts: int) -> List[Cell]:
        return [
            Cell(self.row, family, qualifier, ts if ts is not None else default_ts, value)
            for family, qualifier, value, ts in self._cells
        ]

    def heap_size(self) -> int:
        return len(self.row) + sum(len(v) + len(f) + len(q) + 12 for f, q, v, __ in self._cells)


class Delete:
    """Tombstone mutation: whole row, one family, one column, or one version."""

    def __init__(self, row: bytes) -> None:
        self.row = row
        self._family_deletes: List[str] = []
        self._column_deletes: List[Tuple[str, str]] = []
        self._version_deletes: List[Tuple[str, str, int]] = []
        self._whole_row = True

    def add_family(self, family: str) -> "Delete":
        self._family_deletes.append(family)
        self._whole_row = False
        return self

    def add_column(self, family: str, qualifier: str,
                   timestamp: Optional[int] = None) -> "Delete":
        """Delete all versions of a column, or exactly one version when
        ``timestamp`` is given (HBase's ``Delete.addColumn(..., ts)``)."""
        if timestamp is None:
            self._column_deletes.append((family, qualifier))
        else:
            self._version_deletes.append((family, qualifier, timestamp))
        self._whole_row = False
        return self

    def to_cells(self, families: Sequence[str], default_ts: int) -> List[Cell]:
        if self._whole_row:
            return [
                Cell(self.row, family, "", default_ts, cell_type=CellType.DELETE_FAMILY)
                for family in families
            ]
        cells = [
            Cell(self.row, family, "", default_ts, cell_type=CellType.DELETE_FAMILY)
            for family in self._family_deletes
        ]
        cells.extend(
            Cell(self.row, family, qualifier, default_ts, cell_type=CellType.DELETE_COLUMN)
            for family, qualifier in self._column_deletes
        )
        cells.extend(
            Cell(self.row, family, qualifier, timestamp, cell_type=CellType.DELETE)
            for family, qualifier, timestamp in self._version_deletes
        )
        return cells


class _Read:
    """What a Get and a Scan both say: which cells of a row to return."""

    def __init__(self) -> None:
        self.columns: Optional[Set[Tuple[str, str]]] = None
        self.families: Optional[Set[str]] = None
        self.filter: Optional[Filter] = None
        self.time_range: Optional[TimeRange] = None
        self.max_versions = 1

    def add_column(self: _R, family: str, qualifier: str) -> _R:
        if self.columns is None:
            self.columns = set()
        self.columns.add((family, qualifier))
        return self

    def add_family(self: _R, family: str) -> _R:
        if self.families is None:
            self.families = set()
        self.families.add(family)
        return self

    def set_filter(self: _R, row_filter: Filter) -> _R:
        self.filter = row_filter
        return self

    def set_time_range(self: _R, min_ts: int, max_ts: int) -> _R:
        self.time_range = TimeRange(min_ts, max_ts)
        return self

    def set_max_versions(self: _R, n: int) -> _R:
        self.max_versions = n
        return self


class Get(_Read):
    """A point read of one row, with optional server-side filter."""

    def __init__(self, row: bytes) -> None:
        super().__init__()
        self.row = row


class Scan(_Read):
    """A range read ``[start_row, stop_row)`` with optional server-side filter."""

    def __init__(self, start_row: bytes = b"", stop_row: Optional[bytes] = None) -> None:
        super().__init__()
        self.start_row = start_row
        self.stop_row = stop_row
        #: rows fetched per RPC round trip (HBase scanner caching)
        self.caching = 1000

    def set_caching(self, rows_per_rpc: int) -> "Scan":
        if rows_per_rpc <= 0:
            raise ValueError("caching must be positive")
        self.caching = rows_per_rpc
        return self


class Result:
    """One row returned by Get/Scan: the row key plus its visible cells."""

    def __init__(self, row: bytes, cells: Sequence[Cell]) -> None:
        self.row = row
        self.cells = list(cells)

    def get_value(self, family: str, qualifier: str) -> Optional[bytes]:
        """Newest value of one column, or None."""
        for cell in self.cells:  # cells arrive newest-first per column
            if cell.family == family and cell.qualifier == qualifier:
                return cell.value
        return None

    def is_empty(self) -> bool:
        return not self.cells

    def __repr__(self) -> str:
        return f"Result({self.row!r}, {len(self.cells)} cells)"


# -- connections ----------------------------------------------------------------

class Connection:
    """A live client connection to one cluster, with a meta-location cache.

    A pooled connection is shared by every executor-slot thread of a task
    runner, so the meta cache is guarded by a lock: lookups snapshot under
    it and invalidation never races an in-progress read.
    """

    def __init__(self, conf: Configuration, ugi: Optional[UserGroupInformation] = None,
                 cluster: Optional["HBaseCluster"] = None) -> None:
        from repro.hbase.cluster import get_cluster  # local import: cycle guard

        self.conf = conf
        #: the cluster asked for, else the newest live one the quorum names
        self.cluster: "HBaseCluster" = (
            cluster if cluster is not None else get_cluster(conf.cluster_key()))
        self.ugi = ugi
        self.client_host = conf.get(Configuration.CLIENT_HOST, "client")
        self.connection_id = self.cluster.next_connection_id()
        self.closed = False
        self._meta_lock = threading.Lock()
        self._location_cache: Dict[str, List[RegionLocation]] = {}
        timeout = conf.get(Configuration.OPERATION_TIMEOUT)
        self.retry_policy = RetryPolicy(
            max_attempts=int(conf.get(Configuration.RETRIES_NUMBER, 4)),
            base_backoff_s=float(conf.get(Configuration.CLIENT_PAUSE, 0.05)),
            max_backoff_s=float(conf.get(Configuration.CLIENT_PAUSE_MAX, 2.0)),
            deadline_s=float(timeout) if timeout is not None else None,
        )
        # connection setup really is heavyweight: ZooKeeper round trips + meta
        self.cluster.metrics.incr("hbase.connections_created")

    def get_table(self, name: str) -> "Table":
        self._check_open()
        return Table(self, name)

    def region_locations(self, table_name: str) -> List[RegionLocation]:
        """Locations for a table, cached client-side like HBase's meta cache."""
        self._check_open()
        with self._meta_lock:
            cached = self._location_cache.get(table_name)
        if cached is None:
            cached = self.cluster.active_master.region_locations(table_name)
            with self._meta_lock:
                self._location_cache[table_name] = cached
        return cached

    def locate(self, table_name: str, row: bytes) -> RegionLocation:
        """The cached location of the region holding ``row``.

        A cached layout that no longer covers the row is stale: it is
        dropped, and the caller's retry step relocates instead of failing.
        """
        for location in self.region_locations(table_name):
            if row < location.start_row:
                continue
            if not location.end_row or row < location.end_row:
                return location
        self.invalidate_location_cache(table_name)
        raise RegionOfflineError(
            f"no region of {table_name} holds row {row!r} (stale meta?)"
        )

    def invalidate_location_cache(self, table_name: Optional[str] = None) -> None:
        with self._meta_lock:
            if table_name is None:
                self._location_cache.clear()
            else:
                self._location_cache.pop(table_name, None)

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise HBaseError("connection is closed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Connection(#{self.connection_id} -> {self.cluster.name}, {state})"


class ConnectionFactory:
    """Creates connections.  Each call is expensive; see SHC's connection cache."""

    @staticmethod
    def create_connection(conf: Configuration,
                          ugi: Optional[UserGroupInformation] = None,
                          cluster: Optional["HBaseCluster"] = None) -> Connection:
        return Connection(conf, ugi, cluster)


def _retries(method):
    """Run a :class:`Table` operation under :meth:`Table._retrying`, with
    the ledger it was handed (or a fresh one) and its name as the op."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        ledger = kwargs.get("ledger")
        if ledger is None:
            for value in args:
                if isinstance(value, CostLedger):
                    ledger = value
                    break
        if ledger is None:
            # retries of a ledger-less call still need one place to
            # accumulate backoff for the deadline check
            ledger = CostLedger()
            kwargs["ledger"] = ledger
        return self._retrying(method.__name__, ledger,
                              lambda: method(self, *args, **kwargs))

    return wrapper


class Table:
    """Client handle for data-plane operations on one table."""

    def __init__(self, connection: Connection, name: str) -> None:
        self.connection = connection
        self.name = name
        self.cluster = connection.cluster
        self._cost = self.cluster.cost
        # fail fast on unknown tables, like HBase's table existence check
        self.cluster.active_master.describe_table(name)

    # -- security -----------------------------------------------------------
    def _check_auth(self) -> None:
        if not self.cluster.secure:
            return
        ugi = self.connection.ugi
        token = ugi.get_token(self.cluster.service_name) if ugi else None
        self.cluster.token_authority.validate(token)

    def _retrying(self, op: str, ledger: CostLedger, attempt):
        """Call ``attempt()`` until it returns, retrying with fresh meta and
        capped exponential backoff on retryable errors.

        Mirrors HBase's retrying caller: NotServingRegion-style errors (a
        region that split, merged, balanced or failed over) invalidate the
        cached location so the retry relocates; transient RPC failures just
        back off.  What a retry costs and when the operation gives up
        instead is the connection's :meth:`RetryPolicy.before_retry
        <repro.common.retry.RetryPolicy.before_retry>`; the operation's
        clock starts at the call.
        """
        policy = self.connection.retry_policy
        start_s = ledger.seconds
        failures = 0
        while True:
            try:
                return attempt()
            except (RegionOfflineError, TransientRpcError) as exc:
                if isinstance(exc, RegionOfflineError):
                    self.connection.invalidate_location_cache(self.name)
                failures += 1
                policy.before_retry(failures, exc, ledger, start_s,
                                    key=(self.name, op), op=op,
                                    table=self.name)

    # -- RPC cost helpers ------------------------------------------------------
    def _charge_rpc(self, ledger: CostLedger, server_host: str, payload_bytes: int,
                    rpcs: int = 1) -> None:
        ledger.charge(self._cost.rpc_latency_s * rpcs, "hbase.rpcs", rpcs)
        if server_host != self.connection.client_host:
            ledger.charge(
                payload_bytes / self._cost.network_bytes_per_sec,
                "hbase.network_bytes", payload_bytes,
            )
        else:
            # co-located transfers still serialise across the process
            # boundary; data locality saves the wire, not the copy
            ledger.charge(
                payload_bytes / self._cost.local_ipc_bytes_per_sec,
                "hbase.local_ipc_bytes", payload_bytes,
            )

    def _fault(self, point: str, key: str, ledger: Optional[CostLedger] = None,
               **ctx) -> None:
        """Consult the cluster's fault injector at one fault point (or no-op)."""
        faults = self.cluster.faults
        if faults is not None:
            faults.check(point, key=key, ledger=ledger,
                         cluster=self.cluster, **ctx)

    def _locate(self, row: bytes) -> RegionLocation:
        self._fault(FAULT_STALE_META, self.name)
        return self.connection.locate(self.name, row)

    def _rpc(self, location: RegionLocation, ledger: CostLedger, call,
             request_bytes: Optional[int] = None):
        """The one way a data request leaves the client for a region server.

        Authenticate, consult the ``hbase.rpc`` fault point, look the server
        up, run ``call(server)`` on it.  A write states its
        ``request_bytes`` and is billed before it is applied (a refused
        write still crossed the wire); a read bills what came back once it
        knows how many pages that took.  Reads hand the server
        ``location.replica_id`` so that it answers for the copy the client
        believes it is talking to, or refuses.
        """
        self._check_auth()
        self._fault(FAULT_RPC, location.region_name, ledger,
                    server_id=location.server_id)
        server = self.cluster.region_servers[location.server_id]
        if request_bytes is not None:
            self._charge_rpc(ledger, location.host, request_bytes)
        return call(server)

    def _mutate(self, location: RegionLocation, cells: List[Cell],
                ledger: CostLedger) -> None:
        self._rpc(location, ledger,
                  lambda server: server.put(location.region_name, cells, ledger),
                  request_bytes=sum(c.heap_size() for c in cells))

    # -- writes ------------------------------------------------------------------
    def put(self, puts: "Put | Iterable[Put]", ledger: Optional[CostLedger] = None) -> None:
        """Apply one or many Puts, batched per region.

        A retry re-sends only the Puts whose region refused them, located
        afresh: a region that applied its batch is neither written nor
        billed again, so its cells reach the WAL (and the change feed) once.
        """
        batch = [puts] if isinstance(puts, Put) else list(puts)
        ledger = ledger if ledger is not None else CostLedger()
        now_ms = self.cluster.clock.now_millis()
        applied = [False] * len(batch)

        def unapplied() -> None:
            # region -> its location and the indexes of its Puts, in order
            by_region: Dict[str, Tuple[RegionLocation, List[int]]] = {}
            for i, done in enumerate(applied):
                if not done:
                    location = self._locate(batch[i].row)
                    by_region.setdefault(location.region_name,
                                         (location, []))[1].append(i)
            for location, group in by_region.values():
                self._mutate(location, [
                    cell for i in group for cell in batch[i].to_cells(now_ms)],
                    ledger)
                for i in group:
                    applied[i] = True

        self._retrying("put", ledger, unapplied)

    @_retries
    def delete(self, delete: Delete, ledger: Optional[CostLedger] = None) -> None:
        descriptor = self.cluster.active_master.describe_table(self.name)
        cells = delete.to_cells(descriptor.families, self.cluster.clock.now_millis())
        self._mutate(self._locate(delete.row), cells, ledger)

    # -- reads -------------------------------------------------------------------
    def get(self, get: Get, ledger: Optional[CostLedger] = None) -> Result:
        """One Get: the one-Get case of :meth:`bulk_get`."""
        return self._read_rows("get", [get], ledger)[0]

    def bulk_get(self, gets: Sequence[Get], ledger: Optional[CostLedger] = None) -> List[Result]:
        """Batched Gets -- HBase's multi-get.  One Result per Get, in the
        order asked: two Gets of one row may ask for different cells.

        Each region server gets one RPC carrying its Gets grouped by
        region, and serves each region's group in one
        :meth:`RegionServer.get_rows
        <repro.hbase.regionserver.RegionServer.get_rows>` pass.  A retry
        re-sends only the Gets whose server failed: the servers that
        answered are neither asked nor billed again.
        """
        return self._read_rows("bulk_get", gets, ledger)

    def _read_rows(self, op: str, gets: Sequence[Get],
                   ledger: Optional[CostLedger]) -> List[Result]:
        """The multi-get behind :meth:`get` and :meth:`bulk_get`, retried
        as ``op``: each attempt asks for the Gets still unanswered.

        A server whose filtered batch fails (``FilterEvalError``) is asked
        again without the filters, which are then applied here: a row its
        filter rejects answers empty, as the server would have answered.
        """
        ledger = ledger if ledger is not None else CostLedger()
        results: List[Optional[Result]] = [None] * len(gets)
        filtered = any([get.filter is not None for get in gets])

        def unanswered() -> None:
            # server -> region -> the indexes of its Gets, in request order
            by_server: Dict[str, Dict[str, List[int]]] = {}
            locations: Dict[str, RegionLocation] = {}
            for i, result in enumerate(results):
                if result is None:
                    location = self._locate(gets[i].row)
                    locations[location.region_name] = location
                    by_server.setdefault(location.server_id, {}).setdefault(
                        location.region_name, []).append(i)
            for by_region in by_server.values():
                def serve(server, server_side=True):
                    answers = []
                    for name, group in by_region.items():
                        if server_side and filtered:
                            self._fault(FAULT_FILTER, name, ledger)
                        answers.append(server.get_rows(name, [
                            gets[i] if server_side else _unfiltered(gets[i])
                            for i in group], ledger, locations[name].replica_id))
                    return answers

                first = locations[next(iter(by_region))]
                client_side = False
                try:
                    served = self._rpc(first, ledger, serve)
                except FilterEvalError:
                    ledger.count("shc.filter_fallbacks")
                    served = self._rpc(first, ledger, lambda server: serve(
                        server, server_side=False))
                    client_side = True
                # a single multi-get RPC per server carries the whole batch
                self._charge_rpc(ledger, first.host, sum(
                    nbytes for answers in served for __, nbytes in answers))
                for group, answers in zip(by_region.values(), served):
                    for i, (cells, __) in zip(group, answers):
                        get = gets[i]
                        if client_side and cells and get.filter is not None \
                                and not get.filter.filter_row(get.row, cells):
                            cells = []
                        results[i] = Result(get.row, cells)

        self._retrying(op, ledger, unanswered)
        return results

    @_retries
    def increment(self, row: bytes, family: str, qualifier: str,
                  amount: int = 1,
                  ledger: Optional[CostLedger] = None) -> int:
        """Atomic counter increment (HBase ``Table.incrementColumnValue``)."""
        location = self._locate(row)
        return self._rpc(
            location, ledger,
            lambda server: server.increment(
                location.region_name, row, family, qualifier, amount,
                self.cluster.clock.now_millis(), ledger),
            request_bytes=16)

    @_retries
    def check_and_put(self, row: bytes, family: str, qualifier: str,
                      expected: Optional[bytes], put: "Put",
                      ledger: Optional[CostLedger] = None) -> bool:
        """Atomic compare-and-set (HBase ``Table.checkAndPut``)."""
        location = self._locate(row)
        cells = put.to_cells(self.cluster.clock.now_millis())
        return self._rpc(
            location, ledger,
            lambda server: server.check_and_put(
                location.region_name, row, family, qualifier, expected, cells,
                ledger),
            request_bytes=sum(c.heap_size() for c in cells))

    def scan(self, scan: Scan, ledger: Optional[CostLedger] = None) -> List[Result]:
        """Run a scan across every region overlapping the range: every row
        :meth:`get_scanner` yields, in a list."""
        return list(self.get_scanner(scan, ledger))

    def get_scanner(self, scan: Scan, ledger: Optional[CostLedger] = None,
                    location: Optional[RegionLocation] = None) -> Iterator[Result]:
        """The client's one scan (HBase's ``ResultScanner``): lazy, paged and
        resumable.

        It starts at ``location`` when given (a planned location, which may
        be a replica), else at the region holding ``scan.start_row``, and
        serves each region in ``scan.caching``-row pages, consulting
        ``hbase.scan_stream`` before each.  A region stream that ends, or
        whose reader closes it, bills every page the server answered in one
        :meth:`_charge_rpc`; one cut by a fault bills the pages delivered
        before the cut.

        It resumes after the last row received, so no row is lost or
        repeated.  After ``RegionOfflineError`` / ``TransientRpcError`` a
        replicated cluster first tries a warm failover (a promoted copy is
        the new primary; no backoff is paid), else the retry step runs
        (jitter keyed by region, op ``scan_range``, the clock started here)
        and the region is located again.  After ``FilterEvalError`` the scan
        is re-issued unfiltered and the filter applied here.  A range past
        its region's end continues in the next region.
        """
        ledger = ledger if ledger is not None else CostLedger()
        connection = self.connection
        replication = self.cluster.replication
        caching = scan.caching
        stop = scan.stop_row
        resume = scan.start_row
        server_filter = scan.filter
        client_filter: Optional[Filter] = None
        failures = 0
        started_s = ledger.seconds
        if location is None:
            location = connection.locate(self.name, resume)

        def serve(server):
            if server_filter is not None:
                self._fault(FAULT_FILTER, location.region_name, ledger)
            return server.scan(
                location.region_name, start_row=resume, stop_row=stop,
                columns=scan.columns, families=scan.families,
                row_filter=server_filter, time_range=scan.time_range,
                max_versions=scan.max_versions, ledger=ledger,
                replica_id=location.replica_id)

        while True:
            try:
                if location.replica_id:
                    # replica provenance: the counter feeds the replication
                    # bench, the span event feeds trace inspection
                    ledger.count("hbase.replica.reads")
                    _trace_event(ledger, "replica-read",
                                 region=location.region_name,
                                 server=location.server_id,
                                 replica_id=location.replica_id)
                self._fault(FAULT_STALE_META, location.region_name, ledger)
                rows, row_bytes = self._rpc(location, ledger, serve)
                pages = max(1, -(-len(rows) // caching))  # ceil division
                delivered = 0
                try:
                    for first in range(0, pages * caching, caching):
                        self._fault(FAULT_SCAN_STREAM, location.region_name,
                                    ledger, server_id=location.server_id)
                        delivered += 1
                        for row, cells in rows[first:first + caching]:
                            if client_filter is None or client_filter.filter_row(
                                    row, cells):
                                yield Result(row, cells)
                except GeneratorExit:
                    delivered = pages
                    raise
                finally:
                    if delivered:
                        received = min(delivered * caching, len(rows))
                        if received:
                            resume = rows[received - 1][0] + b"\x00"
                        self._charge_rpc(ledger, location.host,
                                         sum(row_bytes[:received]),
                                         rpcs=delivered)
            except FilterEvalError:
                if server_filter is None:
                    raise  # the filter failed on the client too
                client_filter, server_filter = scan.filter, None
                ledger.count("shc.filter_fallbacks")
                _trace_event(ledger, "filter-fallback",
                             region=location.region_name)
                continue
            except (RegionOfflineError, TransientRpcError) as exc:
                failures += 1
                connection.invalidate_location_cache(self.name)
                failover = None if replication is None else \
                    replication.failover_location(self.name, location, resume)
                if failover is not None:
                    ledger.count("hbase.replica.failovers")
                    _trace_event(ledger, "replica-failover",
                                 region=location.region_name,
                                 server=failover.server_id, failures=failures)
                    location = failover
                else:
                    connection.retry_policy.before_retry(
                        failures, exc, ledger, started_s,
                        key=location.region_name, op="scan_range",
                        table=self.name)
                    location = connection.locate(self.name, resume)
                ledger.count("shc.scan_resumes")
                continue
            end = location.end_row
            if not end or (stop is not None and end >= stop):
                return
            resume = max(resume, end)
            location = connection.locate(self.name, resume)


def _unfiltered(get: Get) -> Get:
    """A copy of ``get`` without its filter."""
    plain = copy.copy(get)
    plain.filter = None
    return plain


def _trace_event(ledger: CostLedger, name: str, **attrs) -> None:
    """Record ``name`` on the running task attempt's span, when tracing."""
    span = getattr(ledger, "trace_span", None)
    if span is not None and span.enabled:
        span.event(name, **attrs)
