"""HBaseRelation: the Data Source API plug-in (the paper's core design).

Implements the engine-facing contract -- ``schema``, ``size_in_bytes``,
``build_scan(required_columns, filters)``, ``unhandled_filters``, ``insert``
-- on top of the catalog, the coders, the range algebra, the pushdown
compiler, partition pruning/fusion, the connection cache and the credentials
manager.  Each optimization has an independent toggle so the ablation
benchmarks can isolate its contribution.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from repro.common.errors import CatalogError, HBaseError
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.conncache import DEFAULT_CONNECTION_CACHE
from repro.core.credentials import DEFAULT_CREDENTIALS_MANAGER
from repro.core.keys import RowCodec
from repro.core.partitions import build_partitions
from repro.core.pushdown import PushdownCompiler
from repro.core.ranges import FULL_SCAN, RangeBuilder
from repro.core.scan_rdd import HBaseTableScanRDD
from repro.hbase.client import Configuration, ConnectionFactory
from repro.hbase.cluster import get_cluster
from repro.hbase.region import TimeRange
from repro.hbase.security import KeytabStore, UserGroupInformation
from repro.sql.sources import BaseRelation, Filter as SourceFilter, RelationProvider, register_provider
from repro.sql.types import StructType

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD
    from repro.engine.scheduler import TaskContext
    from repro.sql.physical import ExecContext

#: the full Spark format name from the paper's code listings
DEFAULT_FORMAT = "org.apache.spark.sql.execution.datasources.hbase"
QUORUM_OPTION = Configuration.QUORUM

_TRUE = ("true", "1", "yes", "on", True)


class HBaseRelation(BaseRelation):
    """One logical binding of a catalog to a physical HBase table."""

    def __init__(self, options: Dict[str, object], session) -> None:
        self.options = dict(options)
        self.session = session
        catalog_json = self.options.get(HBaseTableCatalog.tableCatalog)
        if not catalog_json:
            raise CatalogError(
                f'HBase relations need the {HBaseTableCatalog.tableCatalog!r} option'
            )
        self.catalog = HBaseTableCatalog.from_json(catalog_json)
        #: the row format's one owner (docs/architecture.md "Row format");
        #: Avro-schema references resolve against the read options
        self.codec = RowCodec(self.catalog, self.options)
        quorum = self.options.get(QUORUM_OPTION)
        if not quorum:
            raise CatalogError(f"HBase relations need the {QUORUM_OPTION!r} option")
        self.quorum = str(quorum)
        self.cluster = get_cluster(self.quorum)
        self._schema = self._resolve_schema()
        self.connection_cache = DEFAULT_CONNECTION_CACHE
        self.credentials_manager = DEFAULT_CREDENTIALS_MANAGER

    def _resolve_schema(self) -> StructType:
        from repro.core.coders.avro import AvroRecordCoder

        schema = StructType()
        for field in self.catalog.sql_schema():
            coder = self.codec.field_coders[field.name]
            if isinstance(coder, AvroRecordCoder):
                schema = schema.add(field.name, coder.sql_type())
            else:
                schema = schema.add(field.name, field.dtype)
        return schema

    # -- feature toggles -------------------------------------------------------
    def _flag(self, key: str, default: bool = True) -> bool:
        value = self.options.get(key)
        if value is None:
            value = self.session.conf.get(key)
        if value is None:
            return default
        return str(value).lower() in ("true", "1", "yes", "on")

    @property
    def pushdown_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.PUSHDOWN)

    @property
    def pruning_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.PRUNING)

    @property
    def column_pruning_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.COLUMN_PRUNING)

    @property
    def locality_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.LOCALITY)

    @property
    def fusion_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.FUSION)

    @property
    def connection_cache_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.CONNECTION_CACHE)

    @property
    def prune_all_dimensions(self) -> bool:
        return self._flag(HBaseSparkConf.PRUNE_ALL_DIMENSIONS, default=False)

    @property
    def security_enabled(self) -> bool:
        return self._flag(HBaseSparkConf.CREDENTIALS_ENABLED, default=False)

    @property
    def replica_read_enabled(self) -> bool:
        """``hbase.read.replica``: timeline-consistent replica routing.

        Off by default; even when on, routing engages only if the cluster
        has a ReplicationManager attached, so the flag alone never changes
        a ledger.
        """
        return self._flag(HBaseSparkConf.READ_REPLICA, default=False)

    def replica_staleness_s(self) -> float:
        """Max replication lag (simulated s) a replica read may serve behind.

        Zero (or negative) forces every read back to the primary -- the
        strict-consistency end of the timeline knob.
        """
        value = self.options.get(HBaseSparkConf.REPLICA_STALENESS)
        if value is None:
            value = self.session.conf.get(HBaseSparkConf.REPLICA_STALENESS)
        return float(value) if value is not None else 5.0

    # -- BaseRelation contract ----------------------------------------------------
    @property
    def schema(self) -> StructType:
        return self._schema

    def size_in_bytes(self) -> Optional[int]:
        """SHC understands the storage: real region sizes from HBase meta."""
        try:
            return self.cluster.table_size_bytes(self.catalog.qualified_name)
        except HBaseError:
            return None

    def unhandled_filters(self, filters: Sequence[SourceFilter]) -> Sequence[SourceFilter]:
        if not self.pushdown_enabled:
            return list(filters)
        compiled = PushdownCompiler(self.codec).compile(filters)
        unhandled = list(compiled.unhandled)
        if not self.pruning_enabled:
            # row-key predicates were only "handled" because pruning would
            # restrict the scan; with pruning off Spark must re-apply them
            unhandled.extend(compiled.handled_by_pruning or [])
        return unhandled

    def build_scan(self, required_columns: Sequence[str],
                   filters: Sequence[SourceFilter]) -> "RDD":
        if self.pruning_enabled:
            builder = RangeBuilder(self.codec, self.prune_all_dimensions)
            ranges = builder.ranges_for_filters(filters)
        else:
            ranges = list(FULL_SCAN)
        hbase_filter = None
        filter_columns = set()
        if self.pushdown_enabled:
            compiled = PushdownCompiler(self.codec).compile(filters)
            hbase_filter = compiled.hbase_filter
            if hbase_filter is not None:
                filter_columns = _filter_columns(hbase_filter)
        locations = self.cluster.region_locations(self.catalog.qualified_name)
        candidates, routing = self._read_candidates(locations)
        partitions = build_partitions(
            locations, ranges, self.fusion_enabled, candidates,
            split_keys=self._split_keys, estimate_bytes=self._range_bytes)
        if routing is not None:
            served = [w.location for p in partitions for w in p.work]
            routing["replica_scans"] = sum(1 for loc in served if loc.replica_id)
            # a region is split when more than one server reads a piece of it
            readers = {(loc.region_name, loc.server_id) for loc in served}
            routing["split_regions"] = sum(
                1 for n in Counter(name for name, __ in readers).values() if n > 1)
        rdd = HBaseTableScanRDD(self, required_columns, hbase_filter,
                                partitions, filter_columns)
        #: table-wide region count before pruning, so EXPLAIN ANALYZE can
        #: report scanned vs. pruned regions for this scan
        rdd.regions_total = len(locations)
        #: replica routing decisions (None when routing did not engage), so
        #: EXPLAIN ANALYZE and the metrics can report them per query
        rdd.replica_routing = routing
        return rdd

    def _read_candidates(self, locations):
        """Who may serve each region's scans (docs/replication.md): the
        candidate map for the partition builder -- empty, with no routing
        record, unless ``hbase.read.replica`` is on *and* the cluster
        replicates -- and what the staleness bound did to it."""
        replication = self.cluster.replication
        if not self.replica_read_enabled or replication is None:
            return {}, None
        staleness = self.replica_staleness_s()
        candidates = {}
        routing = {"stale_excluded": 0, "primary_fallbacks": 0}
        for location in locations:
            cands, excluded = replication.read_candidates(location, staleness)
            candidates[location.region_name] = cands
            routing["stale_excluded"] += excluded
            if excluded and len(cands) == 1:
                # replicas exist but none qualified: this region's reads
                # fell back to the primary
                routing["primary_fallbacks"] += 1
        return candidates, routing

    def _split_keys(self, location, lo: bytes, hi):
        """Store-file block start keys strictly inside ``(lo, hi)``."""
        region = self.cluster.get_region(location.region_name)
        if region is None:
            return []
        keys = {
            key
            for store in region.stores.values()
            for store_file in store.files
            for key in store_file.block_start_keys()
            if key > lo and (hi is None or key < hi)
        }
        return sorted(keys)

    def _range_bytes(self, location, scan_range) -> int:
        """I/O bytes one clipped range touches (for piece balancing)."""
        region = self.cluster.get_region(location.region_name)
        if region is None:
            return 0
        return region.io_bytes_for_range(scan_range.start, scan_range.stop)

    def replica_failover_location(self, old_location, row: bytes):
        """Warm location a crashed-primary scan should resume at (or None)."""
        replication = self.cluster.replication
        if replication is None or not self.replica_read_enabled:
            return None
        return replication.failover_location(
            self.catalog.qualified_name, old_location, row)

    def insert(self, rdd: "RDD", schema: StructType, ctx: "ExecContext",
               overwrite: bool = False) -> int:
        from repro.core.writer import insert_into_hbase

        return insert_into_hbase(self, rdd, schema, ctx, overwrite)

    # -- query-context options (paper Code 5) --------------------------------------
    def time_range(self) -> Optional[TimeRange]:
        timestamp = self.options.get(HBaseSparkConf.TIMESTAMP)
        if timestamp is not None:
            ts = int(timestamp)
            return TimeRange(ts, ts + 1)
        min_ts = self.options.get(HBaseSparkConf.MIN_TIMESTAMP)
        max_ts = self.options.get(HBaseSparkConf.MAX_TIMESTAMP)
        if min_ts is None and max_ts is None:
            return None
        return TimeRange(
            int(min_ts) if min_ts is not None else 0,
            int(max_ts) if max_ts is not None else 2**63 - 1,
        )

    def max_versions(self) -> int:
        value = self.options.get(HBaseSparkConf.MAX_VERSIONS)
        return int(value) if value is not None else 1

    def scan_caching(self) -> Optional[int]:
        """Rows per scan RPC (``hbase.spark.query.cachedrows``); None = default."""
        value = self.options.get(HBaseSparkConf.CACHED_ROWS)
        if value is None:
            value = self.session.conf.get(HBaseSparkConf.CACHED_ROWS)
        return int(value) if value is not None else None

    # -- connections & security ------------------------------------------------------
    def decode_cell_cost(self) -> float:
        cost = self.session.cost
        return cost.decode_cell_s * cost.coder_factor(self.codec.coder.name)

    def encode_cell_cost(self) -> float:
        cost = self.session.cost
        return cost.encode_cell_s * cost.coder_factor(self.codec.coder.name)

    def _ugi(self, ledger) -> Optional[UserGroupInformation]:
        if not self.cluster.secure:
            return None
        if not self.security_enabled:
            raise HBaseError(
                f"cluster {self.cluster.name} is secure; set "
                f"{HBaseSparkConf.CREDENTIALS_ENABLED}=true and configure "
                f"principal/keytab"
            )
        principal = self.options.get(HBaseSparkConf.PRINCIPAL) \
            or self.session.conf.get(HBaseSparkConf.PRINCIPAL)
        keytab_path = self.options.get(HBaseSparkConf.KEYTAB) \
            or self.session.conf.get(HBaseSparkConf.KEYTAB)
        if not principal or not keytab_path:
            raise HBaseError("secure access needs spark.yarn.principal and .keytab")
        keytab = KeytabStore.load(str(keytab_path))
        ugi = UserGroupInformation(str(principal))
        token = self.credentials_manager.get_token_for_cluster(
            self.cluster, keytab, ledger
        )
        self.credentials_manager.apply_to_ugi(ugi, token)
        return ugi

    def connection_conf(self, host: str) -> Configuration:
        """The connection configuration for a task running on ``host``.

        The client host is part of the cache key (one JVM-local pool per
        executor), so acquire and release must build it identically --
        concurrent tasks on different hosts each hit their own pooled
        connection.
        """
        conf = Configuration({
            Configuration.QUORUM: self.quorum,
            Configuration.CLIENT_HOST: host,
        })
        # retry-policy knobs flow from read options / session conf into the
        # client, like hbase-site properties on an executor's classpath
        for key in (Configuration.RETRIES_NUMBER, Configuration.CLIENT_PAUSE,
                    Configuration.CLIENT_PAUSE_MAX,
                    Configuration.OPERATION_TIMEOUT):
            value = self.options.get(key)
            if value is None:
                value = self.session.conf.get(key)
            if value is not None:
                conf[key] = value
        return conf

    def acquire_connection(self, ctx: "TaskContext"):
        """Per-task connection acquisition (executor-local cache keying)."""
        conf = self.connection_conf(ctx.host)
        ugi = self._ugi(ctx.ledger)
        if self.connection_cache_enabled:
            delay = self.options.get(HBaseSparkConf.CONNECTION_CLOSE_DELAY) \
                or self.session.conf.get(HBaseSparkConf.CONNECTION_CLOSE_DELAY)
            if delay is not None:
                self.connection_cache.close_delay_s = float(delay)
            return self.connection_cache.acquire(
                conf, self.cluster.clock, self.session.cost, ctx.ledger, ugi
            )
        ctx.ledger.charge(self.session.cost.connection_setup_s,
                          "shc.connection_setups")
        return ConnectionFactory.create_connection(conf, ugi)

    def release_connection(self, ctx: "TaskContext") -> None:
        if self.connection_cache_enabled:
            self.connection_cache.release(
                self.connection_conf(ctx.host), self.cluster.clock
            )

    def __repr__(self) -> str:
        return f"HBaseRelation({self.catalog.name} @ {self.quorum})"


def _filter_columns(hbase_filter) -> set:
    """Every (family, qualifier) a server-side filter tree reads."""
    from repro.hbase.filters import FilterList, SingleColumnValueFilter

    out = set()
    stack = [hbase_filter]
    while stack:
        node = stack.pop()
        if isinstance(node, SingleColumnValueFilter):
            out.add((node.family, node.qualifier))
        elif isinstance(node, FilterList):
            stack.extend(node.filters)
    return out


class HBaseRelationProvider(RelationProvider):
    """The DataSource registration for SHC."""

    def create_relation(self, options: Dict[str, str], session) -> HBaseRelation:
        return HBaseRelation(options, session)


register_provider(DEFAULT_FORMAT, HBaseRelationProvider())
register_provider("shc", HBaseRelationProvider())
