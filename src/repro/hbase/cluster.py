"""Wiring for one HBase cluster: hosts, masters, region servers, ZooKeeper.

An :class:`HBaseCluster` builds a ZooKeeper ensemble, one region server per
host, and an active + optional standby HMaster.  It also owns the *persistent
region registry* (the stand-in for store files living in HDFS), the simulated
clock, the cost model, a cluster-wide metrics registry and SHC's connection
cache.  Clusters register themselves by ZooKeeper quorum name so
``ConnectionFactory`` can resolve a ``Configuration`` to a live cluster,
exactly like a classpath ``hbase-site``.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, List, Optional, Sequence

from repro.common.cost import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import HBaseError
from repro.common.metrics import MetricsRegistry
from repro.common.simclock import SimClock
from repro.hbase.client import Configuration
from repro.hbase.hdfs import DistributedFileSystem
from repro.hbase.master import HMaster, RegionLocation, TableDescriptor
from repro.hbase.region import DEFAULT_FLUSH_THRESHOLD_BYTES, Region
from repro.hbase.regionserver import RegionServer
from repro.hbase.security import KeyDistributionCenter, TokenAuthority
from repro.hbase.zookeeper import ZooKeeper

#: quorum name -> the newest live cluster of that name, the moral
#: equivalent of DNS + hbase-site.xml; it keeps no cluster alive
_CLUSTER_REGISTRY: "weakref.WeakValueDictionary[str, HBaseCluster]" = (
    weakref.WeakValueDictionary())


def get_cluster(quorum: str) -> "HBaseCluster":
    """Resolve a ZooKeeper quorum string to a registered cluster."""
    cluster = _CLUSTER_REGISTRY.get(quorum)
    if cluster is None:
        raise HBaseError(f"no HBase cluster registered for quorum {quorum!r}")
    return cluster


def clear_cluster_registry() -> None:
    """Forget every registered cluster (kept for ``benchmarks/e2e``; the
    registry holds no cluster alive, so nothing else needs it)."""
    _CLUSTER_REGISTRY.clear()


class HBaseCluster:
    """One self-contained HBase deployment."""

    def __init__(
        self,
        name: str,
        hosts: Sequence[str],
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        secure: bool = False,
        kdc: Optional[KeyDistributionCenter] = None,
        standby_masters: int = 0,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD_BYTES,
        region_max_bytes: Optional[int] = None,
        hdfs_replication: int = 3,
    ) -> None:
        if not hosts:
            raise HBaseError("a cluster needs at least one host")
        self.name = name
        self.hosts = list(hosts)
        self.clock = clock if clock is not None else SimClock()
        self.cost = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.metrics = MetricsRegistry()
        #: optional :class:`~repro.common.faults.FaultInjector`; while None,
        #: every substrate fault point is a single ``is None`` check
        self.faults = None
        self.flush_threshold = flush_threshold
        self.zookeeper = ZooKeeper()
        self.hdfs = DistributedFileSystem(self.hosts, hdfs_replication)
        self._regions: Dict[str, Region] = {}
        self._region_ids = itertools.count(1)
        self._connection_ids = itertools.count(1)
        #: optional :class:`~repro.hbase.replication.ReplicationManager`;
        #: while None, every replication hook is a single ``is None`` check
        self.replication = None
        #: optional :class:`~repro.hbase.cdc.CDCStream`; while None (the
        #: default), every CDC hook is a single ``is None`` check
        self.cdc = None
        #: servers the serving layer reported degraded (docs/replication.md);
        #: replica routing avoids them until they are reported healthy again
        self._unhealthy_servers: set = set()

        self.region_max_bytes = region_max_bytes
        self._pending_splits: set = set()
        self.region_servers: Dict[str, RegionServer] = {}
        for i, host in enumerate(self.hosts):
            server_id = f"{name}-rs{i}"
            server = RegionServer(server_id, host, self.cost)
            server.region_max_bytes = region_max_bytes
            server.split_listener = self._pending_splits.add
            server.hdfs = self.hdfs
            self.region_servers[server_id] = server

        self.masters: List[HMaster] = [HMaster(f"{name}-master0", self)]
        for i in range(standby_masters):
            self.masters.append(HMaster(f"{name}-master{i + 1}", self))

        self.secure = secure
        self.service_name = f"hbase/{name}"
        if secure:
            if kdc is None:
                raise HBaseError("a secure cluster needs a KDC")
            self.kdc = kdc
            self.token_authority = TokenAuthority(self.service_name, kdc, self.clock)
        else:
            self.kdc = kdc
            self.token_authority = None

        from repro.core.conncache import SHCConnectionCache  # local import: cycle guard

        #: SHC's connection cache (docs/caching.md, "Connection cache"):
        #: every session over this cluster shares it, a new cluster starts cold
        self.connection_cache = SHCConnectionCache(cluster=self)
        self.quorum = f"zk-{name}:2181"
        _CLUSTER_REGISTRY[self.quorum] = self

    # -- plumbing -----------------------------------------------------------
    def configuration(self, client_host: str = "client") -> Configuration:
        """A ready-to-use client Configuration pointing at this cluster."""
        return Configuration({
            Configuration.QUORUM: self.quorum,
            Configuration.CLIENT_HOST: client_host,
        })

    def enable_block_cache(self, capacity_bytes: int) -> None:
        """Give every region server a fresh LRU block cache of this size.

        Replaces any existing caches (so repeated calls reset hit counters).
        The cache is an opt-in ablation knob: until this is called, scans
        charge the exact uncached cost path.
        """
        from repro.hbase.blockcache import BlockCache

        for server in self.region_servers.values():
            server.block_cache = BlockCache(capacity_bytes)

    def disable_block_cache(self) -> None:
        """Detach every server's block cache, restoring uncached charging."""
        for server in self.region_servers.values():
            server.block_cache = None

    def block_cache_stats(self) -> Dict[str, object]:
        """Per-server cache snapshots, for tests and benchmark reports."""
        return {
            server_id: server.block_cache.stats()
            for server_id, server in self.region_servers.items()
            if server.block_cache is not None
        }

    def enable_region_replication(self, replicas: int = 1) -> "object":
        """Opt in to region read replicas (docs/replication.md).

        Creates a :class:`~repro.hbase.replication.ReplicationManager`,
        places ``replicas`` secondaries per region immediately, and keeps
        them fed from :meth:`run_maintenance`.  Until this is called (the
        default state) no replica exists and every cost path is
        byte-identical to the seed.
        """
        from repro.hbase.replication import ReplicationManager

        self.replication = ReplicationManager(self, replicas)
        self.replication.ensure_placement()
        return self.replication

    def enable_cdc(self) -> "object":
        """Opt in to change-data capture (docs/views.md).

        Creates a :class:`~repro.hbase.cdc.CDCStream` (idempotent: repeated
        calls return the same stream, keeping existing subscriptions) and
        keeps it pumped from :meth:`run_maintenance`.  Until this is called
        no WAL has a reader and every cost path is byte-identical to the
        seed.
        """
        from repro.hbase.cdc import CDCStream

        if self.cdc is None:
            self.cdc = CDCStream(self)
        return self.cdc

    def disable_cdc(self) -> None:
        """Drop every subscription (so none pins a log) and the stream."""
        if self.cdc is not None:
            for name in self.cdc.subscription_names():
                self.cdc.unsubscribe(name)
        self.cdc = None

    def disable_region_replication(self) -> None:
        """Drop every replica and detach the replication manager."""
        if self.replication is None:
            return
        for server in self.region_servers.values():
            server.replica_regions.clear()
        self.replication = None

    def report_server_health(self, server_id: str, healthy: bool) -> None:
        """Serving-layer health signal feeding replica read routing."""
        if healthy:
            self._unhealthy_servers.discard(server_id)
        else:
            self._unhealthy_servers.add(server_id)

    def is_server_healthy(self, server_id: str) -> bool:
        """Alive and not flagged degraded by the serving layer."""
        server = self.region_servers.get(server_id)
        if server is None or not server.alive:
            return False
        return server_id not in self._unhealthy_servers

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.common.faults.FaultInjector` (None removes it).

        Substrate fault points (client RPCs, meta lookups, mid-scan pages,
        pushed-down filters) consult ``cluster.faults`` on every invocation;
        with no injector installed they are exactly the fault-free code path.
        """
        self.faults = injector

    @property
    def active_master(self) -> HMaster:
        leader = self.zookeeper.leader("/hbase/master-election")
        for master in self.masters:
            if master.name == leader:
                return master
        raise HBaseError("no active master (did every master fail?)")

    def failover_master(self) -> HMaster:
        """After the active master dies, promote the new election winner."""
        master = self.active_master
        master.take_over()
        return master

    # -- persistent region registry ("HDFS") ----------------------------------
    def next_region_id(self) -> int:
        """The id of this cluster's next region (see :class:`Region`)."""
        return next(self._region_ids)

    def next_connection_id(self) -> int:
        """The id of this cluster's next client connection (#1 first)."""
        return next(self._connection_ids)

    def register_region(self, region: Region) -> None:
        self._regions[region.name] = region

    def unregister_region(self, region_name: str) -> None:
        self._regions.pop(region_name, None)
        if self.replication is not None:
            self.replication.drop_region(region_name)

    def get_region(self, region_name: str) -> Optional[Region]:
        return self._regions.get(region_name)

    # -- admin conveniences ---------------------------------------------------
    def create_table(
        self,
        name: str,
        families: Sequence[str],
        split_keys: Optional[Sequence[bytes]] = None,
        max_versions: int = 3,
    ) -> TableDescriptor:
        return self.active_master.create_table(name, families, split_keys, max_versions)

    def drop_table(self, name: str) -> None:
        self.active_master.drop_table(name)

    def has_table(self, name: str) -> bool:
        return name in self.active_master.tables

    def set_table_attribute(self, name: str, key: str, value: str) -> None:
        self.active_master.set_table_attribute(name, key, value)

    def get_table_attribute(self, name: str, key: str) -> Optional[str]:
        return self.active_master.get_table_attribute(name, key)

    def region_locations(self, table_name: str) -> List[RegionLocation]:
        return self.active_master.region_locations(table_name)

    def flush_table(self, table_name: str) -> None:
        for location in self.region_locations(table_name):
            self.region_servers[location.server_id].flush_region(location.region_name)

    def compact_table(self, table_name: str, major: bool = False) -> None:
        """Compact every region; a major one enforces the table's version limit."""
        keep = self.active_master.describe_table(table_name).max_versions
        for location in self.region_locations(table_name):
            self.region_servers[location.server_id].compact_region(
                location.region_name, major, keep)

    def run_maintenance(self) -> Dict[str, int]:
        """Split outgrown regions and rebalance -- HBase's background chores.

        Deterministic stand-in for the HMaster's housekeeping threads; the
        write path invokes it after flushing a table.
        """
        splits = 0
        while self._pending_splits:
            region_name = self._pending_splits.pop()
            if self.get_region(region_name) is None:
                continue
            daughters = self.active_master.split_region(region_name)
            if daughters:
                splits += 1
                if self.region_max_bytes is not None:
                    for daughter in daughters:
                        region = self.get_region(daughter)
                        if region is not None and region.size_bytes() >= self.region_max_bytes:
                            self._pending_splits.add(daughter)
        moves = self.active_master.balance()
        if self.replication is not None:
            self.replication.ensure_placement()
            self.replication.pump()
        if self.cdc is not None:
            self.cdc.pump()
        # last, after the pumps have read what they will.  A log lets go of
        # what is flushed and behind every attached reader; a replica is not
        # attached, but all it ever applies is its region's unflushed tail
        for server in self.region_servers.values():
            server.wal.truncate()
        return {"splits": splits, "moves": moves}

    def kill_region_server(self, server_id: str) -> List[str]:
        """Crash a server and run the master's recovery; returns moved regions."""
        server = self.region_servers.get(server_id)
        if server is None:
            raise HBaseError(f"unknown region server {server_id}")
        server.crash()
        return self.active_master.handle_server_failure(server_id)

    def table_size_bytes(self, table_name: str) -> int:
        total = 0
        for location in self.region_locations(table_name):
            region = self.get_region(location.region_name)
            if region is not None:
                total += region.size_bytes()
        return total

    def __repr__(self) -> str:
        return (
            f"HBaseCluster({self.name}, hosts={len(self.hosts)}, "
            f"tables={sorted(self.active_master.tables)})"
        )
