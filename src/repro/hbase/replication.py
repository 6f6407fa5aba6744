"""Region read replicas: warm secondary copies with timeline consistency.

Real HBase region replicas (HBASE-10070) keep read-only secondary copies of
every region on other region servers.  Secondaries serve *timeline
consistent* reads: possibly stale, never out of order -- flushed data arrives
through the shared HDFS store files (file replication is HDFS's job and
costs the read path nothing extra), while the unflushed memstore tail is
streamed asynchronously from the primary's WAL and billed to a cluster-owned
replication ledger.  Two things fall out of that design here:

- **Hot-region scans spread out.**  With ``hbase.read.replica`` on, the scan
  planner splits a hot region's key range at store-file block boundaries and
  routes the pieces across the replica hosts (docs/replication.md).
- **Failover becomes a warm read.**  When fault injection kills a primary,
  the master *promotes* a caught-up secondary instead of reassigning onto a
  cold server, and an in-flight resumable scan re-routes to it without
  paying the retry backoff.

With replication never enabled (``cluster.replication is None``) nothing in
this module runs and every ledger stays byte-identical to the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import HBaseError
from repro.common.metrics import CostLedger
from repro.hbase.master import RegionLocation
from repro.hbase.region import Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster
    from repro.hbase.wal import WriteAheadLog


class RegionReplica:
    """One secondary copy of a region, hosted on another region server."""

    __slots__ = ("replica_id", "server_id", "host", "region", "applied_seq")

    def __init__(self, replica_id: int, server_id: str, host: str,
                 region: Region, applied_seq: int) -> None:
        self.replica_id = replica_id
        self.server_id = server_id
        self.host = host
        #: this replica's own Region object: private memstore, shared files
        self.region = region
        #: highest primary-WAL sequence id reflected in this copy
        self.applied_seq = applied_seq

    def __repr__(self) -> str:
        return (f"RegionReplica(#{self.replica_id} of {self.region.name} "
                f"@ {self.server_id}, applied_seq={self.applied_seq})")


class ReplicationManager:
    """Places, ships to, and promotes region read replicas for one cluster.

    All replication work -- the initial memstore snapshot, the periodic WAL
    tail shipping, promotion catch-up -- is charged to :attr:`ledger`, whose
    counters land in the cluster-wide metrics registry.  Query ledgers are
    never billed for replication: it is background work, exactly like real
    HBase's async replication threads.
    """

    def __init__(self, cluster: "HBaseCluster", replicas: int = 1) -> None:
        if replicas < 1:
            raise HBaseError("region replication needs at least one replica")
        self.cluster = cluster
        self.replica_count = replicas
        #: background replication cost; counters go to ``cluster.metrics``
        self.ledger = CostLedger(cluster.metrics)
        self._replicas: Dict[str, List[RegionReplica]] = {}

    # -- placement ---------------------------------------------------------
    def ensure_placement(self) -> int:
        """Open missing replicas for every assigned region; returns opens.

        Runs from ``HBaseCluster.run_maintenance`` -- the same deterministic
        hook that splits and balances -- so replica placement follows region
        lifecycle changes without any background thread.
        """
        opened = 0
        master = self.cluster.active_master
        for region_name in sorted(master.assignments):
            if self.cluster.get_region(region_name) is None:
                continue
            primary_id = master.assignments[region_name]
            existing = self._replicas.setdefault(region_name, [])
            # a balance move can land the primary on a replica host; that
            # copy is redundant now and its slot frees up for a better host
            for replica in list(existing):
                if replica.server_id == primary_id:
                    self._drop_replica(region_name, replica)
            while len(existing) < self.replica_count:
                target = self._pick_host(region_name, primary_id, existing)
                if target is None:
                    break
                existing.append(self._open_replica(region_name, target))
                opened += 1
        return opened

    def _pick_host(self, region_name: str, primary_id: str,
                   existing: List[RegionReplica]):
        """Best server for the next replica: local store files, low load."""
        taken = {primary_id} | {r.server_id for r in existing}
        source = self.cluster.get_region(region_name)
        hdfs_files = [
            f.hdfs_file for store in source.stores.values()
            for f in store.files if f.hdfs_file is not None
        ]
        candidates = [
            s for s in self.cluster.region_servers.values()
            if s.alive and s.server_id not in taken
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda s: (
                -self.cluster.hdfs.local_fraction(hdfs_files, s.host),
                len(s.regions) + len(s.replica_regions),
                s.server_id,
            ),
        )

    def _open_replica(self, region_name: str, target) -> RegionReplica:
        source = self.cluster.get_region(region_name)
        # a replica IS the region, just elsewhere: same identity (and so the
        # same name), own stores
        clone = Region(source.table_name, list(source.stores),
                       source.start_row, source.end_row,
                       source.flush_threshold, region_id=source.region_id)
        replica = RegionReplica(
            replica_id=len(self._replicas.get(region_name, [])) + 1,
            server_id=target.server_id, host=target.host,
            region=clone, applied_seq=0,    # the first sync ships the tail
        )
        target.replica_regions[region_name] = clone
        self._sync_replica(region_name, replica)
        return replica

    def _drop_replica(self, region_name: str, replica: RegionReplica) -> None:
        self._replicas.get(region_name, []).remove(replica)
        server = self.cluster.region_servers.get(replica.server_id)
        if server is not None:
            server.replica_regions.pop(region_name, None)

    def drop_region(self, region_name: str) -> None:
        """The region is gone (split/merge/drop): discard its replicas."""
        for replica in self._replicas.pop(region_name, []):
            server = self.cluster.region_servers.get(replica.server_id)
            if server is not None:
                server.replica_regions.pop(region_name, None)

    def drop_server_replicas(self, server_id: str) -> None:
        """A server died: its replica copies died with its memory."""
        for region_name, replicas in self._replicas.items():
            for replica in list(replicas):
                if replica.server_id == server_id:
                    replicas.remove(replica)

    def replicas_for(self, region_name: str) -> List[RegionReplica]:
        return list(self._replicas.get(region_name, []))

    # -- the async shipping loop -------------------------------------------
    def pump(self) -> int:
        """Ship pending WAL tails to every replica; returns entries shipped.

        Flushed edits are *not* streamed: they reach replicas through the
        shared HDFS store files (the file view is refreshed here), mirroring
        how real secondaries pick up flushes.  Only the unflushed memstore
        tail moves over the replication stream and gets billed.
        """
        shipped = 0
        for region_name in sorted(self._replicas):
            for replica in self._replicas[region_name]:
                shipped += self._sync_replica(region_name, replica)
        return shipped

    def _primary_wal(self, region_name: str) -> Optional["WriteAheadLog"]:
        owner = self.cluster.active_master.assignments.get(region_name)
        server = self.cluster.region_servers.get(owner) if owner else None
        if server is None or not server.alive:
            return None
        return server.wal

    def _sync_replica(self, region_name: str, replica: RegionReplica) -> int:
        wal = self._primary_wal(region_name)
        source = self.cluster.get_region(region_name)
        if wal is None or source is None:
            return 0
        cost = self.cluster.cost
        to_ship = wal.entries_since(region_name, max(
            replica.applied_seq, wal.flushed_sequence_id(region_name)))
        if to_ship:
            nbytes = sum(e.nbytes for e in to_ship)
            self.ledger.charge(cost.rpc_latency_s, "hbase.replica.ship_batches")
            self.ledger.charge(nbytes / cost.replication_bytes_per_sec,
                               "hbase.replica.shipped_bytes", nbytes)
        replica.applied_seq = wal.last_sequence_id()
        self._refresh_copy(replica.region, source, list(wal.replay(region_name)))
        return len(to_ship)

    @staticmethod
    def _refresh_copy(copy: Region, source: Region, tail) -> None:
        """Point the copy at the source's current files; rebuild its tail.

        The file list is snapshotted (not shared), so between pumps a
        replica serves one *consistent* earlier view -- timeline
        consistency, not read-your-writes.
        """
        for family, store in source.stores.items():
            mirror = copy.stores[family]
            mirror.files = list(store.files)
            mirror.memstore.clear()
        if tail:
            copy.put_cells(list(tail))

    def lag_s(self, region_name: str, replica: RegionReplica) -> float:
        """Simulated seconds of replication lag for one replica."""
        wal = self._primary_wal(region_name)
        if wal is None:
            return 0.0
        pending = wal.entries_since(region_name, replica.applied_seq)
        return (sum(e.nbytes for e in pending)
                / self.cluster.cost.replication_bytes_per_sec)

    # -- replica-aware read routing ----------------------------------------
    def read_candidates(
        self, location: RegionLocation, staleness_bound_s: float,
    ) -> Tuple[List[RegionLocation], int]:
        """Locations eligible to serve a scan of this region, primary first.

        A replica qualifies only if its server is alive *and* healthy per
        the serving layer's signals, and its replication lag fits within the
        staleness bound.  A bound of zero (or less) forces primary reads.
        Returns ``(locations, excluded)`` where ``excluded`` counts replicas
        that exist but did not qualify.
        """
        out = [location]
        replicas = self._replicas.get(location.region_name, [])
        if staleness_bound_s <= 0:
            return out, len(replicas)
        excluded = 0
        for replica in replicas:
            server = self.cluster.region_servers.get(replica.server_id)
            if (server is None or not server.alive
                    or not self.cluster.is_server_healthy(replica.server_id)
                    or self.lag_s(location.region_name, replica)
                    > staleness_bound_s):
                excluded += 1
                continue
            out.append(RegionLocation(
                location.region_name, location.table_name,
                location.start_row, location.end_row,
                replica.server_id, replica.host,
                replica_id=replica.replica_id,
            ))
        return out, excluded

    def failover_location(self, table_name: str, old: RegionLocation,
                          row: bytes) -> Optional[RegionLocation]:
        """Where a scan interrupted at ``old`` should resume *warm*.

        After a primary death the master has already promoted a caught-up
        secondary, so a fresh meta lookup lands on it.  Returns None when
        the region still maps to the same server (a transient fault --
        normal backoff applies) or nothing live serves it.
        """
        try:
            fresh = self.cluster.active_master.locate(table_name, row)
        except HBaseError:
            return None
        if fresh.server_id == old.server_id:
            return None
        server = self.cluster.region_servers.get(fresh.server_id)
        if server is None or not server.alive:
            return None
        return fresh

    # -- failover ----------------------------------------------------------
    def promote(self, region_name: str, dead_wal: "WriteAheadLog") -> Optional[str]:
        """Promote a live secondary to primary after its primary died.

        Every surviving replica first catches up from the dead server's WAL
        (billed as ``hbase.replica.catchup_bytes``); the lowest-server-id
        one's host then opens its copy like any recovered region -- the dead
        log's tail replayed and flushed before it serves -- so a second
        failure cannot lose the tail and no log holds it twice.  Returns the
        new owner's server id, or None when no live replica exists (the
        caller falls back to cold reassignment + WAL replay).
        """
        live = sorted(
            (r for r in self._replicas.get(region_name, [])
             if self.cluster.region_servers[r.server_id].alive),
            key=lambda r: r.server_id,
        )
        if not live:
            return None
        cost = self.cluster.cost
        flushed = dead_wal.flushed_sequence_id(region_name)
        for replica in live:
            pending = dead_wal.entries_since(
                region_name, max(replica.applied_seq, flushed))
            nbytes = sum(e.nbytes for e in pending)
            if nbytes:
                self.ledger.charge(nbytes / cost.replication_bytes_per_sec,
                                   "hbase.replica.catchup_bytes", nbytes)
        chosen, rest = live[0], live[1:]
        new_server = self.cluster.region_servers[chosen.server_id]
        self._refresh_copy(chosen.region, self.cluster.get_region(region_name), ())
        new_server.replica_regions.pop(region_name, None)
        new_server.open_region(chosen.region, replay_wal=dead_wal)
        self.cluster.register_region(chosen.region)
        self._replicas[region_name] = rest
        for replica in rest:
            self._refresh_copy(replica.region, chosen.region, ())
        self.primary_moved(region_name, new_server.wal)
        self.ledger.count("hbase.replica.promotions")
        return chosen.server_id

    def primary_moved(self, region_name: str, wal: "WriteAheadLog") -> None:
        """The region now logs to ``wal``, where none of it is unflushed yet
        (a hand-over flushes): its replicas count from that log's end."""
        for replica in self._replicas.get(region_name, ()):
            replica.applied_seq = wal.last_sequence_id()

    def stats(self) -> Dict[str, int]:
        """Replica topology snapshot for tests and reports."""
        return {
            "regions_with_replicas": sum(
                1 for v in self._replicas.values() if v),
            "replicas": sum(len(v) for v in self._replicas.values()),
        }
