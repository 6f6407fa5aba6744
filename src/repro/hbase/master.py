"""The HMaster: table DDL, region assignment, balancing, failure handling.

Masters are elected through ZooKeeper; the active master persists table
descriptors and the region assignment map into znodes, so a standby that wins
the next election rebuilds the full administrative state (section VI.B).
Region *data* itself lives in store files ("HDFS" = the cluster's persistent
region registry), which is why a region-server crash loses only unflushed
memstore edits -- and those are recovered from the dead server's WAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.common.errors import HBaseError, NoSuchTableError, TableExistsError
from repro.hbase.region import Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster

TABLES_ZNODE = "/hbase/tables"
ASSIGN_ZNODE = "/hbase/assignments"
ELECTION_ZNODE = "/hbase/master-election"
ATTRS_ZNODE = "/hbase/table-attrs"


@dataclass(frozen=True)
class TableDescriptor:
    """Schema-level metadata for one table."""

    name: str
    families: tuple
    max_versions: int = 3

    def to_json(self) -> dict:
        return {"name": self.name, "families": list(self.families), "max_versions": self.max_versions}

    @staticmethod
    def from_json(data: dict) -> "TableDescriptor":
        return TableDescriptor(data["name"], tuple(data["families"]), data["max_versions"])


@dataclass(frozen=True)
class RegionLocation:
    """Where one region lives: its key range and its hosting server.

    ``replica_id`` 0 is the primary; read replicas (docs/replication.md)
    surface as additional locations with the secondary's server/host and a
    positive id, so a scan routed there carries its provenance along.
    """

    region_name: str
    table_name: str
    start_row: bytes
    end_row: bytes
    server_id: str
    host: str
    replica_id: int = 0


class HMaster:
    """One master process; at most one is active at a time."""

    def __init__(self, name: str, cluster: "HBaseCluster") -> None:
        self.name = name
        self.cluster = cluster
        self.session_id = cluster.zookeeper.create_session()
        self._candidate_path = cluster.zookeeper.elect(ELECTION_ZNODE, name, self.session_id)
        self.tables: Dict[str, TableDescriptor] = {}
        #: free-form metadata riding with the schema (e.g. ANALYZE stats)
        self.table_attributes: Dict[str, Dict[str, str]] = {}
        self.assignments: Dict[str, str] = {}  # region name -> server id
        if self.is_active():
            self._load_state()

    # -- election ---------------------------------------------------------
    def is_active(self) -> bool:
        return self.cluster.zookeeper.leader(ELECTION_ZNODE) == self.name

    def fail(self) -> None:
        """Kill this master; its ephemeral election node disappears."""
        self.cluster.zookeeper.expire_session(self.session_id)

    def take_over(self) -> None:
        """Called on a standby after the active master died: rebuild state."""
        if not self.is_active():
            raise HBaseError(f"{self.name} is not the election leader")
        self._load_state()

    def _require_active(self) -> None:
        if not self.is_active():
            raise HBaseError(f"master {self.name} is in standby mode")

    # -- persistence --------------------------------------------------------
    def _load_state(self) -> None:
        zk = self.cluster.zookeeper
        if zk.exists(TABLES_ZNODE):
            raw = zk.get_json(TABLES_ZNODE)
            self.tables = {n: TableDescriptor.from_json(d) for n, d in raw.items()}
        if zk.exists(ASSIGN_ZNODE):
            self.assignments = dict(zk.get_json(ASSIGN_ZNODE))
        if zk.exists(ATTRS_ZNODE):
            self.table_attributes = {
                n: dict(v) for n, v in zk.get_json(ATTRS_ZNODE).items()
            }

    def _save_state(self) -> None:
        zk = self.cluster.zookeeper
        zk.set_json(TABLES_ZNODE, {n: d.to_json() for n, d in self.tables.items()})
        zk.set_json(ASSIGN_ZNODE, self.assignments)
        zk.set_json(ATTRS_ZNODE, self.table_attributes)

    # -- DDL ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        families: Sequence[str],
        split_keys: Optional[Sequence[bytes]] = None,
        max_versions: int = 3,
    ) -> TableDescriptor:
        """Create a table pre-split at ``split_keys`` (sorted, exclusive starts)."""
        self._require_active()
        if name in self.tables:
            raise TableExistsError(f"table {name} already exists")
        if not families:
            raise HBaseError("a table needs at least one column family")
        descriptor = TableDescriptor(name, tuple(families), max_versions)
        self.tables[name] = descriptor

        boundaries: List[bytes] = [b""]
        for key in sorted(set(split_keys or [])):
            if key:
                boundaries.append(key)
        for i, start in enumerate(boundaries):
            end = boundaries[i + 1] if i + 1 < len(boundaries) else b""
            region = Region(name, list(families), start, end,
                            flush_threshold=self.cluster.flush_threshold,
                            region_id=self.cluster.next_region_id())
            self.cluster.register_region(region)
            self._assign(region)
        self._save_state()
        return descriptor

    def drop_table(self, name: str) -> None:
        self._require_active()
        if name not in self.tables:
            raise NoSuchTableError(f"table {name} does not exist")
        for region_name in [r for r, __ in self._table_regions(name)]:
            server = self.cluster.region_servers.get(self.assignments.pop(region_name, ""))
            if server is not None and server.alive and region_name in server.regions:
                server.close_region(region_name)
            self.cluster.unregister_region(region_name)
        del self.tables[name]
        self.table_attributes.pop(name, None)
        self._save_state()

    def set_table_attribute(self, name: str, key: str, value: str) -> None:
        """Attach one metadata attribute to a table, persisted like schema.

        Survives master failover through the same ZooKeeper znode replay
        as the table descriptors (the stats catalog rides on this).
        """
        self._require_active()
        if name not in self.tables:
            raise NoSuchTableError(f"table {name} does not exist")
        self.table_attributes.setdefault(name, {})[key] = value
        self._save_state()

    def get_table_attribute(self, name: str, key: str) -> Optional[str]:
        if name not in self.tables:
            raise NoSuchTableError(f"table {name} does not exist")
        return self.table_attributes.get(name, {}).get(key)

    def describe_table(self, name: str) -> TableDescriptor:
        descriptor = self.tables.get(name)
        if descriptor is None:
            raise NoSuchTableError(f"table {name} does not exist")
        return descriptor

    # -- assignment -------------------------------------------------------------
    def _assign(self, region: Region, replay_wal=None) -> None:
        """Place a region on the least-loaded live server."""
        servers = [s for s in self.cluster.region_servers.values() if s.alive]
        if not servers:
            raise HBaseError("no live region servers")
        target = min(servers, key=lambda s: len(s.regions))
        target.open_region(region, replay_wal=replay_wal)
        self.assignments[region.name] = target.server_id

    def _table_regions(self, table_name: str) -> List[tuple]:
        pairs = []
        for region_name, server_id in self.assignments.items():
            region = self.cluster.get_region(region_name)
            if region is not None and region.table_name == table_name:
                pairs.append((region_name, server_id))
        return pairs

    def region_locations(self, table_name: str) -> List[RegionLocation]:
        """All regions of a table in row-key order -- SHC's partition source."""
        if table_name not in self.tables:
            raise NoSuchTableError(f"table {table_name} does not exist")
        locations = []
        for region_name, server_id in self._table_regions(table_name):
            region = self.cluster.get_region(region_name)
            server = self.cluster.region_servers[server_id]
            locations.append(
                RegionLocation(region_name, table_name, region.start_row,
                               region.end_row, server_id, server.host)
            )
        locations.sort(key=lambda loc: loc.start_row)
        return locations

    def locate(self, table_name: str, row: bytes) -> RegionLocation:
        """Which region (and server) holds ``row``."""
        for location in self.region_locations(table_name):
            region = self.cluster.get_region(location.region_name)
            if region.contains_row(row):
                return location
        raise HBaseError(f"no region of {table_name} contains row {row!r}")

    # -- failure handling ---------------------------------------------------
    def handle_server_failure(self, server_id: str) -> List[str]:
        """Reassign a dead server's regions, replaying its WAL (log splitting).

        With region replication enabled, each region is first offered to its
        replication manager for *promotion*: a caught-up warm secondary takes
        over without WAL replay into a cold region.  Only regions with no
        live replica fall back to the cold reassignment path.
        """
        self._require_active()
        dead = self.cluster.region_servers.get(server_id)
        if dead is None:
            raise HBaseError(f"unknown server {server_id}")
        replication = self.cluster.replication
        moved = []
        for region_name, owner in list(self.assignments.items()):
            if owner != server_id:
                continue
            dead.regions.pop(region_name, None)
            new_owner = (replication.promote(region_name, dead.wal)
                         if replication is not None else None)
            if new_owner is None:
                self._assign(self.cluster.get_region(region_name),
                             replay_wal=dead.wal)
            else:
                self.assignments[region_name] = new_owner
            moved.append(region_name)
        if replication is not None:
            replication.drop_server_replicas(server_id)
        self._save_state()
        return moved

    # -- balancing & splits ------------------------------------------------------
    def balance(self) -> int:
        """Move regions from overloaded to underloaded servers; returns moves."""
        self._require_active()
        moves = 0
        while True:
            live = [s for s in self.cluster.region_servers.values() if s.alive]
            if len(live) < 2:
                return moves
            busiest = max(live, key=lambda s: len(s.regions))
            idlest = min(live, key=lambda s: len(s.regions))
            if len(busiest.regions) - len(idlest.regions) <= 1:
                return moves
            self.move_region(next(iter(busiest.regions)), idlest.server_id)
            moves += 1

    def move_region(self, region_name: str, server_id: str) -> None:
        """Move a live region: flush, close, open on ``server_id``, reassign
        (the hand-over rule, docs/fault_tolerance.md)."""
        self._require_active()
        owner = self.cluster.region_servers[self.assignments[region_name]]
        target = self.cluster.region_servers[server_id]
        if not target.alive:
            raise HBaseError(f"cannot move {region_name} to dead server {server_id}")
        target.open_region(owner.release_region(region_name))
        self.assignments[region_name] = server_id
        if self.cluster.replication is not None:
            self.cluster.replication.primary_moved(region_name, target.wal)
        self._save_state()

    def merge_regions(self, left_name: str, right_name: str) -> str:
        """Merge two adjacent regions into one (HBase ``merge_region``).

        Both regions are released (flushed, then closed) first; the merged
        region adopts every store file (a major compaction collapses them).
        """
        self._require_active()
        left_owner = self.assignments.get(left_name)
        right_owner = self.assignments.get(right_name)
        if left_owner is None or right_owner is None:
            raise HBaseError("both regions must be online to merge")
        left = self.cluster.get_region(left_name)
        right = self.cluster.get_region(right_name)
        if left.table_name != right.table_name:
            raise HBaseError("cannot merge regions of different tables")
        if left.start_row > right.start_row:
            left, right = right, left
            left_name, right_name = right_name, left_name
            left_owner, right_owner = right_owner, left_owner
        if left.end_row != right.start_row:
            raise HBaseError(
                f"regions {left_name} and {right_name} are not adjacent"
            )
        for name, owner in ((left_name, left_owner), (right_name, right_owner)):
            self.cluster.region_servers[owner].release_region(name)
            del self.assignments[name]
            self.cluster.unregister_region(name)

        merged = Region(left.table_name, list(left.stores), left.start_row,
                        right.end_row, flush_threshold=left.flush_threshold,
                        region_id=self.cluster.next_region_id())
        for family in merged.stores:
            merged.stores[family].files = (
                list(left.stores[family].files)
                + list(right.stores[family].files)
            )
        self.cluster.register_region(merged)
        self._assign(merged)
        self._save_state()
        return merged.name

    def split_region(self, region_name: str) -> Optional[List[str]]:
        """Split one region in two and reassign the daughters."""
        self._require_active()
        server_id = self.assignments.get(region_name)
        if server_id is None:
            raise HBaseError(f"region {region_name} is not assigned")
        server = self.cluster.region_servers[server_id]
        region = server.regions.get(region_name)
        if region is None:
            raise HBaseError(f"region {region_name} is offline")
        daughters = region.split(self.cluster.next_region_id)
        if daughters is None:
            return None
        # no flush: the daughters' files hold the parent's memstore and tail
        server.close_region(region_name)
        del self.assignments[region_name]
        self.cluster.unregister_region(region_name)
        names = []
        for daughter in daughters:
            self.cluster.register_region(daughter)
            self._assign(daughter)
            names.append(daughter.name)
        self._save_state()
        return names
