"""Unit tests for the region read-replica substrate (docs/replication.md).

Placement, the async WAL-tail shipping loop, timeline-consistent reads,
staleness-bounded candidate selection, and promotion after a primary death.
"""

import pytest

from repro.common.errors import RegionOfflineError
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Get, Put, Scan
from repro.hbase.cell import Cell


@pytest.fixture
def replicated(hbase_cluster):
    """A split table with one replica per region; returns (cluster, table)."""
    hbase_cluster.create_table("t", ["f"], split_keys=[b"m"])
    hbase_cluster.enable_region_replication(replicas=1)
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    return hbase_cluster, conn.get_table("t")


def primary_of(cluster, region_name):
    return cluster.active_master.assignments[region_name]


def replica_values(replica, row):
    """Values the replica's own region copy serves for one row."""
    for got_row, cells in replica.region.scan_rows(row, row + b"\x00"):
        if got_row == row:
            return [c.value for c in cells]
    return []


def test_placement_avoids_primary_and_covers_every_region(replicated):
    cluster, _ = replicated
    replication = cluster.replication
    assert replication.stats() == {"regions_with_replicas": 2, "replicas": 2}
    for name in cluster.active_master.assignments:
        for replica in replication.replicas_for(name):
            assert replica.server_id != primary_of(cluster, name)
            server = cluster.region_servers[replica.server_id]
            assert server.replica_regions[name] is replica.region
            # same identity as the primary, distinct object and stores
            source = cluster.get_region(name)
            assert replica.region.name == source.name
            assert replica.region is not source


def test_flushed_data_reaches_replicas_for_free(replicated):
    cluster, table = replicated
    table.put(Put(b"a").add_column("f", "q", b"v"))
    cluster.flush_table("t")
    before = cluster.metrics.get("hbase.replica.shipped_bytes")
    cluster.replication.pump()
    # flushed edits travel via the shared HDFS store files, never the stream
    assert cluster.metrics.get("hbase.replica.shipped_bytes") == before
    (name,) = [n for n in cluster.active_master.assignments
               if cluster.get_region(n).contains_row(b"a")]
    (replica,) = cluster.replication.replicas_for(name)
    assert replica_values(replica, b"a") == [b"v"]


def test_unflushed_tail_is_shipped_and_billed(replicated):
    cluster, table = replicated
    replication = cluster.replication
    table.put(Put(b"a").add_column("f", "q", b"v"))
    (name,) = [n for n in cluster.active_master.assignments
               if cluster.get_region(n).contains_row(b"a")]
    (replica,) = replication.replicas_for(name)
    assert replication.lag_s(name, replica) > 0
    shipped = replication.pump()
    assert shipped >= 1
    assert cluster.metrics.get("hbase.replica.shipped_bytes") > 0
    assert cluster.metrics.get("hbase.replica.ship_batches") >= 1
    assert replication.lag_s(name, replica) == 0
    assert replica_values(replica, b"a") == [b"v"]


def test_replica_serves_a_consistent_older_view_between_pumps(replicated):
    cluster, table = replicated
    replication = cluster.replication
    table.put(Put(b"a").add_column("f", "q", b"old"))
    replication.pump()
    # a newer write is invisible on the replica until the next pump:
    # timeline consistency, not read-your-writes
    cluster.clock.advance(0.01)  # strictly newer timestamp
    table.put(Put(b"a").add_column("f", "q", b"new"))
    (name,) = [n for n in cluster.active_master.assignments
               if cluster.get_region(n).contains_row(b"a")]
    (replica,) = replication.replicas_for(name)
    assert replica_values(replica, b"a") == [b"old"]
    replication.pump()
    assert replica_values(replica, b"a") == [b"new"]


def test_read_candidates_respect_staleness_and_health(replicated):
    cluster, table = replicated
    replication = cluster.replication
    location = cluster.active_master.locate("t", b"a")
    (replica,) = replication.replicas_for(location.region_name)

    # zero bound: primary only, the replica counts as excluded
    candidates, excluded = replication.read_candidates(location, 0)
    assert [loc.server_id for loc in candidates] == [location.server_id]
    assert excluded == 1

    # generous bound: primary first, then the tagged replica location
    candidates, excluded = replication.read_candidates(location, 60.0)
    assert len(candidates) == 2 and excluded == 0
    assert candidates[0].replica_id == 0
    assert candidates[1].server_id == replica.server_id
    assert candidates[1].replica_id == replica.replica_id

    # an unflushed tail beyond the bound excludes the replica
    table.put(Put(b"a").add_column("f", "q", b"x" * 64))
    lag = replication.lag_s(location.region_name, replica)
    assert lag > 0
    candidates, excluded = replication.read_candidates(location, lag / 2)
    assert len(candidates) == 1 and excluded == 1

    # serving-layer health reports filter too
    replication.pump()
    cluster.report_server_health(replica.server_id, healthy=False)
    candidates, excluded = replication.read_candidates(location, 60.0)
    assert len(candidates) == 1 and excluded == 1
    cluster.report_server_health(replica.server_id, healthy=True)
    candidates, _ = replication.read_candidates(location, 60.0)
    assert len(candidates) == 2


def test_writes_never_touch_a_secondary(replicated):
    cluster, table = replicated
    table.put(Put(b"a").add_column("f", "q", b"v"))
    cluster.replication.pump()
    location = cluster.active_master.locate("t", b"a")
    (replica,) = cluster.replication.replicas_for(location.region_name)
    replica_server = cluster.region_servers[replica.server_id]
    # the replica host serves a read that names its copy...
    got = replica_server.get(location.region_name, b"a",
                             replica_id=replica.replica_id)
    assert got is not None and got[0] == b"a"
    # ...but refuses a primary read, and a write routed there, as offline
    with pytest.raises(RegionOfflineError):
        replica_server.get(location.region_name, b"a")
    with pytest.raises(RegionOfflineError):
        replica_server.put(
            location.region_name,
            [Cell(b"a", "f", "q", cluster.clock.now_millis(), b"w")],
            CostLedger(),
        )


def test_promotion_catches_up_from_the_dead_wal(replicated):
    cluster, table = replicated
    replication = cluster.replication
    table.put(Put(b"a").add_column("f", "q", b"pumped"))
    replication.pump()
    # this edit never reaches the replica before the crash
    table.put(Put(b"b").add_column("f", "q", b"tail"))
    location = cluster.active_master.locate("t", b"a")
    (replica,) = replication.replicas_for(location.region_name)

    cluster.kill_region_server(location.server_id)

    assert cluster.metrics.get("hbase.replica.promotions") == 1
    assert cluster.metrics.get("hbase.replica.catchup_bytes") > 0
    new_owner = primary_of(cluster, location.region_name)
    assert new_owner == replica.server_id
    # the promoted region serves reads and writes, tail included
    assert table.get(Get(b"a")).get_value("f", "q") == b"pumped"
    assert table.get(Get(b"b")).get_value("f", "q") == b"tail"
    table.put(Put(b"c").add_column("f", "q", b"post"))
    assert table.get(Get(b"c")).get_value("f", "q") == b"post"


def test_replica_keeps_serving_a_row_across_a_move_of_its_primary(replicated):
    cluster, table = replicated
    replication = cluster.replication
    table.put(Put(b"a").add_column("f", "q", b"v"))
    cluster.run_maintenance()   # ships the unflushed tail
    location = cluster.active_master.locate("t", b"a")
    name = location.region_name
    (replica,) = replication.replicas_for(name)
    assert replica_values(replica, b"a") == [b"v"]
    target = next(s for s in cluster.region_servers
                  if s not in (location.server_id, replica.server_id))
    cluster.active_master.move_region(name, target)
    # the move flushed the row, and the replica counts from the new log
    assert replication.lag_s(name, replica) == 0
    cluster.run_maintenance()
    assert replication.replicas_for(name) == [replica]
    assert replica_values(replica, b"a") == [b"v"]
    fresh = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    fresh.put(Put(b"b").add_column("f", "q", b"w"))
    assert replication.lag_s(name, replica) > 0
    before = cluster.metrics.get("hbase.replica.shipped_bytes")
    cluster.run_maintenance()
    assert cluster.metrics.get("hbase.replica.shipped_bytes") > before
    assert replica_values(replica, b"b") == [b"w"]


def test_maintenance_replaces_replicas_lost_with_their_server(replicated):
    cluster, _ = replicated
    replication = cluster.replication
    location = cluster.active_master.locate("t", b"a")
    (replica,) = replication.replicas_for(location.region_name)
    # kill the *replica's* server: the copy dies with its memory
    cluster.kill_region_server(replica.server_id)
    assert replication.replicas_for(location.region_name) == []
    # the maintenance hook re-places it on a remaining live server
    cluster.run_maintenance()
    (fresh,) = replication.replicas_for(location.region_name)
    assert cluster.region_servers[fresh.server_id].alive
    assert fresh.server_id != primary_of(cluster, location.region_name)


def test_disable_clears_every_replica(replicated):
    cluster, _ = replicated
    assert any(s.replica_regions for s in cluster.region_servers.values())
    cluster.disable_region_replication()
    assert cluster.replication is None
    assert not any(s.replica_regions for s in cluster.region_servers.values())


def test_replication_off_cluster_has_no_replica_counters(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    table = conn.get_table("t")
    table.put(Put(b"a").add_column("f", "q", b"v"))
    assert [r.row for r in table.scan(Scan())] == [b"a"]
    for key in hbase_cluster.metrics.snapshot():
        assert not key.startswith("hbase.replica."), key


def test_a_stale_client_never_reads_the_primary_from_a_secondary(hbase_cluster):
    """A long-lived connection's cached location can point at a server that
    has since become the region's *secondary*.  Its primary read must be
    refused there and relocated -- visibly, as a retry -- not answered from
    the older copy."""
    cluster = hbase_cluster
    cluster.create_table("t", ["f"])
    cluster.enable_region_replication(replicas=1)
    # two long-lived connections, each with the region's location cached
    getter, scanner = (
        ConnectionFactory.create_connection(
            cluster.configuration()).get_table("t") for __ in range(2))
    getter.put(Put(b"a").add_column("f", "q", b"v1"))
    assert getter.get(Get(b"a")).get_value("f", "q") == b"v1"
    assert len(scanner.scan(Scan())) == 1
    location = cluster.active_master.locate("t", b"a")
    name = location.region_name
    (replica,) = cluster.replication.replicas_for(name)
    (third,) = [s for s in cluster.region_servers
                if s not in (location.server_id, replica.server_id)]

    cluster.active_master.move_region(name, third)
    cluster.kill_region_server(replica.server_id)
    cluster.run_maintenance()
    # the only live non-primary server is the old primary's: it now holds
    # the secondary, which is where the old connections still point
    (secondary,) = cluster.replication.replicas_for(name)
    assert secondary.server_id == location.server_id

    cluster.clock.advance(0.001)
    fresh = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    fresh.put(Put(b"a").add_column("f", "q", b"v2"))

    ledger = CostLedger()
    assert getter.get(Get(b"a"), ledger=ledger).get_value("f", "q") == b"v2"
    assert ledger.metrics.get("hbase.retries") >= 1
    ledger = CostLedger()
    (row,) = scanner.scan(Scan(), ledger=ledger)
    assert row.get_value("f", "q") == b"v2"
    assert ledger.metrics.get("hbase.retries") >= 1
