"""Unit tests for the WAL-tailing change-data-capture stream (docs/views.md).

Subscription baselines, exactly-once pumping, delivery across splits,
balance moves and server crashes, freshness accounting, and the shipping
costs billed to the cluster ledger.
"""

import pytest

from repro.common.errors import HBaseError
from repro.hbase import ConnectionFactory, Delete, Put
from repro.hbase.cluster import HBaseCluster


class Collector:
    """A subscription callback that remembers everything it was handed."""

    def __init__(self):
        self.batches = []

    def __call__(self, table, cells):
        self.batches.append((table, list(cells)))

    @property
    def rows(self):
        return [c.row for _, cells in self.batches for c in cells]


@pytest.fixture
def cdc_cluster(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    hbase_cluster.enable_cdc()
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    return hbase_cluster, conn.get_table("t")


def put_rows(table, rows):
    for row in rows:
        table.put(Put(row).add_column("f", "q", b"v"))


def test_enable_cdc_is_idempotent_and_disable_detaches(hbase_cluster):
    stream = hbase_cluster.enable_cdc()
    assert hbase_cluster.enable_cdc() is stream
    hbase_cluster.disable_cdc()
    assert hbase_cluster.cdc is None


def test_disabled_stream_does_not_pin_any_log(cdc_cluster):
    cluster, table = cdc_cluster
    cluster.cdc.subscribe("s", ["t"], Collector())
    put_rows(table, [b"a"])
    cluster.flush_table("t")
    cluster.disable_cdc()
    cluster.run_maintenance()
    assert [len(s.wal) for s in cluster.region_servers.values()] == [0, 0, 0]


def test_baseline_excludes_pre_subscription_history(cdc_cluster):
    cluster, table = cdc_cluster
    put_rows(table, [b"before-1", b"before-2"])
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"after-1"])
    cluster.cdc.pump()
    assert collector.rows == [b"after-1"]


def test_pump_is_exactly_once_across_repeated_pumps(cdc_cluster):
    cluster, table = cdc_cluster
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"a", b"b"])
    assert cluster.cdc.pump() > 0
    assert cluster.cdc.pump() == 0  # nothing new: cursors advanced
    put_rows(table, [b"c"])
    cluster.cdc.pump()
    cluster.cdc.pump()
    assert collector.rows == [b"a", b"b", b"c"]


def test_deletes_are_delivered_as_tombstone_cells(cdc_cluster):
    cluster, table = cdc_cluster
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"a"])
    table.delete(Delete(b"a"))
    cluster.cdc.pump()
    assert [c.is_delete() for _, cells in collector.batches
            for c in cells] == [False, True]


def test_duplicate_subscription_name_rejected(cdc_cluster):
    cluster, _ = cdc_cluster
    cluster.cdc.subscribe("s", ["t"], Collector())
    with pytest.raises(HBaseError):
        cluster.cdc.subscribe("s", ["t"], Collector())
    cluster.cdc.unsubscribe("s")
    cluster.cdc.subscribe("s", ["t"], Collector())  # name free again
    assert cluster.cdc.subscription_names() == ["s"]


def test_pending_and_lag_reflect_the_unshipped_tail(cdc_cluster):
    cluster, table = cdc_cluster
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    assert cluster.cdc.pending("s") == (0, 0)
    assert cluster.cdc.lag_s("s") == 0.0
    put_rows(table, [b"a", b"b"])
    entries, payload = cluster.cdc.pending("s")
    assert entries == 2 and payload > 0
    assert cluster.cdc.lag_s("s") > 0.0
    cluster.cdc.pump()
    assert cluster.cdc.pending("s") == (0, 0)
    assert cluster.cdc.lag_s("s") == 0.0
    with pytest.raises(HBaseError):
        cluster.cdc.pending("missing")


def test_pending_is_a_free_metadata_peek(cdc_cluster):
    cluster, table = cdc_cluster
    cluster.cdc.subscribe("s", ["t"], Collector())
    put_rows(table, [b"a"])
    before = cluster.metrics.snapshot()
    cluster.cdc.pending("s")
    cluster.cdc.lag_s("s")
    assert cluster.metrics.snapshot() == before


def test_shipping_bills_the_cluster_ledger(cdc_cluster):
    cluster, table = cdc_cluster
    cluster.cdc.subscribe("s", ["t"], Collector())
    put_rows(table, [b"a", b"b"])
    cluster.cdc.pump()
    snapshot = cluster.metrics.snapshot()
    assert snapshot["hbase.cdc.ship_batches"] == 1
    assert snapshot["hbase.cdc.entries_shipped"] == 2
    assert snapshot["hbase.cdc.bytes_shipped"] > 0
    assert cluster.cdc.ledger.seconds > 0.0


def test_delivery_survives_a_region_split(clock):
    cluster = HBaseCluster("cdcsplit", ["h1", "h2"], clock=clock,
                           flush_threshold=2_000, region_max_bytes=6_000)
    cluster.create_table("t", ["f"])
    cluster.enable_cdc()
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    rows = [b"row%04d" % i for i in range(400)]
    for row in rows:
        table.put(Put(row).add_column("f", "q", b"x" * 40))
    # the flush path queued a split; run_maintenance executes it and then
    # pumps CDC, so the parent's history and any daughter tail both ship
    report = cluster.run_maintenance()
    assert report["splits"] >= 1
    assert sorted(collector.rows) == rows
    for row in [b"zz-1", b"zz-2"]:  # post-split edits land in a daughter
        table.put(Put(row).add_column("f", "q", b"x"))
    cluster.run_maintenance()
    assert sorted(collector.rows) == sorted(rows + [b"zz-1", b"zz-2"])


def test_split_parent_cursors_retired_after_drain(clock):
    """Read-and-flushed history leaves the log: once the feed has shipped a
    split parent's tail, nothing of the parent is kept anywhere."""
    cluster = HBaseCluster("cdcretire", ["h1", "h2"], clock=clock,
                           flush_threshold=2_000, region_max_bytes=6_000)
    cluster.create_table("t", ["f"])
    cluster.enable_cdc()
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    [location] = cluster.region_locations("t")
    wal = cluster.region_servers[location.server_id].wal
    rows = [b"row%04d" % i for i in range(400)]
    for row in rows:
        table.put(Put(row).add_column("f", "q", b"x" * 40))
    assert len(wal.entries_since(location.region_name, 0)) >= 400
    report = cluster.run_maintenance()  # split, pump, truncate
    assert report["splits"] >= 1
    assert collector.rows == rows
    assert wal.entries_since(location.region_name, 0) == []
    assert sum(len(s.wal) for s in cluster.region_servers.values()) == 0


def test_crash_recovery_does_not_double_deliver(cdc_cluster):
    cluster, table = cdc_cluster
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"a", b"b"])
    [location] = cluster.region_locations("t")
    cluster.kill_region_server(location.server_id)
    cluster.cdc.pump()
    assert collector.rows == [b"a", b"b"]
    put_rows(table, [b"c"])     # lands on the replacement server's WAL
    cluster.cdc.pump()
    assert collector.rows == [b"a", b"b", b"c"]


def test_promotion_delivers_a_change_once(cdc_cluster):
    """A promoted replica recovers the dead log's tail like any new owner --
    flushed, not logged again -- so the feed sees each change in one log."""
    cluster, table = cdc_cluster
    cluster.enable_region_replication(replicas=1)
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"a"])
    cluster.run_maintenance()
    [location] = cluster.region_locations("t")
    cluster.kill_region_server(location.server_id)
    assert cluster.metrics.get("hbase.replica.promotions") == 1
    cluster.run_maintenance()
    put_rows(table, [b"b"])     # unflushed on the promoted primary
    cluster.kill_region_server(cluster.region_locations("t")[0].server_id)
    cluster.run_maintenance()
    assert collector.rows == [b"a", b"b"]


def test_log_is_bounded_by_one_round_of_writes(cdc_cluster):
    cluster, table = cdc_cluster
    cluster.cdc.subscribe("s", ["t"], Collector())
    for i in range(50):
        put_rows(table, [b"row-%d-%d" % (i, j) for j in range(5)])
        cluster.flush_table("t")
        in_flight = max(len(s.wal) for s in cluster.region_servers.values())
        assert in_flight <= 6   # five puts and the flush marker
        cluster.run_maintenance()
        assert all(len(s.wal) == 0 for s in cluster.region_servers.values())


def test_unpumped_subscriber_holds_its_tail_until_its_first_pump(clock):
    cluster = HBaseCluster("cdchold", ["h1", "h2"], clock=clock,
                           flush_threshold=2_000, region_max_bytes=6_000)
    cluster.create_table("t", ["f"])
    cluster.enable_cdc()
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    rows = [b"row%04d" % i for i in range(400)]
    for row in rows:
        table.put(Put(row).add_column("f", "q", b"x" * 40))
    [location] = cluster.region_locations("t")
    # flushes, a split and truncation, none of them with a pump in between
    assert cluster.active_master.split_region(location.region_name)
    cluster.flush_table("t")
    for server in cluster.region_servers.values():
        server.wal.truncate()
    assert cluster.cdc.pending("s")[0] >= 400
    cluster.cdc.pump()
    assert collector.rows == rows


def test_dead_servers_log_drains_once_it_is_read(cdc_cluster):
    cluster, table = cdc_cluster
    collector = Collector()
    cluster.cdc.subscribe("s", ["t"], collector)
    put_rows(table, [b"a", b"b"])
    [location] = cluster.region_locations("t")
    dead_wal = cluster.region_servers[location.server_id].wal
    cluster.kill_region_server(location.server_id)
    # recovered and flushed by the new owner, but the feed has not read it
    assert list(dead_wal.replay(location.region_name)) == []
    assert len(dead_wal) == 2
    cluster.run_maintenance()
    assert collector.rows == [b"a", b"b"]
    assert len(dead_wal) == 0


def test_multiple_subscriptions_track_independent_cursors(cdc_cluster):
    cluster, table = cdc_cluster
    first = Collector()
    cluster.cdc.subscribe("first", ["t"], first)
    put_rows(table, [b"a"])
    cluster.cdc.pump()
    second = Collector()
    cluster.cdc.subscribe("second", ["t"], second)
    put_rows(table, [b"b"])
    cluster.cdc.pump()
    assert first.rows == [b"a", b"b"]
    assert second.rows == [b"b"]    # joined after "a" shipped
