"""The HDFS layer and HBase's short-data-locality lifecycle."""

import pytest

from repro.common.errors import HBaseError
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Put, Scan
from repro.hbase.hdfs import DistributedFileSystem


def test_write_local_first_replica():
    dfs = DistributedFileSystem(["h1", "h2", "h3", "h4"], replication=3)
    f = dfs.create_file(1000, "h3")
    assert f.replica_hosts[0] == "h3"
    assert len(set(f.replica_hosts)) == 3


def test_replication_capped_by_cluster_size():
    dfs = DistributedFileSystem(["h1", "h2"], replication=3)
    f = dfs.create_file(10, "h1")
    assert len(f.replica_hosts) == 2


def test_locate_and_delete():
    dfs = DistributedFileSystem(["h1", "h2"])
    f = dfs.create_file(10, "h1")
    assert dfs.locate(f.path) == f.replica_hosts
    dfs.delete(f.path)
    with pytest.raises(HBaseError):
        dfs.locate(f.path)


def test_unknown_writer_host_still_places():
    dfs = DistributedFileSystem(["h1", "h2"], replication=2)
    f = dfs.create_file(10, "driver-laptop")
    assert set(f.replica_hosts) <= {"h1", "h2"}


def test_local_fraction():
    dfs = DistributedFileSystem(["h1", "h2", "h3"], replication=1)
    a = dfs.create_file(100, "h1")
    b = dfs.create_file(300, "h2")
    assert dfs.local_fraction([a, b], "h1") == pytest.approx(0.25)
    assert dfs.local_fraction([], "h1") == 1.0


@pytest.fixture
def moved_region(clock):
    """Write + flush on one server, then move the region OFF its replicas."""
    from repro.hbase.cluster import HBaseCluster

    cluster = HBaseCluster("hdfsmove", [f"h{i}" for i in range(1, 6)],
                           clock=clock, hdfs_replication=3)
    cluster.create_table("mv", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("mv")
    for i in range(120):
        table.put(Put(b"r%03d" % i).add_column("f", "q", b"x" * 40))
    cluster.flush_table("mv")
    master = cluster.active_master
    region_name = cluster.region_locations("mv")[0].region_name
    replica_hosts = {
        h for store in cluster.get_region(region_name).stores.values()
        for f in store.files for h in f.hdfs_file.replica_hosts
    }
    target = next(s for s in cluster.region_servers.values()
                  if s.host not in replica_hosts)
    master.move_region(region_name, target.server_id)
    return cluster, target, region_name


def test_flushed_files_are_host_local(hbase_cluster):
    cluster = hbase_cluster
    cluster.create_table("loc", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("loc")
    table.put(Put(b"r").add_column("f", "q", b"v"))
    location = cluster.region_locations("loc")[0]
    cluster.flush_table("loc")
    region = cluster.get_region(location.region_name)
    for store in region.stores.values():
        for store_file in store.files:
            assert store_file.hdfs_file is not None
            assert store_file.hdfs_file.replica_hosts[0] == location.host


def test_moved_region_reads_remotely(moved_region):
    cluster, server, region_name = moved_region
    ledger = CostLedger()
    server.scan(region_name, ledger=ledger)
    assert ledger.metrics.get("hbase.remote_hdfs_bytes") > 0


def test_major_compaction_relocalises(moved_region):
    cluster, server, region_name = moved_region
    server.compact_region(region_name, major=True)
    ledger = CostLedger()
    server.scan(region_name, ledger=ledger)
    assert ledger.metrics.get("hbase.remote_hdfs_bytes", 0) == 0


def test_remote_reads_cost_more(moved_region):
    cluster, server, region_name = moved_region
    before = CostLedger()
    server.scan(region_name, ledger=before)
    server.compact_region(region_name, major=True)
    after = CostLedger()
    server.scan(region_name, ledger=after)
    assert after.seconds < before.seconds


def test_replication_means_nearby_hosts_stay_local(hbase_cluster):
    """With 3-way replication, a move to a replica host stays local."""
    cluster = hbase_cluster
    cluster.create_table("rep", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("rep")
    for i in range(60):
        table.put(Put(b"r%02d" % i).add_column("f", "q", b"y" * 30))
    cluster.flush_table("rep")
    location = cluster.region_locations("rep")[0]
    region = cluster.get_region(location.region_name)
    store_file = next(iter(region.stores["f"].files))
    replica_hosts = set(store_file.hdfs_file.replica_hosts)
    # find a server on another replica host
    candidates = [
        s for s in cluster.region_servers.values()
        if s.host in replica_hosts and s.server_id != location.server_id
    ]
    assert candidates, "3-way replication should cover multiple hosts"
    cluster.active_master.move_region(location.region_name,
                                      candidates[0].server_id)
    ledger = CostLedger()
    candidates[0].scan(location.region_name, ledger=ledger)
    assert ledger.metrics.get("hbase.remote_hdfs_bytes", 0) == 0
