import pytest

from repro.common.errors import HBaseError, NoSuchTableError
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Delete, Get, Put, Scan
from repro.hbase.client import Configuration
from repro.hbase.filters import CompareOp, SingleColumnValueFilter
from repro.hbase.hbytes import Bytes


@pytest.fixture
def table(hbase_cluster):
    hbase_cluster.create_table("t", ["f", "g"], split_keys=[b"m"])
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    return conn.get_table("t")


def test_put_then_get(table):
    table.put(Put(b"row1").add_column("f", "q", b"hello"))
    result = table.get(Get(b"row1"))
    assert result.get_value("f", "q") == b"hello"


def test_get_missing_row_is_empty(table):
    assert table.get(Get(b"nope")).is_empty()


def test_scan_spans_regions(table):
    for row in (b"a", b"n", b"z"):
        table.put(Put(row).add_column("f", "q", row))
    results = table.scan(Scan())
    assert [r.row for r in results] == [b"a", b"n", b"z"]


def test_scan_range_prunes_regions_and_rpcs(table):
    for row in (b"a", b"n", b"z"):
        table.put(Put(row).add_column("f", "q", row))
    ledger = CostLedger()
    results = table.scan(Scan(b"n", b"o"), ledger)
    assert [r.row for r in results] == [b"n"]


def test_scan_with_filter(table):
    for i in range(10):
        table.put(Put(b"r%d" % i).add_column("f", "q", Bytes.from_int(i)))
    f = SingleColumnValueFilter("f", "q", CompareOp.GREATER_OR_EQUAL,
                                Bytes.from_int(7))
    assert len(table.scan(Scan().set_filter(f))) == 3


def test_delete_row(table):
    table.put(Put(b"r").add_column("f", "q", b"v").add_column("g", "q2", b"w"))
    table.delete(Delete(b"r"))
    assert table.get(Get(b"r")).is_empty()


def test_delete_single_column(table, clock):
    table.put(Put(b"r").add_column("f", "q", b"v").add_column("g", "q2", b"w"))
    clock.advance(0.01)  # delete marker must be newer than the puts
    table.delete(Delete(b"r").add_column("f", "q"))
    result = table.get(Get(b"r"))
    assert result.get_value("f", "q") is None
    assert result.get_value("g", "q2") == b"w"


def test_bulk_get_preserves_request_order(table):
    for row in (b"a", b"b", b"z"):
        table.put(Put(row).add_column("f", "q", row))
    results = table.bulk_get([Get(b"z"), Get(b"missing"), Get(b"a")])
    assert [r.row for r in results] == [b"z", b"missing", b"a"]
    assert results[1].is_empty()


def test_bulk_get_answers_two_gets_of_one_row_each_with_its_own_cells(table):
    table.put(Put(b"r").add_column("f", "a", b"1", timestamp=100)
              .add_column("g", "b", b"2", timestamp=100))
    table.put(Put(b"r").add_column("f", "a", b"3", timestamp=200))
    table.put(Put(b"c").add_column("f", "a", b"4"))   # the other region
    gets = [Get(b"r").add_column("f", "a"), Get(b"c"),
            Get(b"r").add_column("g", "b"),
            Get(b"r").add_column("f", "a").set_max_versions(2),
            Get(b"r").add_column("f", "a").set_time_range(0, 150)]
    ledger, alone = CostLedger(), CostLedger()
    results = table.bulk_get(gets, ledger)
    assert [[(c.family, c.qualifier, c.value) for c in r.cells]
            for r in results] == [
        [("f", "a", b"3")], [("f", "a", b"4")], [("g", "b", b"2")],
        [("f", "a", b"3"), ("f", "a", b"1")], [("f", "a", b"1")]]
    # one multi-get RPC per server, billed for every answer it carried
    for get in gets:
        table.get(get, alone)
    servers = {table.connection.locate("t", get.row).server_id for get in gets}
    assert ledger.metrics.get("hbase.rpcs") == len(servers)
    for counter in ("hbase.local_ipc_bytes", "hbase.network_bytes",
                    "hbase.bytes_returned"):
        assert ledger.metrics.get(counter) == alone.metrics.get(counter)


def test_bulk_get_batches_rpcs_per_server(table):
    for i in range(20):
        table.put(Put(b"a%02d" % i).add_column("f", "q", b"v"))
    ledger = CostLedger()
    table.bulk_get([Get(b"a%02d" % i) for i in range(20)], ledger)
    # all 20 rows live in the first region -> one multi-get RPC
    assert ledger.metrics.get("hbase.rpcs") == 1


def test_bulk_get_retry_resends_only_the_failed_servers_gets(table):
    """HBase's multi-get resubmits only the failed actions: with a transient
    fault on the ``n`` region's server, the server that answered ``a`` and
    ``b`` is neither asked nor billed again."""
    from repro.common.faults import FAULT_RPC, FaultInjector

    rows = [b"a", b"b", b"n", b"z"]
    for row in rows:
        table.put(Put(row).add_column("f", "q", row))
    clean = CostLedger()
    want = [r.cells for r in table.bulk_get([Get(row) for row in rows], clean)]
    assert (clean.metrics.get("hbase.rows_returned"),
            clean.metrics.get("hbase.bytes_returned")) == (4, 64)
    [first, second] = table.connection.region_locations("t")
    assert first.server_id != second.server_id

    injector = FaultInjector(seed=1)
    injector.inject(FAULT_RPC, rate=1.0, times=1, key=second.region_name)
    table.cluster.install_fault_injector(injector)
    ledger = CostLedger()
    got = [r.cells for r in table.bulk_get([Get(row) for row in rows], ledger)]
    assert got == want
    for counter in ("hbase.rows_returned", "hbase.bytes_returned"):
        assert ledger.metrics.get(counter) == clean.metrics.get(counter)
    assert ledger.metrics.get("hbase.retries") == 1
    assert injector.injected(FAULT_RPC) == 1


def test_timestamp_versions(table, clock):
    table.put(Put(b"r").add_column("f", "q", b"v1", timestamp=100))
    table.put(Put(b"r").add_column("f", "q", b"v2", timestamp=200))
    old = table.get(Get(b"r").set_time_range(0, 150))
    assert old.get_value("f", "q") == b"v1"
    both = table.get(Get(b"r").set_max_versions(2))
    assert len(both.cells) == 2


def test_major_compaction_enforces_the_tables_version_limit(hbase_cluster):
    hbase_cluster.create_table("v", ["f"], max_versions=2)
    table = ConnectionFactory.create_connection(
        hbase_cluster.configuration()).get_table("v")
    for ts in (100, 200, 300, 400):
        table.put(Put(b"r").add_column("f", "q", b"v%d" % ts, timestamp=ts))
        hbase_cluster.flush_table("v")
    every = Get(b"r").set_max_versions(10)
    assert len(table.get(every).cells) == 4
    before = hbase_cluster.table_size_bytes("v")
    hbase_cluster.compact_table("v", major=False)   # minor: nothing is dropped
    assert len(table.get(every).cells) == 4
    hbase_cluster.compact_table("v", major=True)
    assert [c.value for c in table.get(every).cells] == [b"v400", b"v300"]
    assert hbase_cluster.table_size_bytes("v") < before


def test_unknown_table_fails_fast(hbase_cluster):
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    with pytest.raises(NoSuchTableError):
        conn.get_table("missing")


def test_unknown_quorum_fails():
    with pytest.raises(HBaseError):
        ConnectionFactory.create_connection(
            Configuration({Configuration.QUORUM: "zk-ghost:2181"})
        )


def test_network_charged_only_cross_host(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    location = hbase_cluster.region_locations("t")[0]
    co_located = ConnectionFactory.create_connection(
        hbase_cluster.configuration(client_host=location.host))
    remote = ConnectionFactory.create_connection(
        hbase_cluster.configuration(client_host="elsewhere"))
    t1, t2 = co_located.get_table("t"), remote.get_table("t")
    t1.put(Put(b"r").add_column("f", "q", b"x" * 100))
    local_ledger, remote_ledger = CostLedger(), CostLedger()
    t1.scan(Scan(), local_ledger)
    t2.scan(Scan(), remote_ledger)
    assert local_ledger.metrics.get("hbase.network_bytes") == 0
    assert remote_ledger.metrics.get("hbase.network_bytes") > 0


def test_scan_caching_controls_rpc_count(table):
    for i in range(30):
        table.put(Put(b"a%02d" % i).add_column("f", "q", b"v"))
    few = CostLedger()
    table.scan(Scan().set_caching(10), few)
    many = CostLedger()
    table.scan(Scan().set_caching(1000), many)
    assert few.metrics.get("hbase.rpcs") > many.metrics.get("hbase.rpcs")


def test_closed_connection_rejected(hbase_cluster):
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    conn.close()
    with pytest.raises(HBaseError):
        conn.get_table("t")


def test_client_retries_after_region_move(hbase_cluster):
    """NotServingRegion-style retry: stale meta refreshes transparently."""
    hbase_cluster.create_table("moving", ["f"])
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    table = conn.get_table("moving")
    table.put(Put(b"r1").add_column("f", "q", b"v"))
    # move the region while the client holds a cached location
    master = hbase_cluster.active_master
    region_name = hbase_cluster.region_locations("moving")[0].region_name
    owner = master.assignments[region_name]
    target = next(s for s in hbase_cluster.region_servers.values()
                  if s.server_id != owner)
    master.move_region(region_name, target.server_id)
    # the same Table object keeps working without manual invalidation
    assert table.get(Get(b"r1")).get_value("f", "q") == b"v"
    table.put(Put(b"r2").add_column("f", "q", b"w"))
    assert len(table.scan(Scan())) == 2


def test_increment_counter(table, clock):
    assert table.increment(b"cnt", "f", "hits") == 1
    clock.advance(0.01)
    assert table.increment(b"cnt", "f", "hits", amount=5) == 6
    clock.advance(0.01)
    assert table.increment(b"cnt", "f", "hits", amount=-2) == 4


def test_increment_independent_columns(table, clock):
    table.increment(b"cnt", "f", "a")
    clock.advance(0.01)
    table.increment(b"cnt", "f", "b", amount=7)
    clock.advance(0.01)
    assert table.increment(b"cnt", "f", "a") == 2


def test_check_and_put_absent_expectation(table, clock):
    put = Put(b"cas").add_column("f", "q", b"v1")
    assert table.check_and_put(b"cas", "f", "q", None, put) is True
    clock.advance(0.01)
    # a second insert with the same expectation must fail
    assert table.check_and_put(b"cas", "f", "q", None,
                               Put(b"cas").add_column("f", "q", b"v2")) is False
    assert table.get(Get(b"cas")).get_value("f", "q") == b"v1"


def test_check_and_put_value_expectation(table, clock):
    table.put(Put(b"cas").add_column("f", "q", b"old"))
    clock.advance(0.01)
    ok = table.check_and_put(b"cas", "f", "q", b"old",
                             Put(b"cas").add_column("f", "q", b"new"))
    assert ok
    clock.advance(0.01)
    stale = table.check_and_put(b"cas", "f", "q", b"old",
                                Put(b"cas").add_column("f", "q", b"other"))
    assert not stale
    assert table.get(Get(b"cas")).get_value("f", "q") == b"new"


def test_increment_survives_crash_via_wal(hbase_cluster, table, clock):
    table.increment(b"cnt", "f", "hits", amount=41)
    clock.advance(0.01)
    location = hbase_cluster.active_master.locate("t", b"cnt")
    hbase_cluster.kill_region_server(location.server_id)
    fresh = ConnectionFactory.create_connection(
        hbase_cluster.configuration()).get_table("t")
    assert fresh.increment(b"cnt", "f", "hits") == 42


def test_delete_specific_version_reveals_older(table, clock):
    table.put(Put(b"vr").add_column("f", "q", b"v1", timestamp=100))
    table.put(Put(b"vr").add_column("f", "q", b"v2", timestamp=200))
    clock.advance(1.0)
    # delete exactly the newest version: the older one becomes visible
    table.delete(Delete(b"vr").add_column("f", "q", timestamp=200))
    assert table.get(Get(b"vr")).get_value("f", "q") == b"v1"


def test_delete_version_leaves_other_versions(table, clock):
    table.put(Put(b"vr").add_column("f", "q", b"v1", timestamp=100))
    table.put(Put(b"vr").add_column("f", "q", b"v2", timestamp=200))
    clock.advance(1.0)
    table.delete(Delete(b"vr").add_column("f", "q", timestamp=100))
    result = table.get(Get(b"vr").set_max_versions(3))
    assert [c.value for c in result.cells] == [b"v2"]
