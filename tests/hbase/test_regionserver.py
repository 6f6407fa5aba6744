import pytest

from repro.common.errors import FilterEvalError, HBaseError, RegionOfflineError
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Get, Put, Scan
from repro.hbase.filters import (
    CompareOp, Filter, SingleColumnValueFilter,
)


@pytest.fixture
def loaded(hbase_cluster):
    hbase_cluster.create_table("t", ["f", "g"])
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    table = conn.get_table("t")
    for i in range(50):
        table.put(
            Put(b"r%02d" % i)
            .add_column("f", "q", b"v" * 10)
            .add_column("g", "q2", b"w" * 40)
        )
    hbase_cluster.flush_table("t")
    location = hbase_cluster.region_locations("t")[0]
    return hbase_cluster, table, location


def test_scan_meters_bytes_scanned(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    ledger = CostLedger()
    server.scan(location.region_name, ledger=ledger)
    assert ledger.metrics.get("hbase.bytes_scanned") > 0
    assert ledger.metrics.get("hbase.rows_returned") == 50
    assert ledger.seconds > 0


def test_column_family_pruning_reduces_scanned_bytes(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    full, pruned = CostLedger(), CostLedger()
    server.scan(location.region_name, ledger=full)
    server.scan(location.region_name, columns={("f", "q")}, ledger=pruned)
    assert pruned.metrics.get("hbase.bytes_scanned") < full.metrics.get("hbase.bytes_scanned")


def test_filter_reduces_rows_returned_not_bytes_scanned(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    filtered, unfiltered = CostLedger(), CostLedger()
    flt = SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"nope")
    server.scan(location.region_name, row_filter=flt, ledger=filtered)
    server.scan(location.region_name, ledger=unfiltered)
    assert filtered.metrics.get("hbase.rows_returned") == 0
    # the server still reads the same blocks -- pushdown saves transfer/decode
    assert filtered.metrics.get("hbase.bytes_scanned") == \
        unfiltered.metrics.get("hbase.bytes_scanned")


def test_a_failing_filter_is_charged_through_the_row_it_failed_on(loaded):
    """The rows up to and including the one a filter raises on are charged,
    each its own addition in row order, then the error surfaces as
    FilterEvalError naming that row."""
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]

    class FailsAtFive(Filter):
        def filter_row(self, row, cells):
            if row == b"r05":
                raise ValueError("bad row")
            return True

    plain, failed = CostLedger(), CostLedger()
    server.scan(location.region_name, ledger=plain)
    with pytest.raises(FilterEvalError, match="r05.*bad row"):
        server.scan(location.region_name, row_filter=FailsAtFive(),
                    ledger=failed)
    expected = plain.seconds
    for __ in range(6):
        expected += server.cost.cell_filter_cost_s
    assert repr(failed.seconds) == repr(expected)
    assert failed.metrics.get("hbase.filter_evals") == 6
    assert failed.metrics.get("hbase.rows_returned") == 0


def test_get_uses_bloom_probes(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    ledger = CostLedger()
    hit = server.get(location.region_name, b"r01", ledger=ledger)
    assert hit is not None
    assert ledger.metrics.get("hbase.bloom_probes") >= 1


def test_get_missing_row_returns_none(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    assert server.get(location.region_name, b"zz") is None


def test_crash_loses_memstore_recovered_from_wal(loaded):
    cluster, table, location = loaded
    # unflushed write
    table.put(Put(b"late").add_column("f", "q", b"fresh"))
    moved = cluster.kill_region_server(location.server_id)
    assert location.region_name in moved
    conn = ConnectionFactory.create_connection(cluster.configuration())
    recovered = conn.get_table("t").get(Get(b"late"))
    assert recovered.get_value("f", "q") == b"fresh"


def test_dead_server_rejects_operations(loaded):
    cluster, table, location = loaded
    server = cluster.region_servers[location.server_id]
    server.crash()
    with pytest.raises(HBaseError):
        server.scan(location.region_name)


def test_unassigned_region_rejected(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    server = next(iter(hbase_cluster.region_servers.values()))
    with pytest.raises(RegionOfflineError):
        server.scan("not-a-region")
