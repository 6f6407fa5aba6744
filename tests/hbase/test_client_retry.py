"""Client-side retry policy: backoff, deadlines, and stale-meta relocation."""

import pytest

from repro.common.errors import (
    OperationTimeoutError,
    RegionOfflineError,
    RetriesExhaustedError,
    TransientRpcError,
)
from repro.common.faults import (
    FAULT_RPC,
    FAULT_STALE_META,
    FaultInjector,
    raise_stale_meta,
)
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Delete, Get, Put, Scan
from repro.hbase.client import Configuration


def seeded_table(cluster, name="t", rows=10):
    cluster.create_table(name, ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table(name)
    for i in range(rows):
        table.put(Put(b"r%03d" % i).add_column("f", "q", b"v%d" % i))
    return table


def test_transient_rpc_fault_is_retried_and_billed(hbase_cluster):
    table = seeded_table(hbase_cluster)
    injector = FaultInjector(seed=1)
    injector.inject(FAULT_RPC, rate=1.0, times=2)
    hbase_cluster.install_fault_injector(injector)
    ledger = CostLedger()
    result = table.get(Get(b"r001"), ledger=ledger)
    assert result.get_value("f", "q") == b"v1"
    assert ledger.metrics.get("hbase.retries") == 2
    assert ledger.metrics.get("hbase.backoff_s") > 0
    assert ledger.metrics.get("faults.injected") == 2
    assert injector.injected(FAULT_RPC) == 2


def test_unrelenting_faults_exhaust_retries(hbase_cluster):
    table = seeded_table(hbase_cluster)
    conf = hbase_cluster.configuration()
    conf[Configuration.RETRIES_NUMBER] = "2"
    table = ConnectionFactory.create_connection(conf).get_table("t")
    injector = FaultInjector(seed=1)
    injector.inject(FAULT_RPC, rate=1.0)
    hbase_cluster.install_fault_injector(injector)
    with pytest.raises(RetriesExhaustedError):
        table.get(Get(b"r001"))
    assert injector.injected(FAULT_RPC) == 2


#: every data-plane ``Table`` method, as a call on row r001 of the seeded table
OPERATIONS = {
    "put": lambda t, ledger: t.put(
        Put(b"r001").add_column("f", "q", b"x"), ledger=ledger),
    "delete": lambda t, ledger: t.delete(Delete(b"r001"), ledger=ledger),
    "get": lambda t, ledger: t.get(Get(b"r001"), ledger=ledger),
    "bulk_get": lambda t, ledger: t.bulk_get([Get(b"r001")], ledger=ledger),
    "increment": lambda t, ledger: t.increment(
        b"r001", "f", "n", ledger=ledger),
    "check_and_put": lambda t, ledger: t.check_and_put(
        b"r001", "f", "q", b"v1", Put(b"r001").add_column("f", "q", b"x"),
        ledger=ledger),
    "scan": lambda t, ledger: t.scan(Scan(), ledger=ledger),
    "scan_region": lambda t, ledger: list(t.scan_region(
        t.connection.region_locations(t.name)[0], Scan(), ledger)),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_every_operation_reaches_the_rpc_fault_point(hbase_cluster, name):
    """One seam, so one fault point: a transient fault on any of the eight is
    retried and billed by the operation's retrying caller (``scan_region``
    is the primitive under ``scan`` and the scan RDD -- its callers retry),
    and an unrelenting one exhausts the policy."""
    table = seeded_table(hbase_cluster)
    injector = FaultInjector(seed=1)
    injector.inject(FAULT_RPC, rate=1.0, times=2)
    hbase_cluster.install_fault_injector(injector)
    ledger = CostLedger()
    if name == "scan_region":
        for __ in range(2):
            with pytest.raises(TransientRpcError):
                OPERATIONS[name](table, ledger)
    OPERATIONS[name](table, ledger)
    assert injector.injected(FAULT_RPC) == 2
    assert ledger.metrics.get("faults.injected") == 2
    if name != "scan_region":
        assert ledger.metrics.get("hbase.retries") == 2
        assert ledger.metrics.get("hbase.backoff_s") > 0

    injector.inject(FAULT_RPC, rate=1.0)
    with pytest.raises(TransientRpcError if name == "scan_region"
                       else RetriesExhaustedError):
        OPERATIONS[name](table, CostLedger())


def test_an_unauthenticated_call_never_reaches_a_server(clock):
    """...and one auth check: every operation is refused alike."""
    from repro.common.errors import SecurityError
    from repro.hbase.cluster import HBaseCluster
    from repro.hbase.security import KeyDistributionCenter

    cluster = HBaseCluster("secure-seam", ["h1", "h2"], clock=clock,
                           secure=True, kdc=KeyDistributionCenter(clock))
    cluster.create_table("t", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    for name, operation in sorted(OPERATIONS.items()):
        with pytest.raises(SecurityError):
            operation(table, CostLedger())


def test_operation_deadline_beats_retry_budget(hbase_cluster):
    """A tight hbase.client.operation.timeout aborts before retries run out."""
    seeded_table(hbase_cluster)
    conf = hbase_cluster.configuration()
    conf[Configuration.OPERATION_TIMEOUT] = "0.01"
    table = ConnectionFactory.create_connection(conf).get_table("t")
    injector = FaultInjector(seed=1)
    injector.inject(FAULT_RPC, rate=1.0)
    hbase_cluster.install_fault_injector(injector)
    with pytest.raises(OperationTimeoutError):
        table.get(Get(b"r001"))


def test_stale_meta_cache_relocates_and_recovers(hbase_cluster):
    """A cached layout that no longer covers a row raises RegionOfflineError,
    drops the cache, and the retry relocates against fresh meta."""
    table = seeded_table(hbase_cluster)
    conn = table.connection
    full = conn.region_locations("t")
    # poison the meta cache: pretend the table is a single shrunken region
    doctored = list(full)[:1]
    with conn._meta_lock:
        conn._location_cache["t"] = [
            type(doctored[0])(
                region_name=doctored[0].region_name,
                table_name=doctored[0].table_name,
                start_row=b"",
                end_row=b"r000",
                server_id=doctored[0].server_id,
                host=doctored[0].host,
            )
        ]
    ledger = CostLedger()
    result = table.get(Get(b"r005"), ledger=ledger)
    assert result.get_value("f", "q") == b"v5"
    assert ledger.metrics.get("hbase.retries") == 1
    # the poisoned entry is gone: the cache now covers the row again
    assert conn.region_locations("t")[-1].end_row == full[-1].end_row


def test_locate_uncovered_row_raises_region_offline(hbase_cluster):
    table = seeded_table(hbase_cluster)
    conn = table.connection
    with conn._meta_lock:
        conn._location_cache["t"] = []
    with pytest.raises(RegionOfflineError):
        table._locate(b"r001")
    # _locate itself invalidated the poisoned cache
    with conn._meta_lock:
        assert "t" not in conn._location_cache


def test_injected_stale_meta_recovers_via_retry(hbase_cluster):
    table = seeded_table(hbase_cluster)
    injector = FaultInjector(seed=3)
    injector.inject(FAULT_STALE_META, rate=1.0, times=1,
                    action=raise_stale_meta)
    hbase_cluster.install_fault_injector(injector)
    ledger = CostLedger()
    assert table.get(Get(b"r002"), ledger=ledger).get_value("f", "q") == b"v2"
    assert ledger.metrics.get("hbase.retries") == 1
    assert injector.injected(FAULT_STALE_META) == 1


def test_injector_with_no_rules_changes_nothing(hbase_cluster):
    """An installed injector without rules must not change results or costs."""
    table = seeded_table(hbase_cluster)
    baseline = CostLedger()
    plain = list(table.scan(Scan(), ledger=baseline))

    hbase_cluster.install_fault_injector(FaultInjector(seed=9))
    streamed_ledger = CostLedger()
    streamed = list(table.scan(Scan(), ledger=streamed_ledger))

    assert [r.row for r in plain] == [r.row for r in streamed]
    assert streamed_ledger.seconds == pytest.approx(baseline.seconds)
    assert streamed_ledger.metrics.get("hbase.rpcs") == \
        baseline.metrics.get("hbase.rpcs")
    assert streamed_ledger.metrics.get("faults.injected") == 0
