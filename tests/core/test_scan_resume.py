"""Resumable scans: crash mid-scan, stale meta, and filter fallback."""

import json

import pytest

from repro.common.errors import FatalTaskError, OperationTimeoutError
from repro.common.faults import (
    FAULT_FILTER,
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FAULT_STALE_META,
    FaultInjector,
    crash_region_server,
    raise_filter_error,
    raise_stale_meta,
)
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.functions import col

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "res"},
    "rowkey": "k",
    "columns": {
        "k": {"cf": "rowkey", "col": "k", "type": "int"},
        "v": {"cf": "f", "col": "v", "type": "string"},
    },
})


def load(linked, n=60):
    from repro.sql.types import IntegerType, StringType, StructField, StructType

    cluster, session = linked
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
        # small scanner-caching pages so a crash can land mid-scan
        HBaseSparkConf.CACHED_ROWS: "5",
    }
    rows = [(i, f"v{i}") for i in range(n)]
    session.create_dataframe(rows, schema).write \
        .format(DEFAULT_FORMAT).options(options).save()
    return cluster, session, options


def run(session, options, predicate=None):
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    if predicate is not None:
        df = df.filter(predicate)
    result = df.run()
    return sorted(tuple(r.values) for r in result.rows), result.metrics


def test_mid_scan_crash_resumes_exactly_once(linked):
    cluster, session, options = load(linked)
    expected, __ = run(session, options)

    injector = FaultInjector(seed=11)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    cluster.install_fault_injector(injector)
    got, metrics = run(session, options)

    assert got == expected  # no row lost, none duplicated
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert sum(1 for s in cluster.region_servers.values() if not s.alive) == 1
    assert metrics.get("hbase.retries") >= 1
    assert metrics.get("shc.scan_resumes") >= 1
    assert metrics.get("hbase.backoff_s") > 0
    assert metrics.get("faults.injected") == 1


def test_stale_meta_during_scan_relocates(linked):
    cluster, session, options = load(linked)
    expected, __ = run(session, options)

    injector = FaultInjector(seed=5)
    injector.inject(FAULT_STALE_META, rate=1.0, times=2,
                    action=raise_stale_meta)
    cluster.install_fault_injector(injector)
    got, metrics = run(session, options)

    assert got == expected
    assert metrics.get("hbase.retries") >= 2
    assert all(s.alive for s in cluster.region_servers.values())


def test_transient_rpc_faults_are_absorbed(linked):
    cluster, session, options = load(linked)
    expected, __ = run(session, options)

    injector = FaultInjector(seed=2)
    injector.inject(FAULT_RPC, rate=1.0, times=3)
    cluster.install_fault_injector(injector)
    got, metrics = run(session, options)

    assert got == expected
    assert metrics.get("hbase.retries") >= 3


def faulted_read(linked, deadline_s, times=2):
    """A read under ``hbase.client.operation.timeout`` whose first ``times``
    scan RPCs fail (two: 0.16 s of backoff when nothing bounds it)."""
    cluster, session, options = load(linked)
    options = dict(options, **{"hbase.client.operation.timeout": deadline_s})
    injector = FaultInjector(seed=2)
    injector.inject(FAULT_RPC, rate=1.0, times=times)
    cluster.install_fault_injector(injector)
    return session.read.format(DEFAULT_FORMAT).options(options).load()


def test_operation_deadline_bounds_a_resumable_scan(linked):
    """The deadline ``Table.scan`` obeys holds for the scan a query runs:
    no backoff is paid past it.  The scheduler retries a failed task, so two
    faults cost two task attempts and the third answers."""
    result = faulted_read(linked, "0.01").run()
    assert len(result.rows) == 60
    assert result.metrics.get("engine.task_failures") == 2
    assert result.metrics.get("hbase.retries") == 0
    assert result.metrics.get("hbase.backoff_s") == 0


def test_unrelenting_faults_time_the_query_out(linked):
    with pytest.raises(FatalTaskError) as failure:
        faulted_read(linked, "0.01", times=None).run()
    assert isinstance(failure.value.__cause__, OperationTimeoutError)


def test_a_roomy_deadline_lets_the_scan_retry(linked):
    result = faulted_read(linked, "5.0").run()
    assert len(result.rows) == 60
    assert result.metrics.get("hbase.retries") == 2
    assert 0 < result.metrics.get("hbase.backoff_s") < 5.0


def test_queue_wait_eats_a_scans_budget(linked):
    """Admission-queue wait counts against a scan's deadline as it does
    against a get's (tests/common/test_retry_deadline.py): the schedule that
    fits 5 s does not once 4.999 s of it were spent queued."""
    cluster, session = linked
    df = faulted_read(linked, "5.0")
    result = session.execute_plan(df.plan, queued_s=4.999)
    assert len(result.rows) == 60
    assert result.metrics.get("engine.task_failures") == 2
    assert result.metrics.get("hbase.retries") == 0


def test_filter_failure_falls_back_to_client_side(linked):
    cluster, session, options = load(linked)
    # a value-column predicate pushes down as a server-side filter (a rowkey
    # predicate would prune scan ranges instead and never reach the filter)
    predicate = col("v") == "v31"
    expected, baseline = run(session, options, predicate)
    assert expected == [(31, "v31")]
    assert baseline.get("shc.filter_fallbacks") == 0

    injector = FaultInjector(seed=4)
    injector.inject(FAULT_FILTER, rate=1.0, times=1,
                    action=raise_filter_error)
    cluster.install_fault_injector(injector)
    got, metrics = run(session, options, predicate)

    assert got == expected  # predicate re-applied Spark-side
    assert injector.injected(FAULT_FILTER) == 1
    assert metrics.get("shc.filter_fallbacks") >= 1


def test_filter_failure_on_a_get_falls_back_to_client_side(linked, monkeypatch):
    from repro.common.errors import FilterEvalError
    from repro.hbase.regionserver import RegionServer

    cluster, session, options = load(linked)
    # full-key equality is a Get, and the value predicate rides on it
    hit = (col("k") == 31) & (col("v") == "v31")
    miss = (col("k") == 31) & (col("v") == "v30")
    expected, baseline = run(session, options, hit)
    assert expected == [(31, "v31")]
    assert baseline.get("hbase.bloom_probes") > 0  # a Get, not a scan
    assert baseline.get("hbase.filter_evals") > 0

    # no fault point sits on the Get path: break the server-side evaluation
    def broken(self, row_filter, region_name, row, cells, ledger):
        raise FilterEvalError(f"broken filter on {region_name}")

    monkeypatch.setattr(RegionServer, "_filter_keeps", broken)
    got, metrics = run(session, options, hit)
    assert got == [(31, "v31")]  # fetched unfiltered, predicate kept the row
    assert metrics.get("shc.filter_fallbacks") == 1
    got, metrics = run(session, options, miss)
    assert got == []  # ... and applied client-side, it still rejects
    assert metrics.get("shc.filter_fallbacks") == 1


def test_same_seed_reproduces_the_same_chaos(clock):
    # fractional rates hash the region name, which embeds the cluster name
    # and the cluster's own region-id counter; fixture-counted names would
    # re-roll this schedule whenever an earlier test grows the suite, so
    # pin the cluster name for a fixed schedule
    from repro.hbase.cluster import HBaseCluster
    from repro.sql.session import SparkSession

    cluster = HBaseCluster("scan-resume-chaos", ["h1", "h2", "h3"],
                           clock=clock)
    session = SparkSession(["h1", "h2", "h3"], executors_requested=3,
                           clock=clock)
    cluster, session, options = load((cluster, session))

    def chaos_run():
        injector = FaultInjector(seed=23)
        injector.inject(FAULT_RPC, rate=0.4)
        cluster.install_fault_injector(injector)
        rows, metrics = run(session, options)
        cluster.install_fault_injector(None)
        return rows, injector.injected(), metrics.get("hbase.retries")

    rows_a, injected_a, retries_a = chaos_run()
    rows_b, injected_b, retries_b = chaos_run()
    assert rows_a == rows_b
    assert injected_a == injected_b > 0
    assert retries_a == retries_b
