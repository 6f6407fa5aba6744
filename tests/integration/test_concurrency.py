"""Many queries through one session (Table I "Thread pool") and through
the serving front door.

Four or more jobs are submitted back to back on a shared SparkSession: they
share the connection cache, the simulated clock and the compute cluster,
while each job owns a private shuffle block store.  Every query runs inline
on the submitting thread, so the assertions pin down isolation and replay,
not thread safety: result rows stay what a serial run returns (no shuffle
block leaks from job to job), every pooled HBase connection is handed back
(refcounts return to zero), and a served chaos run replays its whole
ticket log bit for bit.
"""

import json

import pytest

from repro.common.faults import (
    FAULT_ADMISSION,
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FaultInjector,
    crash_region_server,
)
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cluster import HBaseCluster
from repro.serving import COMPLETED, QueryServer, ServingConfig
from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

EVENTS_CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "events", "tableCoder": "PrimitiveType"},
    "rowkey": "eid",
    "columns": {
        "eid": {"cf": "rowkey", "col": "eid", "type": "int"},
        "page": {"cf": "cf1", "col": "page", "type": "string"},
        "stay": {"cf": "cf2", "col": "stay", "type": "double"},
    },
})
EVENTS_SCHEMA = StructType([
    StructField("eid", IntegerType),
    StructField("page", StringType),
    StructField("stay", DoubleType),
])

QUERIES = [
    # an aggregation (shuffle) -- colliding block stores would double-count
    "select page, count(*) from events group by page",
    # a scan-heavy filter with locality-preferring tasks
    "select eid, stay from events where eid < 120",
    # a second shuffle with a different key function
    "select page, sum(stay) from events group by page",
    # a full count
    "select count(*) from events",
]


def _load_events(cluster, session, rows=240, regions=6):
    data = [(i, f"page{i % 5}", float(i % 7)) for i in range(rows)]
    options = {
        HBaseTableCatalog.tableCatalog: EVENTS_CATALOG,
        HBaseTableCatalog.newTable: str(regions),
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe(data, EVENTS_SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    session.read.format(DEFAULT_FORMAT).options(options).load() \
        .create_or_replace_temp_view("events")


def _row_sets(results):
    return [sorted(tuple(r.values) for r in qr.rows) for qr in results]


def test_concurrent_jobs_match_serial_and_release_connections(linked):
    cluster, session = linked
    _load_events(cluster, session)

    # the serial ground truth, one query at a time
    expected = _row_sets([session.sql(q).run() for q in QUERIES])

    # now 2 copies of each query -- 8 jobs -- through submit_sql
    futures = [session.submit_sql(q) for q in QUERIES + QUERIES]
    results = [f.result(timeout=60) for f in futures]
    session.shutdown()

    got = _row_sets(results)
    assert got[:4] == expected
    assert got[4:] == expected
    # every pooled connection was released by its task
    assert cluster.connection_cache.active_refcount() == 0


def test_concurrent_shuffles_are_isolated(linked):
    """The same group-by submitted many times at once: leaked shuffle blocks
    between jobs would inflate the counts."""
    cluster, session = linked
    _load_events(cluster, session)
    query = QUERIES[0]
    expected = sorted(tuple(r.values) for r in session.sql(query).run().rows)

    futures = [session.submit_sql(query) for __ in range(6)]
    for future in futures:
        got = sorted(tuple(r.values) for r in future.result(timeout=60).rows)
        assert got == expected
    session.shutdown()
    assert cluster.connection_cache.active_refcount() == 0


#: the pinned chaos schedules CI replays (same seeds as test_chaos.py)
SERVING_CHAOS_SEEDS = (101, 202, 303)

HOSTS = ["node1", "node2", "node3"]


def _serving_chaos_run(seed):
    """Concurrent tenants through the front door while a region server
    crashes mid-scan and admission/RPC faults fire on a pinned schedule.

    The cluster name is part of hashed placement/jitter keys, so replays
    reuse the same name to stay byte-identical.
    """
    clock = SimClock()
    cluster = HBaseCluster(f"chaos-serving-{seed}", HOSTS, clock=clock)
    session = SparkSession(HOSTS, executors_requested=3, clock=clock)
    _load_events(cluster, session)

    injector = FaultInjector(seed=seed)
    # small scanner pages so the crash lands *between* result pages
    session.read.format(DEFAULT_FORMAT).options({
        HBaseTableCatalog.tableCatalog: EVENTS_CATALOG,
        "hbase.zookeeper.quorum": cluster.quorum,
        HBaseSparkConf.CACHED_ROWS: "40",
    }).load().create_or_replace_temp_view("events")
    # the crash fires once, on a pinned (region, invocation) pair; admission
    # faults fire on pinned (tenant, arrival-index) pairs; random-rate RPC
    # faults fire on seeded (region, invocation) pairs
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    injector.inject(FAULT_ADMISSION, rate=0.35, times=2)
    injector.inject(FAULT_RPC, rate=0.3, times=5)
    cluster.install_fault_injector(injector)
    session.install_fault_injector(injector)

    config = ServingConfig(max_queue_depth=4, slots_per_query=2)
    server = QueryServer(session, config=config, faults=injector,
                         hbase_cluster=cluster)
    server.register_tenant("alpha", weight=2.0, reserved_slots=2)
    server.register_tenant("beta", weight=1.0, rate=0.5, burst=3.0)
    tickets = []
    for i, query in enumerate(QUERIES + QUERIES):
        tenant = "alpha" if i % 2 == 0 else "beta"
        tickets.append(server.submit(query, tenant=tenant, at=i * 0.25))
    server.drain()
    session.shutdown()

    admitted_rows = {
        t.seq: sorted(tuple(r.values) for r in t.result().rows)
        for t in tickets if t.status == COMPLETED
    }
    ticket_log = [
        (t.seq, t.status, t.reason, t.start_s, t.finish_s, t.degraded,
         t.probe, t.leased_slots)
        + ((t.query_result.seconds, t.query_result.metrics.snapshot())
           if t.status == COMPLETED else (None, None))
        for t in tickets
    ]
    return {
        "rows": admitted_rows,
        "shed": server.shed_set(tickets),
        "tickets": ticket_log,
        "server_metrics": server.metrics.snapshot(),
        "crashes": injector.injected(FAULT_SCAN_STREAM),
        "admission_faults": injector.injected(FAULT_ADMISSION),
        "rpc_faults": injector.injected(FAULT_RPC),
    }


@pytest.mark.parametrize("seed", SERVING_CHAOS_SEEDS)
def test_served_tenants_survive_chaos_deterministically(seed):
    """Admitted queries return byte-identical rows despite the mid-scan
    region-server crash, and the whole run -- every ticket's decisions,
    simulated times and ledger, every server metric -- replays identically
    for a seed."""
    first = _serving_chaos_run(seed)
    second = _serving_chaos_run(seed)
    assert first == second
    assert first["server_metrics"]["serving.queue_wait_s"] > 0.0

    # the chaos actually happened: the crash fired and faults were injected
    assert first["crashes"] == 1
    assert first["admission_faults"] >= 1
    assert first["rpc_faults"] >= 1
    assert first["shed"], "expected at least one deterministic shed"

    # admitted queries answer exactly like a fault-free serial run
    clean_clock = SimClock()
    clean_cluster = HBaseCluster("chaos-serving-clean", HOSTS, clock=clean_clock)
    clean_session = SparkSession(HOSTS, executors_requested=3,
                                 clock=clean_clock)
    _load_events(clean_cluster, clean_session)
    expected = {i % len(QUERIES): sorted(
        tuple(r.values) for r in clean_session.sql(q).run().rows)
        for i, q in enumerate(QUERIES)}
    clean_session.shutdown()
    for seq, rows in first["rows"].items():
        assert rows == expected[seq % len(QUERIES)], f"query #{seq} diverged"


def test_concurrent_jobs_report_both_clocks(linked):
    cluster, session = linked
    _load_events(cluster, session, rows=60, regions=3)
    futures = [session.submit_sql(QUERIES[1]) for __ in range(4)]
    results = [f.result(timeout=60) for f in futures]
    session.shutdown()
    for qr in results:
        assert qr.seconds > 0          # simulated cost still accounted
        assert qr.wall_clock_s > 0     # and the measured view alongside it


def test_two_threads_share_one_connection_and_one_plan_cache_entry(linked):
    """Same statement shape, different values, 200 statements each, on one
    DB-API connection: both threads bind one cached plan, and each must get
    the rows of its own values (a lost update on the shared entry, or a
    value written into it, would hand one thread the other's)."""
    import sys
    import threading

    from repro.sql import dbapi

    cluster, session = linked
    _load_events(cluster, session)
    connection = dbapi.connect(session)
    statement = "select eid, page from events where eid = ? and stay >= ?"
    failures = []

    def client(offset):
        cursor = connection.cursor()
        for i in range(200):
            eid = (offset + 2 * i) % 240
            cursor.execute(statement, (eid, 0.0))
            if cursor.fetchall() != [(eid, f"page{eid % 5}")]:
                failures.append((offset, eid))

    threads = [threading.Thread(target=client, args=(offset,))
               for offset in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    counters = session.metrics.snapshot()
    assert counters["sql.plancache.hits"] + counters["sql.plancache.misses"] == 400
    assert counters["sql.plancache.misses"] <= 2  # both may miss the first time
    session.shutdown()
    assert cluster.connection_cache.active_refcount() == 0
