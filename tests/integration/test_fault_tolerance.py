"""Failure injection across the stack (section VI.B)."""

import json

import pytest

from repro.common.errors import FatalTaskError, HBaseError
from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase import ConnectionFactory, Get, Put, Scan
from repro.hbase.cluster import HBaseCluster
from repro.hbase.hbytes import Bytes
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType

CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "ft"},
    "rowkey": "k",
    "columns": {
        "k": {"cf": "rowkey", "col": "k", "type": "int"},
        "v": {"cf": "f", "col": "v", "type": "string"},
    },
})
SCHEMA = StructType([StructField("k", IntegerType), StructField("v", StringType)])


def load(cluster, session, n=60):
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    rows = [(i, f"v{i}") for i in range(n)]
    session.create_dataframe(rows, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    return options


def test_unflushed_edits_survive_server_crash(linked):
    """Memstore edits are lost on crash but recovered from the WAL."""
    cluster, session = linked
    cluster.create_table("wal", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("wal")
    table.put(Put(b"durable").add_column("f", "q", b"yes"))
    location = cluster.region_locations("wal")[0]
    # the edit is only in the memstore
    region = cluster.get_region(location.region_name)
    assert region.memstore_size() > 0
    cluster.kill_region_server(location.server_id)
    fresh = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("wal")
    assert fresh.get(Get(b"durable")).get_value("f", "q") == b"yes"


def test_unflushed_edits_survive_two_crashes(linked):
    """The server that recovered an edit flushes it before serving, so its
    own crash -- with servers to spare -- cannot lose it."""
    cluster, session = linked
    cluster.create_table("wal2", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("wal2")
    table.put(Put(b"durable").add_column("f", "q", b"yes"))
    for _ in range(2):
        [location] = cluster.region_locations("wal2")
        cluster.kill_region_server(location.server_id)
        fresh = ConnectionFactory.create_connection(
            cluster.configuration()).get_table("wal2")
        assert fresh.get(Get(b"durable")).get_value("f", "q") == b"yes"


def test_flushed_data_survives_without_wal(linked):
    cluster, session = linked
    cluster.create_table("flushed", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("flushed")
    table.put(Put(b"r").add_column("f", "q", b"x"))
    cluster.flush_table("flushed")
    location = cluster.region_locations("flushed")[0]
    dead_wal = cluster.region_servers[location.server_id].wal
    dead_wal.truncate()  # pretend the log was archived
    cluster.kill_region_server(location.server_id)
    fresh = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("flushed")
    assert fresh.get(Get(b"r")).get_value("f", "q") == b"x"


def test_cascading_server_failures(linked):
    """Crash servers one by one; data survives while any server lives."""
    cluster, session = linked
    options = load(cluster, session)
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    assert df.count() == 60
    # acknowledged but unflushed: every region takes edits after the load
    codec = RowCodec(HBaseTableCatalog.from_json(CATALOG))
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("ft")
    table.put([codec.encode_row({"k": k, "v": "late"}) for k in range(60)])
    assert all(cluster.get_region(loc.region_name).memstore_size()
               for loc in cluster.region_locations("ft"))
    servers = list(cluster.region_servers)
    for victim in servers[:-1]:
        cluster.kill_region_server(victim)
        df = session.read.format(DEFAULT_FORMAT).options(options).load()
        assert [tuple(r.values) for r in df.collect()] \
            == [(k, "late") for k in range(60)]
    survivors = [s for s in cluster.region_servers.values() if s.alive]
    assert len(survivors) == 1
    assert len(survivors[0].regions) == 3


def test_no_live_servers_fails_cleanly(linked):
    cluster, session = linked
    load(cluster, session)
    last_error = None
    for server_id in list(cluster.region_servers):
        try:
            cluster.kill_region_server(server_id)
        except HBaseError as exc:  # reassignment fails once none are left
            last_error = exc
    assert last_error is not None


def test_master_failover_then_ddl_and_queries(clock):
    cluster = HBaseCluster("mfail", ["h1", "h2"], clock=clock,
                           standby_masters=1)
    session = SparkSession(["h1", "h2"], clock=clock)
    options = {
        HBaseTableCatalog.tableCatalog: CATALOG,
        HBaseTableCatalog.newTable: "2",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe([(1, "a"), (2, "b")], SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()

    cluster.active_master.fail()
    new_master = cluster.failover_master()
    # the standby sees the table and can keep doing DDL
    assert "ft" in new_master.tables
    new_master.create_table("after_failover", ["f"])
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    assert df.count() == 2


def test_flaky_task_recovers_via_retry(linked):
    """Spark-style lineage recovery: a task that fails twice still succeeds."""
    cluster, session = linked
    options = load(cluster, session, n=30)
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    attempts = {"n": 0}

    def flaky(rows, ctx):
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise RuntimeError("injected failure")
        return rows

    from repro.sql.physical import ExecContext
    from repro.sql.planner import Planner
    from repro.sql.optimizer import optimize

    physical = Planner(session.conf).plan_query(optimize(df.plan))
    ctx = ExecContext(session.new_scheduler(), session.cost, session.conf)
    rdd = physical.execute(ctx).map_partitions(flaky)
    result = ctx.run_job(rdd)
    assert len(result.rows()) == 30
    assert result.metrics.get("engine.task_failures") == 2


def test_permanently_failing_query_raises(linked):
    cluster, session = linked
    options = load(cluster, session, n=10)
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    from repro.sql.physical import ExecContext
    from repro.sql.planner import Planner
    from repro.sql.optimizer import optimize

    physical = Planner(session.conf).plan_query(optimize(df.plan))
    ctx = ExecContext(session.new_scheduler(), session.cost, session.conf)

    def broken(rows, ctx_):
        raise RuntimeError("always broken")

    with pytest.raises(FatalTaskError):
        ctx.run_job(physical.execute(ctx).map_partitions(broken))


def test_stale_meta_cache_after_region_move(linked):
    """A connection's cached locations go stale after balancing; a fresh
    lookup (new connection) sees the moved regions."""
    cluster, session = linked
    cluster.create_table("movable", ["f"],
                         split_keys=[bytes([i]) for i in range(1, 6)])
    conn = ConnectionFactory.create_connection(cluster.configuration())
    before = {loc.region_name: loc.server_id
              for loc in conn.region_locations("movable")}
    master = cluster.active_master
    # force-move one region to a different server
    region_name, owner = next(iter(
        (r, s) for r, s in master.assignments.items() if r in before
    ))
    target = next(s for s in cluster.region_servers.values()
                  if s.server_id != owner)
    master.move_region(region_name, target.server_id)

    stale = {loc.region_name: loc.server_id
             for loc in conn.region_locations("movable")}
    assert stale == before  # cached
    conn.invalidate_location_cache("movable")
    refreshed = {loc.region_name: loc.server_id
                 for loc in conn.region_locations("movable")}
    assert refreshed[region_name] == target.server_id
