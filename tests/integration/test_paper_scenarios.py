"""Scenario tests lifted directly from the paper's running examples."""

import json

import pytest

from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType
from repro.workloads import load_tpcds, queries
from repro.workloads.tpcds_schema import TABLES

USERS_CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "users", "tableCoder": "Phoenix"},
    "rowkey": "a",
    "columns": {
        "a": {"cf": "rowkey", "col": "a", "type": "int"},
        "b": {"cf": "cf1", "col": "b", "type": "int"},
        "c": {"cf": "cf2", "col": "c", "type": "string"},
    },
})
USERS_SCHEMA = StructType([
    StructField("a", IntegerType),
    StructField("b", IntegerType),
    StructField("c", StringType),
])


@pytest.fixture
def users(linked):
    cluster, session = linked
    options = {
        HBaseTableCatalog.tableCatalog: USERS_CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    rows = [(i, i * i % 50, "u%d" % i) for i in range(100)]
    session.create_dataframe(rows, USERS_SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    return cluster, session, options, rows


def test_code7_mixed_scan_and_get_predicates(users):
    """Code 7: ``where Users.a > x and Users.a < y and Users.b = x``."""
    cluster, session, options, rows = users
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    got = df.filter("a > 10 and a < 60 and b = 25").run()
    expected = sorted(r for r in rows if 10 < r[0] < 60 and r[1] == 25)
    assert sorted(map(tuple, got.rows)) == expected
    # fusion: at most one task per region server did the scanning
    assert got.metrics.get("engine.tasks") <= \
        len(cluster.region_servers) + got.metrics.get("engine.shuffles", 0) * 16 + 1


def test_in_list_on_rowkey_becomes_gets(users):
    cluster, session, options, rows = users
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    got = df.filter("a in (5, 40, 90, 400)").run()
    assert sorted(r[0] for r in got.rows) == [5, 40, 90]
    # point lookups probe bloom filters instead of scanning ranges
    assert got.metrics.get("hbase.bloom_probes", 0) > 0
    full = df.run()
    assert got.metrics.get("hbase.bytes_scanned") < \
        full.metrics.get("hbase.bytes_scanned")


def test_broadcast_threshold_zero_forces_shuffle_join(users):
    cluster, session, options, rows = users
    from repro.sql.session import SparkSession

    no_broadcast = SparkSession(
        cluster.hosts, clock=cluster.clock,
        conf={"sql.autoBroadcastJoinThreshold": 0},
    )
    for s in (session, no_broadcast):
        s.read.format(DEFAULT_FORMAT).options(options).load() \
            .create_or_replace_temp_view("users")
    sql = """
        select u1.a, u2.c from users u1 join users u2 on u1.b = u2.a
        where u1.a < 20
    """
    with_broadcast = session.sql(sql).run()
    without = no_broadcast.sql(sql).run()
    assert sorted(map(tuple, with_broadcast.rows)) == \
        sorted(map(tuple, without.rows))
    assert without.shuffle_bytes > with_broadcast.shuffle_bytes
    assert "BroadcastHashJoin" in session.sql(sql).explain()
    assert "ShuffledHashJoin" in no_broadcast.sql(sql).explain()


def test_code5_exact_timestamp_query(linked):
    """Code 5's df_time: TIMESTAMP pins the read to one cell version."""
    cluster, session = linked
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "versioned"},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "string"},
        },
    })
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    options = {
        HBaseTableCatalog.tableCatalog: catalog,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    # cells are stamped with the clock at Put time (the clock advances only
    # after the write job completes), so capture the stamp before writing
    ts_first = cluster.clock.now_millis()
    session.create_dataframe([(1, "first")], schema).write \
        .format(DEFAULT_FORMAT).options(options).save()
    cluster.clock.advance(5.0)
    session.create_dataframe([(1, "second")], schema).write \
        .format(DEFAULT_FORMAT).options(options).save()

    pinned = dict(options)
    pinned[HBaseSparkConf.TIMESTAMP] = str(ts_first)
    df_time = session.read.format(DEFAULT_FORMAT).options(pinned).load()
    assert df_time.collect()[0].v == "first"
    latest = session.read.format(DEFAULT_FORMAT).options(options).load()
    assert latest.collect()[0].v == "second"


def test_max_versions_window(linked):
    """MAX_VERSIONS + MIN/MAX_TIMESTAMP select the newest version in range."""
    cluster, session = linked
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "multi", "tableCoder":
                  "PrimitiveType"},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "string"},
        },
    })
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    options = {
        HBaseTableCatalog.tableCatalog: catalog,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    stamps = []
    for i, value in enumerate(("v1", "v2", "v3")):
        stamps.append(cluster.clock.now_millis())
        session.create_dataframe([(1, value)], schema).write \
            .format(DEFAULT_FORMAT).options(options).save()
        cluster.clock.advance(5.0)
    windowed = dict(options)
    windowed[HBaseSparkConf.MIN_TIMESTAMP] = "0"
    windowed[HBaseSparkConf.MAX_TIMESTAMP] = str(stamps[1] + 1)
    windowed[HBaseSparkConf.MAX_VERSIONS] = "3"
    df = session.read.format(DEFAULT_FORMAT).options(windowed).load()
    assert df.collect()[0].v == "v2"


# -- the paper's queries never lose to an optimiser ---------------------------

PAPER_QUERIES = {"q39a": queries.q39a, "q39b": queries.q39b, "q38": queries.q38}


def _paper_session(setup):
    """A warm 2 GB session over its own cluster (ANALYZE persists with the
    tables, so set-ups must not share one): ``plain`` plans syntactically,
    ``analyzed`` ran ANALYZE on every table, ``aqe`` sets the option."""
    env = load_tpcds(2, TABLES)
    session = env.new_session(
        conf={"sql.aqe.enabled": True} if setup == "aqe" else None)
    if setup == "analyzed":
        for table in TABLES:
            session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    for build_sql in PAPER_QUERIES.values():
        session.sql(build_sql()).run()  # connections, block cache
    return session


@pytest.fixture(scope="module")
def paper_runs():
    runs = {}
    for setup in ("plain", "analyzed", "aqe"):
        session = _paper_session(setup)
        runs[setup] = {label: session.sql(build_sql()).run()
                       for label, build_sql in PAPER_QUERIES.items()}
        if setup == "analyzed":
            for build_sql in PAPER_QUERIES.values():
                planned = session.plan_query(session.sql(build_sql()).plan)
                assert "NestedLoopJoin" not in planned.physical.pretty()
        session.shutdown()
    return runs


@pytest.mark.parametrize("label", list(PAPER_QUERIES))
def test_paper_query_costs_the_same_however_it_is_planned(paper_runs, label):
    """Statistics and the adaptive join may only help.  Without statistics
    the adaptive join costs what the static plan costs.  An equal build side
    is built once either way (Spark's ``ReuseExchange``), so q38 scans
    ``date_dim`` and ``customer`` once in both plans; ANALYZEd q38 pushes no
    keys and costs what the plain plan costs.  ANALYZEd q39a/q39b are
    strictly cheaper: the date join hands its keys to the inventory scan."""
    plain = paper_runs["plain"][label]
    analyzed = paper_runs["analyzed"][label]
    aqe = paper_runs["aqe"][label]
    assert plain.rows
    for other in (analyzed, aqe):
        assert sorted(map(tuple, other.rows)) == sorted(map(tuple, plain.rows))
    assert aqe.seconds == pytest.approx(plain.seconds, rel=0.005)
    assert analyzed.metrics.get("sql.cbo.estimates") > 0
    if label == "q38":
        # three fact tables, date_dim once, customer once (9 scans unshared)
        for run in (plain, analyzed):
            scans = [s for s in run.operator_stats.values() if "relation" in s]
            assert len(scans) == 5
        assert analyzed.seconds == pytest.approx(plain.seconds, rel=1e-9)
    else:
        assert analyzed.seconds < plain.seconds


#: counters a shared build raises rather than saves
_REUSE_COUNTERS = {"engine.broadcast_reuses", "engine.broadcast_bytes_saved"}


def test_a_reused_build_answers_like_a_rebuilt_one():
    """Reused is rebuilt, minus the rebuild: each paper query, planned once
    on the default conf, executes as planned and again with every
    ``build_stamp`` cleared.  The rows agree; no counter is higher with
    reuse, and scans, RPCs and broadcast bytes are strictly lower."""
    session = _paper_session("plain")

    def scans(result):
        return len([s for s in result.operator_stats.values() if "relation" in s])

    for label, build_sql in PAPER_QUERIES.items():
        planned = session.plan_query(session.sql(build_sql()).plan)
        reused = session.execute_planned(planned)
        for op in planned.physical.walk():
            if getattr(op, "build_stamp", None) is not None:
                op.build_stamp = None
        rebuilt = session.execute_planned(planned)
        assert reused.rows and sorted(map(tuple, reused.rows)) == \
            sorted(map(tuple, rebuilt.rows)), label
        shared, unshared = reused.metrics.snapshot(), rebuilt.metrics.snapshot()
        for name in set(shared) | set(unshared):
            if name not in _REUSE_COUNTERS:
                assert shared.get(name, 0.0) <= unshared.get(name, 0.0), (label, name)
        assert scans(reused) < scans(rebuilt), label
        for name in ("hbase.rpcs", "engine.broadcast_bytes"):
            assert shared[name] < unshared[name], (label, name)
        assert reused.seconds < rebuilt.seconds, label
    session.shutdown()


def test_q39_branch_prunes_inventory_in_whatever_order_its_joins_run(monkeypatch):
    """The date join hands its keys to the inventory scan through the
    broadcast joins below it: with ``item`` and ``warehouse`` joined first
    (and the join search held to the statement's order) the scan still
    reads one month, not the year."""
    from repro.sql import cbo
    from repro.workloads.tpcds_gen import date_sk_range_for_year

    monkeypatch.setattr(cbo, "_cheaper_order", lambda graph: None)
    session = _paper_session("analyzed")
    lo, hi = date_sk_range_for_year(queries.Q39_YEAR)
    keys = {"date_dim": ("inv_date_sk", "d_date_sk"),
            "item": ("inv_item_sk", "i_item_sk"),
            "warehouse": ("inv_warehouse_sk", "w_warehouse_sk")}
    runs = {}
    for order in (("date_dim", "item", "warehouse"), ("item", "warehouse", "date_dim")):
        frame = session.sql(f"""
            select w_warehouse_sk, i_item_sk, d_moy, avg(inv_quantity_on_hand) as mean
            from inventory {" ".join("join %s on %s = %s" % (t, *keys[t]) for t in order)}
            where d_year = {queries.Q39_YEAR} and inv_date_sk between {lo} and {hi}
              and d_moy = 1
            group by w_warehouse_sk, i_item_sk, d_moy""")
        physical = session.plan_query(frame.plan).physical
        built = [op.children[1].output[0].name for op in physical.walk()
                 if type(op).__name__ == "BroadcastHashJoinExec"]
        assert built == [keys[t][1] for t in reversed(order)]   # outermost first
        runs[order[0]] = result = frame.run()
        (op,) = [op for op, s in result.operator_stats.items()
                 if "filters_runtime" in s]
        inventory = result.operator_stats[op]
        scanned = result.metrics.for_op(op)["shc.regions_scanned"]
        assert scanned < inventory["regions_total"]
        assert inventory["scan_ranges"] == scanned
    first, last = runs["date_dim"], runs["item"]
    assert sorted(map(tuple, first.rows)) == sorted(map(tuple, last.rows))
    assert last.metrics.get("shc.cells_decoded") == \
        first.metrics.get("shc.cells_decoded")
    session.shutdown()


def _star_join_runs():
    """The CBO ablation's star join, scaled down: (syntactic, ANALYZEd).
    The ANALYZEd plan both reorders and pushes the tiny dimension's keys."""
    def schema(*names):
        return StructType([StructField(n, IntegerType) for n in names[:-1]]
                          + [StructField(names[-1], StringType)])

    tables = {
        "fact": ([(i % 100, i % 40, f"payload-{i:05d}-" + "x" * 120)
                  for i in range(2000)], schema("fk1", "fk2", "payload")),
        "dim": ([(k, f"dim-{k:03d}") for k in range(100)], schema("dk", "dname")),
        "tiny": ([(k, f"tiny-{k}") for k in range(2)], schema("tk", "tname")),
    }
    sql = ("SELECT t.tname, d.dname, f.payload FROM fact f "
           "JOIN dim d ON f.fk1 = d.dk JOIN tiny t ON f.fk2 = t.tk")
    runs = []
    for analyze in (False, True):
        session = SparkSession(["h1", "h2", "h3"], conf={
            "sql.autoBroadcastJoinThreshold": 1})
        for name, (rows, table_schema) in tables.items():
            session.create_dataframe(rows, table_schema) \
                .create_or_replace_temp_view(name)
            if analyze:
                session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS")
        runs.append(session.sql(sql).run())
    return runs


def test_a_reordered_join_never_measures_worse_than_the_syntactic_plan(paper_runs):
    """The cost model must be right about its own ledger: wherever the join
    search chose another order than the query's, the chosen plan's measured
    simulated seconds are no higher."""
    pairs = {label: (paper_runs["plain"][label], paper_runs["analyzed"][label])
             for label in PAPER_QUERIES}
    pairs["star join"] = _star_join_runs()
    reordered = []
    for label, (syntactic, chosen) in pairs.items():
        assert sorted(map(tuple, chosen.rows)) == \
            sorted(map(tuple, syntactic.rows)), label
        if chosen.metrics.get("sql.cbo.reorders_applied"):
            reordered.append(label)
            assert chosen.seconds <= syntactic.seconds, label
    assert "star join" in reordered
