import gc
import json
import weakref

import pytest

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.conncache import SHCConnectionCache
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cluster import HBaseCluster
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType

HOSTS = ["node1", "node2", "node3"]


@pytest.fixture
def conf(hbase_cluster):
    return hbase_cluster.configuration(client_host="node1")


def test_miss_charges_setup_then_hits_are_free(hbase_cluster, conf, clock):
    cache = SHCConnectionCache()
    first, second = CostLedger(), CostLedger()
    c1 = cache.acquire(conf, clock, DEFAULT_COST_MODEL, first)
    c2 = cache.acquire(conf, clock, DEFAULT_COST_MODEL, second)
    assert c1 is c2
    assert first.seconds == DEFAULT_COST_MODEL.connection_setup_s
    assert second.seconds == 0.0
    assert cache.hits == 1 and cache.misses == 1


def test_cache_keyed_per_client_host(hbase_cluster, clock):
    cache = SHCConnectionCache()
    a = cache.acquire(hbase_cluster.configuration("node1"), clock, DEFAULT_COST_MODEL)
    b = cache.acquire(hbase_cluster.configuration("node2"), clock, DEFAULT_COST_MODEL)
    assert a is not b
    assert cache.size() == 2


def test_release_then_eviction_after_close_delay(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=600)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(599)
    assert cache.housekeeping(clock) == 0
    clock.advance(2)
    assert cache.housekeeping(clock) == 1
    assert cache.size() == 0


def test_referenced_connections_never_evicted(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=1)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)  # refcount stays 1
    clock.advance(1000)
    assert cache.housekeeping(clock) == 0


def test_reacquire_resets_idle_timer(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=100)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(90)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)  # back in use
    cache.release(conf, clock)
    clock.advance(90)  # 180 since first release but only 90 since second
    assert cache.housekeeping(clock) == 0


def test_clear_closes_everything(hbase_cluster, conf, clock):
    cache = SHCConnectionCache()
    connection = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.clear()
    assert connection.closed
    assert cache.size() == 0


def test_new_connection_after_eviction(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=1)
    c1 = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(2)
    cache.housekeeping(clock)
    c2 = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    assert c1 is not c2
    assert cache.misses == 2


def test_close_delay_option_plumbed(linked):
    """The paper's connectionCloseDelay knob reaches the cluster's cache."""
    cluster, session = linked
    _save(session, cluster, [(1, "a")],
          {HBaseSparkConf.CONNECTION_CLOSE_DELAY: "120"})
    assert cluster.connection_cache.close_delay_s == 120.0


# -- the cluster owns its cache -------------------------------------------------------

_CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "kv"},
    "rowkey": "k",
    "columns": {"k": {"cf": "rowkey", "col": "k", "type": "int"},
                "v": {"cf": "f", "col": "v", "type": "string"}},
})
_SCHEMA = StructType([StructField("k", IntegerType), StructField("v", StringType)])


def _options(cluster, extra=None):
    return {HBaseTableCatalog.tableCatalog: _CATALOG,
            "hbase.zookeeper.quorum": cluster.quorum, **(extra or {})}


def _save(session, cluster, rows, extra=None):
    session.create_dataframe(rows, _SCHEMA).write.format(DEFAULT_FORMAT) \
        .options(_options(cluster, {HBaseTableCatalog.newTable: "2", **(extra or {})})) \
        .save()


def _frame(session, cluster):
    return session.read.format(DEFAULT_FORMAT).options(_options(cluster)).load()


def _rows(frame):
    return sorted(map(tuple, frame.collect()))


def _stored_rows(cluster):
    """Rows in the cluster's own regions, read without any client."""
    return sum(len(list(cluster.get_region(location.region_name).scan_rows()))
               for location in cluster.region_locations("kv"))


def test_a_rebuilt_cluster_never_reads_the_old_ones_rows():
    """A second cluster under a reused name starts with a cold cache: its
    writes and reads reach it, not the first cluster of that name.  A
    relation built before it keeps reading the first cluster."""
    first = HBaseCluster("same", HOSTS)
    first_session = SparkSession(HOSTS, executors_requested=3, clock=first.clock)
    _save(first_session, first, [(1, "a"), (2, "b")])
    first_frame = _frame(first_session, first)
    assert _rows(first_frame) == [(1, "a"), (2, "b")]

    second = HBaseCluster("same", HOSTS)
    second_session = SparkSession(HOSTS, executors_requested=3, clock=second.clock)
    _save(second_session, second, [(3, "c")])
    assert _rows(_frame(second_session, second)) == [(3, "c")]
    assert _stored_rows(first) == 2
    assert _stored_rows(second) == 1
    first.connection_cache.clear()  # the old relation reconnects cold
    assert _rows(first_frame) == [(1, "a"), (2, "b")]


def test_sessions_share_their_clusters_cache_and_nothing_keeps_a_cluster_alive(clock):
    """The connection rule: every session over one cluster shares that
    cluster's cache, another cluster pays its own setups, and neither the
    quorum registry nor a cache keeps a dropped cluster alive."""
    def first_query_setups(session, cluster):
        _frame(session, cluster).create_or_replace_temp_view("kv")
        result = session.sql("select count(*) from kv").run()
        return result.metrics.get("shc.connection_setups", 0)

    cluster = HBaseCluster("warm", HOSTS, clock=clock)
    writer = SparkSession(HOSTS, executors_requested=3, clock=clock)
    _save(writer, cluster, [(i, "v") for i in range(20)])
    first_query_setups(writer, cluster)  # every executor host is now warm
    reader = SparkSession(HOSTS, executors_requested=3, clock=clock)
    assert first_query_setups(reader, cluster) == 0

    other = HBaseCluster("cold", HOSTS, clock=clock)
    _save(writer, other, [(1, "v")], {HBaseSparkConf.CONNECTION_CACHE: "false"})
    assert first_query_setups(reader, other) > 0

    dropped = weakref.ref(cluster)
    del cluster, writer, reader
    gc.collect()
    assert dropped() is None
