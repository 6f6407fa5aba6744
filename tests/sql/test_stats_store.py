"""Unit coverage for ANALYZE statistics: histograms, NDVs, the stats store,
staleness fallback and master-side persistence (docs/optimizer.md)."""

import json
from types import SimpleNamespace

import pytest

from repro.common.errors import CatalogError
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql import stats as stats_module
from repro.sql.cbo import CardinalityEstimator, estimator_for, reorder_joins
from repro.sql.stats import (
    STATS_ATTRIBUTE,
    ColumnStats,
    Histogram,
    StatsStore,
    TableStats,
    build_histogram,
    compute_table_stats,
    hydrate_relation_stats,
    stats_key,
)
from repro.sql.types import (
    IntegerType,
    StringType,
    StructField,
    StructType,
)

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
])


# -- histograms ---------------------------------------------------------------

def test_equi_height_bucket_boundaries():
    hist = build_histogram(list(range(100)), buckets=4)
    assert hist.bounds == [0, 24, 49, 74, 99]
    assert hist.heights == [25, 25, 25, 25]


def test_histogram_caps_buckets_at_value_count():
    hist = build_histogram([1, 2, 3], buckets=8)
    assert len(hist.heights) == 3
    assert sum(hist.heights) == 3


def test_fraction_leq_interpolates_numerics():
    hist = build_histogram(list(range(100)), buckets=4)
    assert hist.fraction_leq(-1) == 0.0
    assert hist.fraction_leq(99) == 1.0
    assert hist.fraction_leq(49) == pytest.approx(0.5, abs=0.03)
    assert hist.fraction_leq(24) == pytest.approx(0.25, abs=0.03)


def test_histogram_skipped_for_unorderable_values():
    assert build_histogram([(1,), (2,)], buckets=4) is None
    assert build_histogram([1, "a"], buckets=4) is None


# -- compute_table_stats ------------------------------------------------------

def test_ndv_on_skewed_column():
    # 990 copies of one value plus ten distinct: exact NDV, not a guess
    rows = [(1 if i < 990 else i, "g") for i in range(1000)]
    stats = compute_table_stats(rows, SCHEMA)
    assert stats.row_count == 1000
    assert stats.columns["k"].ndv == 11
    assert stats.columns["g"].ndv == 1


def test_null_heavy_column_counts_and_excludes_nulls():
    rows = [(i if i % 4 == 0 else None, None) for i in range(100)]
    stats = compute_table_stats(rows, SCHEMA)
    k = stats.columns["k"]
    assert k.null_count == 75
    assert k.ndv == 25
    assert k.null_fraction(stats.row_count) == 0.75
    g = stats.columns["g"]
    assert g.null_count == 100 and g.ndv == 0
    assert g.histogram is None and g.min_value is None


def test_min_max_come_from_histogram_bounds():
    rows = [(v, "x") for v in [5, 3, 9, 1, 7]]
    stats = compute_table_stats(rows, SCHEMA)
    assert stats.columns["k"].min_value == 1
    assert stats.columns["k"].max_value == 9


# -- JSON roundtrip -----------------------------------------------------------

def test_table_stats_json_roundtrip():
    stats = compute_table_stats([(i % 7, f"g{i % 3}") for i in range(50)], SCHEMA)
    stats.source_bytes = 4096
    back = TableStats.from_json(json.loads(json.dumps(stats.to_json())))
    assert back.row_count == stats.row_count
    assert back.total_bytes == stats.total_bytes
    assert back.source_bytes == 4096
    assert back.columns["k"].ndv == stats.columns["k"].ndv
    assert back.columns["k"].histogram.bounds == stats.columns["k"].histogram.bounds
    assert back.columns["g"].null_count == stats.columns["g"].null_count


def test_json_omits_unorderable_min_max():
    cs = ColumnStats(ndv=3, null_count=0, min_value=(1,), max_value=(2,))
    data = cs.to_json()
    assert "min" not in data
    assert ColumnStats.from_json(data).min_value is None


# -- the store ----------------------------------------------------------------

def test_store_put_get_drop():
    store = StatsStore()
    ts = TableStats(10, 100)
    store.put("relation:q:t:", ts)
    assert store.get("relation:q:t:") is ts
    store.drop("relation:q:t:")
    assert store.get("relation:q:t:") is None
    store.put("relation:q:t:", ts)
    store.clear()
    assert len(store) == 0


def test_local_relation_stats_key_is_content_addressed():
    a = L.LocalRelation(SCHEMA, [(1, "a")])
    same = L.LocalRelation(SCHEMA, [(1, "a")])
    different = L.LocalRelation(SCHEMA, [(2, "b")])
    assert stats_key(a) == stats_key(same)
    assert stats_key(a) != stats_key(different)


# -- ANALYZE through the session ---------------------------------------------

def test_analyze_table_is_idempotent(session):
    data = [(i % 5, f"g{i % 3}") for i in range(60)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    first = session.sql("ANALYZE TABLE t COMPUTE STATISTICS").collect()[0]
    size_after_first = len(session.stats)
    second = session.sql("analyze table t compute statistics").collect()[0]
    assert tuple(first.values) == tuple(second.values)
    assert first.row_count == 60 and first.columns_analyzed == 2
    assert len(session.stats) == size_after_first
    key = session.stats.keys()[0]
    assert session.stats.get(key).columns["k"].ndv == 5


def test_analyze_respects_histogram_bucket_conf(session, monkeypatch):
    monkeypatch.setattr(stats_module, "HISTOGRAM_BUCKETS", 2)
    data = [(i, "g") for i in range(40)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    session.sql("ANALYZE TABLE t COMPUTE STATISTICS").collect()
    stats = session.stats.get(session.stats.keys()[0])
    assert len(stats.columns["k"].histogram.heights) == 2


# -- staleness: fall back to the syntactic order ------------------------------

class _FakeRelation:
    """Just enough surface for LogicalRelation + the staleness check."""

    def __init__(self, schema, size):
        self.schema = schema
        self._size = size

    def size_in_bytes(self):
        return self._size


def _relation(name, size=1000):
    rel = _FakeRelation(SCHEMA, size)
    return L.LogicalRelation(rel, name), rel


def test_stale_stats_are_discarded_and_counted():
    from repro.common.metrics import MetricsRegistry

    node, rel = _relation("t", size=1000)
    store = StatsStore()
    ts = compute_table_stats([(i, "g") for i in range(10)], SCHEMA)
    ts.source_bytes = 1000
    store.put(stats_key(node), ts)
    metrics = MetricsRegistry()
    # fresh: sizes match
    assert CardinalityEstimator(store, metrics).estimate(node).confident

    rel._size = 5000  # table grew 5x past the 2x staleness ratio
    assert not CardinalityEstimator(store, metrics).estimate(node).confident
    assert metrics.get("sql.cbo.stats_stale") == 1.0


def test_stale_stats_keep_syntactic_join_order():
    from repro.common.metrics import MetricsRegistry

    # fact a joins b on a low-NDV key (explodes) and c on a selective key:
    # the cheapest order is a-c-b, so the syntactic a-b-c gets rewritten
    datasets = {
        "a": [(i % 10, f"g{i % 100}") for i in range(1000)],
        "b": [(i % 10, "x") for i in range(1000)],
        "c": [(i, f"g{i}") for i in range(10)],
    }
    nodes = []
    store = StatsStore()
    for name, rows in datasets.items():
        node, rel = _relation(name, size=1000)
        nodes.append((node, rel))
        ts = compute_table_stats(rows, SCHEMA)
        ts.source_bytes = 1000
        store.put(stats_key(node), ts)

    def star(plan_nodes):
        a, b, c = plan_nodes
        cond_ab = E.Comparison("=", a.output[0], b.output[0])
        cond_ac = E.Comparison("=", a.output[1], c.output[1])
        return L.Join(L.Join(a, b, "inner", cond_ab), c, "inner", cond_ac)

    plan = star([n for n, __ in nodes])
    metrics = MetricsRegistry()
    reorder_joins(plan, CardinalityEstimator(store, metrics))
    assert metrics.get("sql.cbo.reorders_applied") == 1.0

    nodes[0][1]._size = 50000  # fact table grew: its stats are now stale
    metrics2 = MetricsRegistry()
    out2 = reorder_joins(plan, CardinalityEstimator(store, metrics2))
    assert out2 is plan  # syntactic order untouched
    assert metrics2.get("sql.cbo.reorders_rejected") == 1.0
    assert metrics2.get("sql.cbo.reorders_applied") == 0.0


# -- persistence through the master ------------------------------------------

def test_stats_attribute_survives_master_failover(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    payload = json.dumps(TableStats(42, 420).to_json())
    hbase_cluster.set_table_attribute("t", STATS_ATTRIBUTE, payload)
    hbase_cluster.failover_master()
    raw = hbase_cluster.get_table_attribute("t", STATS_ATTRIBUTE)
    assert raw == payload
    assert TableStats.from_json(json.loads(raw)).row_count == 42


def test_drop_table_discards_stats_attribute(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    hbase_cluster.set_table_attribute("t", STATS_ATTRIBUTE, "{}")
    hbase_cluster.drop_table("t")
    hbase_cluster.create_table("t", ["f"])
    assert hbase_cluster.get_table_attribute("t", STATS_ATTRIBUTE) is None


def _stored_relation(cluster, table):
    """A relation leaf the way the connector exposes it to ANALYZE."""
    rel = _FakeRelation(SCHEMA, 1000)
    rel.cluster = cluster
    rel.catalog = SimpleNamespace(qualified_name=table)
    return L.LogicalRelation(rel, table)


def test_hydrate_loads_persisted_stats_and_ignores_a_missing_table(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    payload = json.dumps(TableStats(42, 420).to_json())
    hbase_cluster.set_table_attribute("t", STATS_ATTRIBUTE, payload)
    store = StatsStore()
    node = _stored_relation(hbase_cluster, "t")
    assert hydrate_relation_stats(store, stats_key(node), node).row_count == 42
    assert store.get(stats_key(node)).row_count == 42
    gone = _stored_relation(hbase_cluster, "dropped")
    assert hydrate_relation_stats(store, stats_key(gone), gone) is None


def test_corrupt_persisted_stats_name_the_table(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    node = _stored_relation(hbase_cluster, "t")
    for raw in ("{not json", '{"row_count": "many"}', "[1, 2]"):
        hbase_cluster.set_table_attribute("t", STATS_ATTRIBUTE, raw)
        with pytest.raises(CatalogError, match="table t "):
            hydrate_relation_stats(StatsStore(), stats_key(node), node)


def test_missing_persisted_stats_are_fetched_once_per_pass(hbase_cluster):
    hbase_cluster.create_table("plain", ["f"])
    hbase_cluster.create_table("analyzed", ["f"])
    hbase_cluster.set_table_attribute(
        "analyzed", STATS_ATTRIBUTE,
        json.dumps(compute_table_stats([(1, "a")], SCHEMA).to_json()))
    fetched = []
    fetch = hbase_cluster.get_table_attribute

    def counting(name, key):
        fetched.append(name)
        return fetch(name, key)

    hbase_cluster.get_table_attribute = counting
    # a self-join of the un-ANALYZEd table next to an ANALYZEd one
    first, second = (_stored_relation(hbase_cluster, "plain") for __ in range(2))
    other = _stored_relation(hbase_cluster, "analyzed")
    plan = L.Join(L.Join(first, second, "cross", None), other, "cross", None)
    estimator = estimator_for(StatsStore(), plan)
    assert not estimator.estimate(plan).confident
    assert sorted(fetched) == ["analyzed", "plain"]
