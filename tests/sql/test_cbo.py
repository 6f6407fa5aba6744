"""The cost-based optimizer: estimation formulas, join reordering, the
runtime key filter's pricing and the EXPLAIN surface (docs/optimizer.md)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.metrics import MetricsRegistry
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql import cbo, physical
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.analyzer import Analyzer, Catalog
from repro.sql.cbo import (
    DEFAULT_SELECTIVITY,
    CardinalityEstimator,
    _cheaper_order,
    _dp_order,
    _greedy_order,
    _JoinGraph,
    reorder_joins,
    semijoin_keep_fraction,
)
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.stats import StatsStore, compute_table_stats, stats_key
from repro.sql.types import (
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
])


#: what ANALYZE TABLE would have stored for every table `analyzed` registers
#: (local rows are keyed by content, so tests cannot collide)
STORE = StatsStore()


def estimator(metrics=None):
    return CardinalityEstimator(STORE, metrics)


def analyzed(sql, **tables):
    catalog = Catalog()
    for name, rows in tables.items():
        relation = L.LocalRelation(SCHEMA, rows)
        catalog.register(name, relation)
        STORE.put(stats_key(relation), compute_table_stats(rows, SCHEMA))
    return Analyzer(catalog).analyze(parse(sql))


# -- estimation formulas ------------------------------------------------------

def test_equality_selectivity_is_one_over_ndv():
    rows = [(i % 10, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k = 3", t=rows))
    assert est.rows == pytest.approx(10.0)
    assert est.confident


def test_equality_accounts_for_null_fraction():
    rows = [(i % 5 if i % 2 == 0 else None, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k = 2", t=rows))
    assert est.rows == pytest.approx(100 * 0.5 / 5)


def test_is_null_uses_null_fraction():
    rows = [(i if i % 2 == 0 else None, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k is null", t=rows))
    assert est.rows == pytest.approx(50.0)


def test_range_predicate_uses_histogram():
    rows = [(i, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k < 50", t=rows))
    assert est.rows == pytest.approx(50.0, abs=3.0)
    est = estimator().estimate(analyzed("select * from t where k >= 90", t=rows))
    assert est.rows == pytest.approx(10.0, abs=3.0)


def test_in_list_selectivity_is_k_over_ndv():
    rows = [(i % 10, "g") for i in range(100)]
    est = estimator().estimate(
        analyzed("select * from t where k in (1, 2, 3)", t=rows))
    assert est.rows == pytest.approx(30.0)


def test_unmodelled_predicate_falls_back_to_default():
    rows = [(i, f"g{i}") for i in range(90)]
    est = estimator().estimate(
        analyzed("select * from t where g like 'g%'", t=rows))
    assert est.rows == pytest.approx(90 * DEFAULT_SELECTIVITY)


def test_equi_join_rows_divided_by_max_key_ndv():
    left = [(i % 10, "l") for i in range(100)]
    right = [(i % 5, "r") for i in range(50)]
    est = estimator().estimate(analyzed(
        "select * from a join b on a.k = b.k", a=left, b=right))
    assert est.rows == pytest.approx(100 * 50 / 10)
    assert est.confident


def test_group_by_rows_are_grouping_ndv():
    rows = [(i, f"g{i % 3}") for i in range(90)]
    est = estimator().estimate(analyzed(
        "select g, count(*) n from t group by g", t=rows))
    assert est.rows == pytest.approx(3.0)


def test_unknown_leaf_is_unconfident():
    plan = analyzed("select * from a join b on a.k = b.k",
                    a=[(1, "x")], b=[(1, "y")])

    class Opaque(L.LogicalPlan):
        def __init__(self, output):
            self._out = output

        @property
        def output(self):
            return self._out

        @property
        def children(self):
            return []

        def with_new_children(self, children):
            return self

    join = plan.collect_nodes(lambda n: isinstance(n, L.Join))[0]
    opaque = Opaque(list(join.left.output))
    replaced = L.Join(opaque, join.right, "inner", join.condition)
    est = estimator().estimate(replaced)
    assert not est.confident


def test_estimates_counter_increments():
    metrics = MetricsRegistry()
    estimator(metrics).estimate(analyzed("select * from t", t=[(1, "a")]))
    assert metrics.get("sql.cbo.estimates") == 1.0


# -- join reordering ----------------------------------------------------------

def _star_plan():
    """a-b explodes (low-NDV key), a-c is selective: best order is a, c, b."""
    tables = {
        "a": [(i % 10, f"g{i % 100}") for i in range(1000)],
        "b": [(i % 10, "x") for i in range(1000)],
        "c": [(i, f"g{i}") for i in range(10)],
    }
    return analyzed(
        "select * from a join b on a.k = b.k join c on a.g = c.g", **tables)


def test_dp_reorder_moves_selective_join_first():
    metrics = MetricsRegistry()
    plan = _star_plan()
    out = reorder_joins(plan, estimator(metrics))
    assert metrics.get("sql.cbo.reorders_applied") == 1.0
    # output columns (names and ids) are preserved by the restoring Project
    assert [a.attr_id for a in out.output] == [a.attr_id for a in plan.output]
    joins = out.collect_nodes(lambda n: isinstance(n, L.Join))
    assert len(joins) == 2  # still a left-deep two-join tree
    # the deepest join is no longer the exploding a-b: the selective c join
    # was hoisted next to a, so its estimate collapses from 100k to ~100 rows
    deepest = next(j for j in joins
                   if not any(isinstance(n, L.Join)
                              for c in j.children for n in c.collect_nodes(
                                  lambda x: isinstance(x, L.Join))))
    est = estimator().estimate(deepest)
    assert est.rows < 1000
    assert metrics.get("sql.cbo.reorders_rejected") == 0.0


def test_greedy_reorder_above_dp_threshold(monkeypatch):
    monkeypatch.setattr(cbo, "DP_THRESHOLD", 2)  # forces the greedy path
    metrics = MetricsRegistry()
    plan = _star_plan()
    out = reorder_joins(plan, estimator(metrics))
    assert metrics.get("sql.cbo.reorders_applied") == 1.0
    assert [a.name for a in out.output] == [a.name for a in plan.output]


def test_two_way_join_is_never_reordered():
    metrics = MetricsRegistry()
    plan = analyzed("select * from a join b on a.k = b.k",
                    a=[(1, "x")], b=[(1, "y")])
    out = reorder_joins(plan, estimator(metrics))
    assert out is plan
    assert metrics.get("sql.cbo.reorders_applied") == 0.0


# -- runtime key filter profitability ----------------------------------------

def test_keep_fraction_is_ndv_ratio():
    l_plan = analyzed("select * from t", t=[(i % 10, "l") for i in range(100)])
    r_plan = analyzed("select * from t", t=[(i % 2, "r") for i in range(4)])
    l_est = estimator().estimate(l_plan)
    r_est = estimator().estimate(r_plan)
    keep = semijoin_keep_fraction(
        l_est, r_est, [l_plan.output[0]], [r_plan.output[0]])
    assert keep == pytest.approx(2 / 10)


def test_keep_fraction_none_without_key_stats():
    l_plan = analyzed("select * from t", t=[(1, "l")])
    l_est = estimator().estimate(l_plan)
    ghost = E.Attribute("ghost", IntegerType)
    assert semijoin_keep_fraction(l_est, l_est, [ghost], [ghost]) is None


# -- end-to-end through the session ------------------------------------------

FACT_SCHEMA = StructType([
    StructField("fk", IntegerType),
    StructField("id", IntegerType),
    StructField("v", DoubleType),
])
DIM_SCHEMA = StructType([
    StructField("dk", IntegerType),
    StructField("name", StringType),
])


def _load_join(session, dim_keys, analyze=True):
    fact = [(i % 5, i, float(i)) for i in range(2000)]
    dim = [(k, f"d{k}") for k in dim_keys]
    session.create_dataframe(fact, FACT_SCHEMA).create_or_replace_temp_view("fact")
    session.create_dataframe(dim, DIM_SCHEMA).create_or_replace_temp_view("dim")
    if analyze:
        session.sql("ANALYZE TABLE fact COMPUTE STATISTICS")
        session.sql("ANALYZE TABLE dim COMPUTE STATISTICS")
    return "select name, v from fact join dim on fk = dk"


def _load_hbase_join(cluster, session, dim_keys):
    """``_load_join``'s tables stored in HBase (fact keyed by ``id``, dim by
    ``dk``), where a scan takes the pushed keys as a filter."""
    for name, schema, rows, types in (
        ("fact", FACT_SCHEMA, [(i % 5, i, float(i)) for i in range(2000)],
         {"fk": "int", "id": "int", "v": "double"}),
        ("dim", DIM_SCHEMA, [(k, f"d{k}") for k in dim_keys],
         {"dk": "int", "name": "string"}),
    ):
        rowkey = "id" if name == "fact" else "dk"
        opts = {
            HBaseTableCatalog.tableCatalog: json.dumps({
                "table": {"namespace": "default", "name": name},
                "rowkey": rowkey,
                "columns": {c: {"cf": "rowkey" if c == rowkey else "cf",
                                "col": c, "type": t} for c, t in types.items()},
            }),
            HBaseTableCatalog.newTable: "3",
            "hbase.zookeeper.quorum": cluster.quorum,
        }
        session.create_dataframe(rows, schema).write \
            .format(DEFAULT_FORMAT).options(opts).save()
        session.read.format(DEFAULT_FORMAT).options(opts).load() \
            .create_or_replace_temp_view(name)
        session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS")
    return "select name, v from fact join dim on fk = dk"


def _shuffle_conf(session):
    session.conf["sql.autoBroadcastJoinThreshold"] = 1  # force the shuffle path


def _planned_join(physical_plan):
    (join,) = [op for op in physical_plan.walk()
               if isinstance(op, physical.HashJoinExec)]
    return join


def _pushes(session, query):
    join = _planned_join(session.plan_query(session.sql(query).plan).physical)
    assert type(join) is physical.ShuffledHashJoinExec
    return join.push_keys


def _shuffled(result):
    return result.metrics.get("engine.shuffle_write_bytes")


def test_semijoin_reduction_prunes_probe_rows(linked):
    """The shuffled join sends the dimension's two keys to the fact scan,
    which returns only the rows that can match."""
    cluster, session = linked
    _shuffle_conf(session)
    query = _load_hbase_join(cluster, session, dim_keys=[0, 1])
    assert _pushes(session, query)
    result = session.sql(query).run()
    assert len(result.rows) == 800
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 2.0
    assert result.metrics.get("hbase.rows_returned") == 800 + 2


def test_semijoin_answers_match_cbo_off(session):
    """"CBO off" is a session with no statistics: the syntactic plan.  A
    local scan takes no filter, so the probe rows that cannot match are
    dropped before the shuffle instead."""
    _shuffle_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    assert _pushes(session, query)
    with_stats = session.sql(query).run()
    assert with_stats.metrics.get("sql.cbo.runtime_keys.pushed") == 0.0
    session.stats.clear()  # no statistics: planned syntactically
    without = session.sql(query).run()
    assert not [k for k in without.metrics.snapshot() if k.startswith("sql.cbo.")]
    assert sorted(tuple(r.values) for r in with_stats.rows) == \
        sorted(tuple(r.values) for r in without.rows)
    assert _shuffled(with_stats) < _shuffled(without)


def test_semijoin_rejected_when_unprofitable(session):
    # every probe key survives (dim covers all 5): keep=1 skips no probe row
    _shuffle_conf(session)
    query = _load_join(session, dim_keys=[0, 1, 2, 3, 4])
    assert not _pushes(session, query)
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 0.0
    assert len(result.rows) == 2000
    session.stats.clear()
    assert _shuffled(result) == _shuffled(session.sql(query).run())


def test_semijoin_runtime_abort_on_key_blowup(linked, monkeypatch):
    # the planner commits, but at runtime the build has more distinct keys
    # than SEMIJOIN_MAX_KEYS allows: nothing is sent, the probe is whole
    cluster, session = linked
    _shuffle_conf(session)
    query = _load_hbase_join(cluster, session, dim_keys=[0, 1])
    pushed = session.sql(query).run()
    monkeypatch.setattr(physical, "SEMIJOIN_MAX_KEYS", 1)
    assert _pushes(session, query)
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 0.0
    assert result.metrics.get("engine.broadcast_bytes") == 0.0
    assert sorted(tuple(r.values) for r in result.rows) == \
        sorted(tuple(r.values) for r in pushed.rows)
    assert _shuffled(result) > _shuffled(pushed)
    # the whole fact table, and the dimension once: its collected rows
    # feed the shuffle, it is not scanned again
    assert result.metrics.get("hbase.rows_returned") == 2000 + 2


def test_join_reorder_end_to_end_answers(session):
    tables = {
        "a": ([(i % 10, i, float(i)) for i in range(500)], FACT_SCHEMA),
        "b": ([(i % 10, "x") for i in range(200)], DIM_SCHEMA),
        "c": ([(i, f"g{i}") for i in range(10)], DIM_SCHEMA),
    }
    for name, (rows, schema) in tables.items():
        session.create_dataframe(rows, schema).create_or_replace_temp_view(name)
        session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS")
    query = ("select a.v, b.name, c.name from a "
             "join b on a.fk = b.dk join c on a.fk = c.dk")
    with_stats = session.sql(query).run()
    assert with_stats.metrics.get("sql.cbo.estimates") >= 1.0
    session.stats.clear()
    without = session.sql(query).collect()
    assert sorted(tuple(r.values) for r in with_stats.rows) == \
        sorted(tuple(r.values) for r in without)


# -- EXPLAIN surface ----------------------------------------------------------

def test_explain_analyze_has_cbo_section(linked):
    cluster, session = linked
    _shuffle_conf(session)
    query = _load_hbase_join(cluster, session, dim_keys=[0, 1])
    report = session.sql(query).explain(analyze=True)
    assert "== Cost-Based Optimization ==" in report
    assert "runtime keys pushed: 2" in report
    assert "runtime keys: 2 keys" in report
    assert "est=" in report  # per-operator est-vs-actual annotation


def test_explain_has_no_cbo_section_without_statistics(session):
    query = _load_join(session, dim_keys=[0, 1], analyze=False)
    report = session.sql(query).explain(analyze=True)
    assert "Cost-Based Optimization" not in report
    assert "sql.cbo" not in report


# -- statistics as AQE priors -------------------------------------------------

def test_stats_act_as_aqe_priors(session):
    # the heuristic sees a big filtered side (size//4 is still over the
    # threshold) but the estimate knows only ~10 rows survive: the prior
    # settles broadcast without waiting for a stage barrier
    session.conf["sql.aqe.enabled"] = True
    session.conf["sql.autoBroadcastJoinThreshold"] = 2000
    fact = [(i % 5, i, float(i)) for i in range(2000)]
    session.create_dataframe(fact, FACT_SCHEMA).create_or_replace_temp_view("fact")
    session.sql("ANALYZE TABLE fact COMPUTE STATISTICS")
    query = ("select a.v, b.v from fact a "
             "join (select * from fact where id < 10) b on a.fk = b.fk")
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.aqe_priors_used") >= 1.0
    assert len(result.rows) == 4000  # 10 build rows x 400 matching fact rows


# -- ANALYZE is the opt-in: one estimator per planning pass, or none ----------

@pytest.fixture
def constructions(monkeypatch):
    """Counts CardinalityEstimator constructions."""
    built = []
    init = CardinalityEstimator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CardinalityEstimator, "__init__", counting)
    return built


def test_plan_query_builds_no_estimator_without_statistics(session, constructions):
    query = _load_join(session, dim_keys=[0, 1], analyze=False)
    planned = session.plan_query(session.sql(query).plan)
    assert constructions == []
    assert planned.metrics is None


def test_plan_query_builds_no_estimator_for_a_plan_without_joins(
        session, constructions):
    # statistics exist, but nothing in a single-table scan is decided by cost
    _load_join(session, dim_keys=[0, 1])
    del constructions[:]
    result = session.sql("select v from fact where fk = 3").run()
    assert constructions == []
    assert not [k for k in result.metrics.snapshot() if k.startswith("sql.cbo.")]


def test_plan_query_shares_one_estimator(session, constructions):
    _shuffle_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    del constructions[:]  # ANALYZE's own collection scans planned too
    planned = session.plan_query(session.sql(query).plan)
    assert len(constructions) == 1
    assert _planned_join(planned.physical).push_keys


def test_optimize_and_planner_take_the_stats_store_directly(session):
    """The spelled-out pipeline (benchmarks/e2e/tracing.py) hands each phase
    the store; both plan as the session's one call does."""
    _shuffle_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    plan = session.sql(query).plan
    metrics = MetricsRegistry()
    optimized = optimize(plan, conf=session.conf, stats=session.cbo_stats(),
                         metrics=metrics, views=None)
    physical_plan = Planner(session.conf, cache=session.cache_manager,
                            stats=session.cbo_stats(),
                            metrics=metrics).plan_query(optimized)
    via_session = session.plan_query(plan)
    assert _planned_join(physical_plan).push_keys
    assert _planned_join(via_session.physical).push_keys
    stepwise = session.execute_physical(physical_plan, extra_metrics=metrics)
    direct = session.execute_planned(via_session)
    assert stepwise.seconds == direct.seconds
    assert dict(stepwise.metrics.snapshot()) == dict(direct.metrics.snapshot())


def test_subtree_estimated_once_per_pass(session):
    """Every rule that asks about a subtree shares one walk of it."""
    query = _load_join(session, dim_keys=[0, 1])
    plan = optimize(session.sql(query).plan)
    est = CardinalityEstimator(session.stats)
    calls = []
    inner = est._est_node
    est._est_node = lambda node: calls.append(node) or inner(node)
    join = plan.collect_nodes(lambda n: isinstance(n, L.Join))[0]
    for node in (join.left, join.right, join, plan):
        est.estimate(node)
    assert len(calls) == len({id(n) for n in calls})
    assert len(calls) == len(plan.collect_nodes(lambda n: True))


# -- the join search never builds a Cartesian product it can avoid ------------

def _conjunct_free_joins(graph, order):
    return [j for i, j in enumerate(order) if i and not graph.linked(order[:i], j)]


@pytest.mark.parametrize("search", [_dp_order, _greedy_order])
def test_star_join_is_never_ordered_through_a_product(search):
    # q39's shape: one fact input, three small dimensions each joined to the
    # fact only.  Counting rows alone, (14 x 4) x 31 looks cheaper than any
    # order that touches the fact first.
    graph = _JoinGraph(
        rows=[100_000.0, 31.0, 14.0, 4.0],
        conj_inputs=[frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})],
        conj_sel=[1 / 365, 1 / 14, 1 / 4],
    )
    order = search(graph)
    assert sorted(order) == [0, 1, 2, 3]
    assert _conjunct_free_joins(graph, order) == []


def test_estimated_tie_keeps_the_syntactic_order():
    # q38's web_sales branch at 2 GB: both orders apply the same two
    # conjuncts to the same rows, and their costs differ by 5e-13
    graph = _JoinGraph(
        rows=[177.87162162162159, 1095.0, 30.0],
        conj_inputs=[frozenset({0, 1}), frozenset({0, 2})],
        conj_sel=[0.0009132420091324201, 0.03333333333333333],
    )
    assert _dp_order(graph) == (0, 2, 1)
    assert _cheaper_order(graph) is None


@st.composite
def connected_join_graphs(draw):
    n = draw(st.integers(3, 7))
    rows = draw(st.lists(st.floats(1.0, 1e7), min_size=n, max_size=n))
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = {frozenset({i, draw(st.integers(0, i - 1))}) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    edges |= {frozenset(e) for e in extra if e[0] != e[1]}
    edges = sorted(edges, key=sorted)
    sels = draw(st.lists(st.floats(1e-6, 1.0),
                         min_size=len(edges), max_size=len(edges)))
    return _JoinGraph(rows, edges, sels)


@settings(max_examples=150, deadline=None)
@given(connected_join_graphs())
def test_connected_graph_orders_have_no_conjunct_free_join(graph):
    for search in (_dp_order, _greedy_order):
        order = search(graph)
        assert sorted(order) == list(range(len(graph.rows)))
        assert _conjunct_free_joins(graph, order) == []


def test_disconnected_cluster_is_ordered_not_rejected():
    # {0,1} and {2,3} share no conjunct: one product is unavoidable, and it
    # is taken once, after each side's real join
    graph = _JoinGraph(
        rows=[1000.0, 10.0, 500.0, 5.0],
        conj_inputs=[frozenset({0, 1}), frozenset({2, 3})],
        conj_sel=[1 / 10, 1 / 5],
    )
    for search in (_dp_order, _greedy_order):
        order = search(graph)
        assert sorted(order) == [0, 1, 2, 3]
        assert len(_conjunct_free_joins(graph, order)) == 1
    metrics = MetricsRegistry()
    plan = analyzed(
        "select * from a join b on a.k = b.k cross join c",
        a=[(i % 10, "a") for i in range(300)],
        b=[(i, "b") for i in range(10)],
        c=[(i, "c") for i in range(2)],
    )
    out = reorder_joins(plan, estimator(metrics))
    assert metrics.get("sql.cbo.reorders_rejected") == 0.0
    assert [a.attr_id for a in out.output] == [a.attr_id for a in plan.output]
