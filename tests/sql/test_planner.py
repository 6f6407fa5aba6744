import pytest

from repro.sql import logical as L
from repro.sql import physical as P
from repro.sql.analyzer import Analyzer, Catalog
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner, UNKNOWN_SIZE, estimate_plan_size
from repro.sql.sources import BaseRelation, EqualTo, GreaterThan
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
    StructField("v", DoubleType),
])

CONF = {"sql.shuffle.partitions": 4, "sql.autoBroadcastJoinThreshold": 1024}


class FakeRelation(BaseRelation):
    """Scriptable relation for planner tests."""

    def __init__(self, size=None, handled_filters=()):
        self._size = size
        self._handled = set(handled_filters)
        self.offered = None

    @property
    def schema(self):
        return SCHEMA

    def size_in_bytes(self):
        return self._size

    def unhandled_filters(self, filters):
        return [f for f in filters if f not in self._handled]

    def build_scan(self, required_columns, filters):
        from repro.engine.rdd import ParallelCollectionRDD

        self.offered = list(filters)
        return ParallelCollectionRDD([], 1)


def plan_for(sql, relations):
    catalog = Catalog()
    for name, relation in relations.items():
        catalog.register(name, L.LogicalRelation(relation, name))
    analyzed = Analyzer(catalog).analyze(parse(sql))
    return Planner(CONF).plan(optimize(analyzed))


def find(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children:
            visit(child)

    visit(plan)
    return found


def test_scan_collapses_project_filter_stack():
    relation = FakeRelation()
    physical = plan_for("select g from t where k > 1", {"t": relation})
    scans = find(physical, P.DataSourceScanExec)
    assert len(scans) == 1
    assert scans[0].pushed_filters == [GreaterThan("k", 1)]


def test_unhandled_filters_stay_as_residual():
    relation = FakeRelation()  # handles nothing
    physical = plan_for("select g from t where k > 1", {"t": relation})
    scan = find(physical, P.DataSourceScanExec)[0]
    assert scan.residual is not None


def test_handled_filters_get_no_residual():
    pushed = GreaterThan("k", 1)
    relation = FakeRelation(handled_filters=[pushed])
    physical = plan_for("select g from t where k > 1", {"t": relation})
    scan = find(physical, P.DataSourceScanExec)[0]
    assert scan.residual is None


def test_untranslatable_predicate_is_residual_only():
    relation = FakeRelation()
    physical = plan_for("select g from t where k + 1 = 2", {"t": relation})
    scan = find(physical, P.DataSourceScanExec)[0]
    assert scan.pushed_filters == []
    assert scan.residual is not None


def test_required_columns_pruned():
    relation = FakeRelation()
    physical = plan_for("select g from t where k > 1", {"t": relation})
    scan = find(physical, P.DataSourceScanExec)[0]
    assert {a.name for a in scan.output} == {"g", "k"}


def test_small_relation_broadcast():
    small = FakeRelation(size=100)
    big = FakeRelation(size=10**9)
    physical = plan_for(
        "select a.g from t a join u b on a.k = b.k",
        {"t": big, "u": small})
    assert find(physical, P.BroadcastHashJoinExec)
    assert not find(physical, P.ShuffledHashJoinExec)


def test_unknown_size_forces_shuffle_join():
    physical = plan_for(
        "select a.g from t a join u b on a.k = b.k",
        {"t": FakeRelation(), "u": FakeRelation()})
    assert find(physical, P.ShuffledHashJoinExec)
    assert not find(physical, P.BroadcastHashJoinExec)


def test_small_left_side_swapped_into_broadcast():
    small = FakeRelation(size=100)
    big = FakeRelation(size=10**9)
    physical = plan_for(
        "select a.g from t a join u b on a.k = b.k",
        {"t": small, "u": big})
    joins = find(physical, P.BroadcastHashJoinExec)
    assert joins
    # output order restored: left columns first
    top_project = find(physical, P.ProjectExec)
    assert top_project


def test_non_equi_join_uses_nested_loop():
    physical = plan_for(
        "select a.g from t a join u b on a.k < b.k",
        {"t": FakeRelation(size=10), "u": FakeRelation(size=10)})
    assert find(physical, P.BroadcastNestedLoopJoinExec)


def test_aggregate_and_sort_operators():
    physical = plan_for(
        "select g, count(*) c from t group by g order by c desc limit 5",
        {"t": FakeRelation()})
    assert find(physical, P.HashAggregateExec)
    assert find(physical, P.SortExec)
    assert find(physical, P.LimitExec)


def test_union_and_intersect_operators():
    rels = {"t": FakeRelation(), "u": FakeRelation()}
    union_all = plan_for("select k from t union all select k from u", rels)
    assert find(union_all, P.UnionExec)
    assert not find(union_all, P.DistinctExec)
    union = plan_for("select k from t union select k from u", rels)
    assert find(union, P.DistinctExec)
    intersect = plan_for("select k from t intersect select k from u", rels)
    assert find(intersect, P.IntersectExec)


def test_estimate_plan_size_propagation():
    relation = L.LogicalRelation(FakeRelation(size=1000), "t")
    assert estimate_plan_size(relation) == 1000
    filtered = L.Filter(parse("select k from t").project_list[0], relation)
    assert estimate_plan_size(filtered) == 250
    unknown = L.LogicalRelation(FakeRelation(), "t")
    assert estimate_plan_size(unknown) == UNKNOWN_SIZE
    assert estimate_plan_size(L.Filter(None, unknown)) == UNKNOWN_SIZE // 4


# -- broadcast-swap path (small left side, inner join) ---------------------------

def _planned_join(how="join", left=None, right=None, extra_cond=""):
    left = left if left is not None else FakeRelation(size=100)
    right = right if right is not None else FakeRelation(size=10**9)
    sql = (f"select a.g from t a {how} u b on a.k = b.k{extra_cond}")
    return plan_for(sql, {"t": left, "u": right}), left, right


def test_swapped_broadcast_builds_on_the_small_left_relation():
    physical, small, big = _planned_join()
    join = find(physical, P.BroadcastHashJoinExec)[0]
    # BroadcastHashJoinExec broadcasts its *right* child: after the swap the
    # build side must be the small relation and the stream side the big one
    build_scans = find(join.children[1], P.DataSourceScanExec)
    stream_scans = find(join.children[0], P.DataSourceScanExec)
    assert [s.relation for s in build_scans] == [small]
    assert [s.relation for s in stream_scans] == [big]
    assert join.how == "inner"


def test_swapped_broadcast_swaps_the_key_sides():
    physical, small, big = _planned_join()
    join = find(physical, P.BroadcastHashJoinExec)[0]
    # probe keys (left_keys) must resolve against the stream (big) side and
    # build keys (right_keys) against the broadcast (small) side
    stream_ids = {a.attr_id for a in join.children[0].output}
    build_ids = {a.attr_id for a in join.children[1].output}
    assert all(k.references() <= stream_ids for k in join.left_keys)
    assert all(k.references() <= build_ids for k in join.right_keys)


def test_swapped_broadcast_restores_column_order():
    physical, small, big = _planned_join()
    join = find(physical, P.BroadcastHashJoinExec)[0]
    project = find(physical, P.ProjectExec)[0]
    # the reordering projection directly above the swapped join lists the
    # original left output first, then the right output
    # (it reads batches, so the row-producing join sits behind an adapter)
    projects_above_join = [
        p for p in find(physical, P.ProjectExec)
        if join in p.children[0].children
    ]
    assert projects_above_join
    reorder = projects_above_join[0]
    left_ids = [a.attr_id for a in join.children[1].output]   # original left
    right_ids = [a.attr_id for a in join.children[0].output]  # original right
    assert [a.attr_id for a in reorder.project_list] == left_ids + right_ids


def test_swapped_broadcast_keeps_residual_as_filter():
    physical, small, big = _planned_join(extra_cond=" and a.v < b.v")
    join = find(physical, P.BroadcastHashJoinExec)[0]
    assert join.residual is None  # residual moved above the reordering
    filters = find(physical, P.FilterExec)
    assert filters, "non-equi conjunct must survive as an engine filter"


def test_small_left_side_not_swapped_for_outer_join():
    physical, small, big = _planned_join(how="left join")
    assert find(physical, P.ShuffledHashJoinExec)
    assert not find(physical, P.BroadcastHashJoinExec)


# -- adaptive planning (sql.aqe.enabled) -----------------------------------------

def plan_with_conf(sql, relations, conf):
    catalog = Catalog()
    for name, relation in relations.items():
        catalog.register(name, L.LogicalRelation(relation, name))
    analyzed = Analyzer(catalog).analyze(parse(sql))
    return Planner(conf).plan(optimize(analyzed))


def test_adaptive_conf_plans_shuffled_joins_as_adaptive():
    from repro.sql.adaptive import AdaptiveJoinExec, QueryStageExec

    conf = dict(CONF, **{"sql.aqe.enabled": True})
    physical = plan_with_conf(
        "select a.g from t a join u b on a.k = b.k",
        {"t": FakeRelation(), "u": FakeRelation()}, conf)
    joins = find(physical, AdaptiveJoinExec)
    assert joins and not find(physical, P.ShuffledHashJoinExec)
    assert all(isinstance(c, QueryStageExec) for c in joins[0].children)


def test_adaptive_conf_leaves_estimated_broadcasts_alone():
    from repro.sql.adaptive import AdaptiveJoinExec

    conf = dict(CONF, **{"sql.aqe.enabled": True})
    physical = plan_with_conf(
        "select a.g from t a join u b on a.k = b.k",
        {"t": FakeRelation(size=10**9), "u": FakeRelation(size=100)}, conf)
    # an estimate already under the threshold broadcasts at plan time; AQE
    # only takes over joins the estimates would have shuffled
    assert find(physical, P.BroadcastHashJoinExec)
    assert not find(physical, AdaptiveJoinExec)


def test_local_scan_partitions_knob():
    conf = dict(CONF, **{"sql.local.scan.partitions": 7})
    local = L.LocalRelation(SCHEMA, [(1, "a", 1.0), (2, "b", 2.0)])
    physical = Planner(conf).plan(optimize(local))
    scans = find(physical, P.LocalScanExec)
    assert scans and scans[0].num_partitions == 7
