"""A referee for the join family: every strategy against a nested loop.

One generated pair of tables (NULL and duplicate keys on both sides) runs
through every way the engine can join them -- broadcast, the planner's
swapped broadcast, shuffled, shuffled with its build keys pushed (under
and over the key cap), adaptive settling on broadcast / swapped broadcast /
the skew-split shuffle, and the nested loop -- for each join type, with
and without a residual, and must agree as a multiset with a reference
written here.
Every hash-join strategy must also report its output with one number:
``engine.join.rows_out``, the operator's scoped share of it and the rows
themselves.

The second half covers what the build side's keys do to an HBase scan
(``filters_runtime``, ``sql.cbo.runtime_keys.pushed``, regions pruned),
the two things a
hash join may carry -- its keys pushed to the probe (a cost decision, for
the broadcast and the shuffled strategy alike), a broadcast build shared
with an equal one (always) -- as metamorphic relations ("pushed is not
pushed", "shared is rebuilt") over generated tables, and the
machine-independent cost of one probed row.
"""

import dataclasses
import json
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.faults import FAULT_RPC, FaultInjector
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.engine.shuffle import estimate_size
from repro.hbase.cluster import HBaseCluster
from repro.sql import adaptive, physical as P
from repro.sql import expressions as E
from repro.sql.functions import col
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType
from repro.sql.vectorized import insert_transitions

HOSTS = ["h1", "h2", "h3"]
HOWS = ("inner", "left", "semi", "anti")

keys = st.one_of(st.none(), st.integers(0, 3))
values = st.one_of(st.none(), st.integers(0, 5))
tables = st.lists(st.tuples(keys, values), max_size=9)


def reference(left, right, how, residual):
    """The join's definition: NULL keys never match, an unknown residual
    is not a match."""
    out = []
    for lrow in left:
        matches = [rrow for rrow in right
                   if lrow[0] is not None and lrow[0] == rrow[0]
                   and (not residual or (None not in (lrow[1], rrow[1])
                                         and lrow[1] < rrow[1]))]
        if how == "inner":
            out.extend(lrow + rrow for rrow in matches)
        elif how == "left":
            out.extend(lrow + rrow for rrow in matches or [(None, None)])
        elif (how == "semi") == bool(matches):
            out.append(lrow)
    return Counter(out)


class Sides:
    """Both inputs as fresh scans over the same attributes."""

    def __init__(self, left_rows, right_rows, residual):
        self.lk, self.lv = E.Attribute("k", IntegerType), E.Attribute("v", IntegerType)
        self.rk, self.rw = E.Attribute("k2", IntegerType), E.Attribute("w", IntegerType)
        self.left_rows, self.right_rows = left_rows, right_rows
        self.residual = E.Comparison("<", self.lv, self.rw) if residual else None

    def left(self):
        return P.LocalScanExec([self.lk, self.lv], self.left_rows, 3)

    def right(self):
        return P.LocalScanExec([self.rk, self.rw], self.right_rows, 2)

    def tagged_bytes(self, rows, side):
        return sum(estimate_size(((r[0],), side, r)) for r in rows)


def run(op, conf=None, cost_model=None):
    """Execute a hand-built tree, its transitions placed as the planner's are."""
    session = SparkSession(HOSTS, conf=conf, cost_model=cost_model)
    result = session.execute_physical(insert_transitions(op))
    return Counter(tuple(r.values) for r in result.rows), result


def check_counted(join, result, nrows=None):
    """One number, three places."""
    scoped = result.metrics.for_op(join.op_id)
    counted = int(result.metrics.get("engine.join.rows_out"))
    assert counted == scoped.get("engine.join.rows_out", 0)
    if nrows is not None:
        assert counted == nrows


@settings(max_examples=60, deadline=None)
@given(left_rows=tables, right_rows=tables, how=st.sampled_from(HOWS),
       residual=st.booleans())
def test_every_strategy_agrees_with_the_nested_loop(left_rows, right_rows, how,
                                                    residual):
    sides = Sides(left_rows, right_rows, residual)
    expected = reference(left_rows, right_rows, how, residual)
    total = sum(expected.values())
    equi = ([sides.lk], [sides.rk], how, sides.residual)

    join = P.BroadcastHashJoinExec(sides.left(), sides.right(), *equi)
    got, result = run(join)
    assert got == expected
    check_counted(join, result, total)

    join = P.ShuffledHashJoinExec(sides.left(), sides.right(), *equi)
    got, result = run(join)
    assert got == expected
    check_counted(join, result, total)

    condition = E.Comparison("=", sides.lk, sides.rk)
    if residual:
        condition = E.And(condition, sides.residual)
    got, result = run(P.BroadcastNestedLoopJoinExec(
        sides.left(), sides.right(), how, condition))
    assert got == expected

    if how in ("inner", "semi"):   # the planner pushes for no other
        distinct = {r[0] for r in right_rows if r[0] is not None}
        for max_keys in (P.SEMIJOIN_MAX_KEYS, 1):
            join = P.ShuffledHashJoinExec(sides.left(), sides.right(), *equi)
            join.push_keys = True
            saved, P.SEMIJOIN_MAX_KEYS = P.SEMIJOIN_MAX_KEYS, max_keys
            try:
                got, result = run(join)
            finally:
                P.SEMIJOIN_MAX_KEYS = saved
            assert got == expected
            check_counted(join, result, total)
            # the keys are shipped only under the cap (no key, no bytes)
            sent = result.metrics.get("engine.broadcast_bytes") > 0
            assert sent == (0 < len(distinct) <= max_keys)

    if how == "inner":
        # what the planner builds when only the left side fits: the sides
        # swap, a projection restores column order, the residual filters
        join = P.BroadcastHashJoinExec(
            sides.right(), sides.left(), [sides.rk], [sides.lk],
            "inner", None)
        swapped = P.ProjectExec([sides.lk, sides.lv, sides.rk, sides.rw], join)
        if residual:
            swapped = P.FilterExec(sides.residual, swapped)
        got, result = run(swapped)
        assert got == expected
        check_counted(join, result, None if residual else total)

    # adaptive: the threshold picks the rule
    left_bytes = sides.tagged_bytes(left_rows, 0)
    right_bytes = sides.tagged_bytes(right_rows, 1)
    for threshold, final in (
        (1 << 30, "BroadcastHashJoin"),
        (left_bytes, "BroadcastHashJoin (build side swapped)"
         if how == "inner" and right_bytes > left_bytes else None),
        (-1, "ShuffledHashJoin"),
    ):
        join = adaptive.AdaptiveJoinExec(sides.left(), sides.right(), *equi)
        got, result = run(join, {"sql.autoBroadcastJoinThreshold": threshold})
        assert got == expected
        check_counted(join, result, total)
        strategy = result.operator_stats[join.op_id]["final_strategy"]
        if final is not None:
            assert strategy.startswith(final), strategy


def test_skew_split_agrees_with_the_nested_loop(monkeypatch):
    """Every reduce partition over the median splits by map output (chunks
    as small as one block), so stream rows meet a duplicated build table."""
    monkeypatch.setattr(adaptive, "SKEW_FACTOR", 0.0)
    monkeypatch.setattr(adaptive, "SKEW_MIN_BYTES", 0)
    cost = dataclasses.replace(DEFAULT_COST_MODEL, task_launch_s=0.0)
    left_rows = [(i % 4 if i % 5 else None, i % 6) for i in range(60)]
    right_rows = [(k, w) for k in (0, 1, 1, 2, None) for w in (1, 4, None)]
    for how in HOWS:
        for residual in (False, True):
            sides = Sides(left_rows, right_rows, residual)
            join = adaptive.AdaptiveJoinExec(
                sides.left(), sides.right(),
                [sides.lk], [sides.rk], how, sides.residual)
            got, result = run(join, {"sql.autoBroadcastJoinThreshold": -1},
                              cost_model=cost)
            expected = reference(left_rows, right_rows, how, residual)
            assert got == expected
            check_counted(join, result, sum(expected.values()))
            assert result.metrics.get("engine.aqe.skew_splits") >= 1.0


# -- build keys reaching an HBase scan ---------------------------------------

FACT = StructType([StructField("k", IntegerType), StructField("v", IntegerType)])
DIM = StructType([StructField("dk", IntegerType), StructField("name", StringType)])


def _options(cluster, table, key, column, ctype, regions, **table_attrs):
    return {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": table, **table_attrs},
            "rowkey": key,
            "columns": {
                key: {"cf": "rowkey", "col": key, "type": "int"},
                column: {"cf": "cf", "col": column, "type": ctype},
            },
        }),
        HBaseTableCatalog.newTable: str(regions),
        "hbase.zookeeper.quorum": cluster.quorum,
    }


def _load_star(cluster, session, analyze=True):
    """A six-region fact table keyed by ``k`` and a two-row dimension, both
    ANALYZEd unless told otherwise."""
    for name, schema, rows, regions in (
        ("fact", FACT, [(i, i * 10) for i in range(600)], 6),
        ("dim", DIM, [(7, "seven"), (8, "eight")], 1),
    ):
        opts = _options(cluster, name, schema.fields[0].name,
                        schema.fields[1].name,
                        "int" if name == "fact" else "string", regions)
        session.create_dataframe(rows, schema).write \
            .format(DEFAULT_FORMAT).options(opts).save()
        session.read.format(DEFAULT_FORMAT).options(opts).load() \
            .create_or_replace_temp_view(name)
        if analyze:
            session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS")
    return cluster, session


@pytest.fixture
def star(linked):
    """The star with broadcast ruled out: the shuffled join pushes its keys."""
    cluster, session = linked
    session.conf["sql.autoBroadcastJoinThreshold"] = 1
    return _load_star(cluster, session)


@pytest.fixture
def broadcast_star(linked):
    """The star at the default threshold: the dimension is broadcast."""
    return _load_star(*linked)


QUERY = "select name, v from fact join dim on k = dk"


FACT_REGIONS, DIM_REGIONS = 6, 1


def _scan(result, op_id):
    """One executed scan's facts and scoped counters, in one dict."""
    return {**result.operator_stats[op_id], **result.metrics.for_op(op_id)}


def _scans_of(result, regions):
    """Every executed scan of the table created with ``regions`` regions."""
    return [_scan(result, op) for op, s in result.operator_stats.items()
            if s.get("regions_total") == regions]


def _scan_stats(result, regions):
    return _scans_of(result, regions)[0]


def test_build_keys_prune_the_probe_scan(star):
    cluster, session = star
    planned = session.plan_query(session.sql(QUERY).plan)
    (join,) = [op for op in planned.physical.walk() if isinstance(op, P.HashJoinExec)]
    assert type(join) is P.ShuffledHashJoinExec and join.push_keys
    result = session.execute_planned(planned)
    assert sorted(tuple(r.values) for r in result.rows) == \
        [("eight", 80), ("seven", 70)]
    assert result.metrics.for_op(join.op_id)["sql.cbo.runtime_keys.pushed"] == 2
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 2.0
    fact = _scan_stats(result, 6)
    assert fact["filters_runtime"] == 1
    # keys 7 and 8 live in one of the six regions: the others are never read
    assert fact["shc.regions_scanned"] == 1 and fact["shc.regions_pruned"] >= 5
    # two build rows and the two probe rows the source let through were tagged
    assert result.metrics.for_op(join.op_id)["engine.vectorized.rows"] == 4
    assert "filters_runtime" not in _scan_stats(result, 1)


def test_executing_a_planned_tree_leaves_it_as_planned(star):
    """The pushed keys belong to one execution: the same planned tree, run
    again after the dimension changed, answers like a fresh plan."""
    cluster, session = star
    planned = session.plan_query(session.sql(QUERY).plan)
    before = planned.physical.pretty()
    first = session.execute_planned(planned)
    assert sorted(r.v for r in first.rows) == [70, 80]

    opts = _options(cluster, "dim", "dk", "name", "string", 1)
    session.create_dataframe([(300, "three hundred")], DIM).write \
        .format(DEFAULT_FORMAT).options(opts).save()

    again = session.execute_planned(planned)
    fresh = session.sql(QUERY).run()
    assert sorted(r.v for r in again.rows) == \
        sorted(r.v for r in fresh.rows) == [70, 80, 3000]
    assert _scan_stats(again, 6)["filters_runtime"] == 1
    assert planned.physical.pretty() == before
    assert not any(hasattr(op, "runtime_filters")
                   for op in planned.physical.walk())


# -- pushed keys and shared builds ---------------------------------------------

UNION = QUERY + " union all " + QUERY


def _joins(physical, how=None):
    return [op for op in physical.walk()
            if isinstance(op, P.BroadcastHashJoinExec) and how in (None, op.how)]


def test_a_broadcast_joins_keys_become_the_probe_scans_ranges(broadcast_star):
    cluster, session = broadcast_star
    planned = session.plan_query(session.sql(QUERY).plan)
    (join,) = _joins(planned.physical)
    assert join.push_keys and join.build_stamp is not None
    result = session.execute_planned(planned)
    assert sorted(tuple(r.values) for r in result.rows) == \
        [("eight", 80), ("seven", 70)]
    assert result.metrics.for_op(join.op_id)["sql.cbo.runtime_keys.pushed"] == 2
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 2.0
    (fact,) = _scans_of(result, FACT_REGIONS)
    # 7 and 8 are neighbours on the row key: one range in one region
    assert (fact["filters_runtime"], fact["scan_ranges"]) == (1, 1)
    assert fact["shc.regions_scanned"] == 1 and fact["shc.regions_pruned"] >= 5
    assert result.metrics.for_op(join.op_id)["engine.vectorized.rows"] == 2   # rows the probe saw
    report = session.sql(QUERY).explain(analyze=True)
    assert "runtime keys: 2 keys -> 1 ranges" in report
    assert "runtime filters: 1 (join build keys)" in report


def test_left_and_anti_joins_never_push(broadcast_star):
    cluster, session = broadcast_star
    fact, dim = session.sql("select * from fact"), session.sql("select * from dim")
    for how, nrows in (("left", 600), ("anti", 598), ("semi", 2), ("inner", 2)):
        frame = fact.join(dim, on=col("k") == col("dk"), how=how)
        planned = session.plan_query(frame.plan)
        (join,) = _joins(planned.physical, how)
        # every probe row of a left or anti join may reach the output
        assert join.push_keys == (how in ("semi", "inner")), how
        result = session.execute_planned(planned)
        assert len(result.rows) == nrows
        (scan,) = _scans_of(result, FACT_REGIONS)
        assert ("filters_runtime" in scan) == join.push_keys


def test_keys_are_not_pushed_where_they_would_skip_nothing(broadcast_star):
    """The pricing rule (docs/optimizer.md): a dimension that holds every
    key of the fact table prunes nothing, so its keys stay home."""
    cluster, session = broadcast_star
    opts = _options(cluster, "dim", "dk", "name", "string", 1)
    session.create_dataframe([(i, "d%d" % i) for i in range(600)], DIM).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    session.sql("ANALYZE TABLE dim COMPUTE STATISTICS")
    planned = session.plan_query(session.sql(QUERY).plan)
    (join,) = _joins(planned.physical)
    assert not join.push_keys
    result = session.execute_planned(planned)
    assert len(result.rows) == 600
    assert result.metrics.get("sql.cbo.runtime_keys.pushed") == 0.0


def test_without_statistics_builds_are_shared_and_keys_stay_home(linked):
    """Sharing an equal build is not a cost decision (Spark's
    ``ReuseExchange``): it needs no statistics.  Pushing keys is one, and
    stays off."""
    cluster, session = _load_star(*linked, analyze=False)
    planned = session.plan_query(session.sql(UNION).plan)
    first, second = _joins(planned.physical)
    assert first.build_stamp == second.build_stamp is not None
    assert not first.push_keys and not second.push_keys
    result = session.execute_planned(planned)
    assert sorted(r.v for r in result.rows) == [70, 70, 80, 80]
    assert not [k for k in result.metrics.snapshot() if k.startswith("sql.cbo.")]
    assert len(_scans_of(result, DIM_REGIONS)) == 1
    assert result.metrics.get("engine.broadcast_reuses") == 1.0


def test_an_equal_build_side_is_built_once(broadcast_star):
    cluster, session = broadcast_star
    planned = session.plan_query(session.sql(UNION).plan)
    first, second = _joins(planned.physical)
    assert first.build_stamp == second.build_stamp is not None
    result = session.execute_planned(planned)
    assert sorted(r.v for r in result.rows) == [70, 70, 80, 80]
    # one sub-job, one broadcast: the other join probes the same table
    assert len(_scans_of(result, DIM_REGIONS)) == 1 and len(_scans_of(result, FACT_REGIONS)) == 2
    assert result.metrics.get("engine.broadcast_reuses") == 1.0
    alone = session.sql(QUERY).run()
    assert result.metrics.get("engine.broadcast_bytes") == \
        alone.metrics.get("engine.broadcast_bytes") == \
        result.metrics.get("engine.broadcast_bytes_saved")
    builder, reuser = sorted(
        (first, second),
        key=lambda op: "build_reused_from" in result.operator_stats.get(op.op_id, {}))
    assert result.operator_stats[reuser.op_id]["build_reused_from"] == builder.op_id
    report = session.sql(UNION).explain(analyze=True)
    assert report.count("build: reused from op ") == 1


def test_a_second_execution_of_the_planned_tree_rebuilds(broadcast_star):
    """Nothing outlives its ``ExecContext``: the table a join shared in one
    execution is not there for the next, which sees the dimension's new row."""
    cluster, session = broadcast_star
    planned = session.plan_query(session.sql(UNION).plan)
    first = session.execute_planned(planned)
    opts = _options(cluster, "dim", "dk", "name", "string", 1)
    session.create_dataframe([(300, "three hundred")], DIM).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    again = session.execute_planned(planned)
    assert sorted(r.v for r in first.rows) == [70, 70, 80, 80]
    assert sorted(r.v for r in again.rows) == [70, 70, 80, 80, 3000, 3000]
    for result in (first, again):
        assert len(_scans_of(result, DIM_REGIONS)) == 1
        assert result.metrics.get("engine.broadcast_reuses") == 1.0
    assert not any(hasattr(op, "shared_builds") for op in planned.physical.walk())


def _retried_build_publishes_once(cluster, session):
    injector = FaultInjector(seed=23)
    injector.inject(FAULT_RPC, rate=1.0, times=2)   # the build's first RPCs
    cluster.install_fault_injector(injector)
    session.install_fault_injector(injector)
    result = session.sql(UNION).run()
    assert injector.injected(FAULT_RPC) == 2
    assert sorted(r.v for r in result.rows) == [70, 70, 80, 80]
    assert len(_scans_of(result, DIM_REGIONS)) == 1
    assert result.metrics.get("engine.broadcast_reuses") == 1.0


def test_a_retried_build_sub_job_publishes_once(broadcast_star):
    _retried_build_publishes_once(*broadcast_star)


def test_a_retried_build_sub_job_publishes_once_without_statistics(linked):
    _retried_build_publishes_once(*_load_star(*linked, analyze=False))


def test_equal_build_sides_joined_on_different_columns_share_nothing(linked):
    cluster, session = _load_star(*linked)
    pairs = StructType([StructField("a", IntegerType), StructField("b", IntegerType)])
    session.create_dataframe([(7, 8), (8, 9), (9, 9)], pairs) \
        .create_or_replace_temp_view("pairs")
    session.sql("ANALYZE TABLE pairs COMPUTE STATISTICS")
    sql = ("select v, a, b from fact join pairs on k = a union all "
           "select v, a, b from fact join pairs on k = b")
    planned = session.plan_query(session.sql(sql).plan)
    on_a, on_b = _joins(planned.physical)
    # one subplan, two key positions: two tables
    assert on_a.build_stamp[0] == on_b.build_stamp[0]
    assert on_a.build_stamp != on_b.build_stamp
    result = session.execute_planned(planned)
    assert sorted(tuple(r.values) for r in result.rows) == sorted(
        [(70, 7, 8), (80, 8, 9), (90, 9, 9), (80, 7, 8), (90, 8, 9), (90, 9, 9)])
    assert result.metrics.get("engine.broadcast_reuses") == 0.0


def _fact_scan(session):
    relation = session.sql("select k, v from fact").plan.collect_nodes(
        lambda n: hasattr(n, "relation"))[0]
    return P.DataSourceScanExec(relation.relation, relation.output, [], None, "fact")


def _local(name, rows):
    attrs = [E.Attribute(name, IntegerType), E.Attribute(name + "w", IntegerType)]
    return attrs, P.LocalScanExec(attrs, rows, 2)


def test_keys_travel_down_the_stream_spine_only(broadcast_star):
    """The pushing join finds the probe's scan through the broadcast joins
    below it (their build sides are other tables' rows), and stops at a
    LIMIT, under which a filtered scan would answer a different question."""
    cluster, session = broadcast_star

    def nested(limit):
        scan = _fact_scan(session)
        (ik, __), inner_build = _local("ik", [(i, i) for i in range(0, 600, 2)])
        (ok, __), outer_build = _local("ok", [(8, 0), (9, 0), (10, 0)])
        stream = P.LimitExec(500, scan) if limit else scan
        inner = P.BroadcastHashJoinExec(
            stream, inner_build, [scan.output[0]], [ik], "inner", None)
        outer = P.BroadcastHashJoinExec(
            inner, outer_build, [scan.output[0]], [ok], "inner", None)
        outer.push_keys = True
        planned = insert_transitions(outer)
        assert outer.probe_scan() is (None if limit else scan)
        result = session.execute_physical(planned)
        return scan, result

    scan, result = nested(limit=False)
    assert sorted(r.values[1] for r in result.rows) == [80, 100]
    stats = _scan(result, scan.op_id)
    assert (stats["filters_runtime"], stats["scan_ranges"]) == (1, 1)
    assert stats["shc.regions_scanned"] == 1
    scan, result = nested(limit=True)
    assert sorted(r.values[1] for r in result.rows) == [80, 100]
    assert "filters_runtime" not in result.operator_stats[scan.op_id]


PROBE = StructType([StructField(n, IntegerType) for n in ("k", "n", "v", "c")])
#: ``k`` is a row-key column (never NULL), ``v`` an ordinary one; both draw
#: from the build side's key domain so either can be the join key
probe_tables = st.lists(st.tuples(st.integers(0, 3), keys), min_size=3, max_size=9)


def _probe_relation(session, cluster, coder, rows):
    """``rows`` in a three-region table keyed by ``(k, n)``; ``c`` is never
    NULL, so a row whose ``v`` is NULL still exists."""
    opts = {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": "probe", "tableCoder": coder},
            "rowkey": "k:n",
            "columns": {
                "k": {"cf": "rowkey", "col": "k", "type": "int"},
                "n": {"cf": "rowkey", "col": "n", "type": "int"},
                "v": {"cf": "cf", "col": "v", "type": "int"},
                "c": {"cf": "cf", "col": "c", "type": "int"},
            },
        }),
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe(rows, PROBE).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    return session.read.format(DEFAULT_FORMAT).options(opts).load().plan


@settings(max_examples=60, deadline=None)
@given(probe=probe_tables, build=tables, how=st.sampled_from(("inner", "semi")),
       residual=st.booleans(), on=st.sampled_from(("k", "v")),
       coder=st.sampled_from(("PrimitiveType", "Phoenix")))
def test_pushing_keys_and_sharing_builds_change_no_answer(probe, build, how,
                                                          residual, on, coder):
    """Two metamorphic relations over one generated pair of tables, the
    probe an HBase table with a composite row key: a broadcast or shuffled
    join answers alike whether or not it pushed its keys (onto the leading
    key column they become ranges, onto ``v`` -- NULLs and all -- a
    server-side filter), reading and shuffling no more for it, and two
    joins answer alike whether they share a build or each make their
    own."""
    clock = SimClock()
    cluster = HBaseCluster("referee", HOSTS, clock=clock)
    session = SparkSession(HOSTS, clock=clock)
    relation = _probe_relation(
        session, cluster, coder, [(k, n, v, 1) for n, (k, v) in enumerate(probe)])
    by_name = {a.name: a for a in relation.output}
    # key first, residual operand second: the order ``reference`` reads
    attrs = [by_name[n] for n in ([on] + [c for c in "kvnc" if c != on])]
    left_rows = [tuple(dict(zip("knvc", (k, n, v, 1)))[a.name] for a in attrs)
                 for n, (k, v) in enumerate(probe)]
    rk, rw = E.Attribute("k2", IntegerType), E.Attribute("w", IntegerType)
    condition = E.Comparison("<", attrs[1], rw) if residual else None
    expected = reference(left_rows, build, how, residual)

    def join(push, stamp=None, shuffled=False):
        scan = P.DataSourceScanExec(relation.relation, attrs, [], None, "probe")
        build_side = P.LocalScanExec([rk, rw], build, 2)
        equi = ([attrs[0]], [rk], how, condition)
        if shuffled:
            op = P.ShuffledHashJoinExec(scan, build_side, *equi)
        else:
            op = P.BroadcastHashJoinExec(scan, build_side, *equi)
            op.build_stamp = stamp
        op.push_keys = push
        return scan, op

    def execute(op):
        result = session.execute_physical(insert_transitions(op))
        return Counter(tuple(r.values) for r in result.rows), result

    for shuffled in (False, True):
        answers, metrics = {}, {}
        for push in (False, True):
            scan, op = join(push, shuffled=shuffled)
            answers[push], result = execute(op)
            metrics[push] = result.metrics
            check_counted(op, result, sum(expected.values()))
            stats = _scan(result, scan.op_id)
            assert ("filters_runtime" in stats) == push
            if push and on == "k" and not {r[0] for r in build} - {None}:
                # an empty build is an empty In: zero ranges, nothing read
                assert stats["scan_ranges"] == stats["shc.regions_scanned"] == 0
        assert answers[False] == answers[True] == expected
        for name in ("hbase.rows_returned", "engine.shuffle_write_bytes"):
            assert metrics[True].get(name) <= metrics[False].get(name), name

    doubled = Counter({row: 2 * n for row, n in expected.items()})
    for stamp in (None, ("build", (0,))):
        (__, a), (__, b) = join(True, stamp), join(False, stamp)
        got, result = execute(P.UnionExec(a, b))
        assert got == doubled
        assert result.metrics.get("engine.broadcast_reuses") == \
            (stamp is not None)
    session.shutdown()


def test_keys_on_an_avro_coded_row_key_prune_without_merging(linked):
    """A coder that is not order-preserving still places a key by equality:
    the pushed keys are point reads, none merged with its neighbour."""
    cluster, session = linked
    opts = _options(cluster, "avro_fact", "k", "v", "int", 3, tableCoder="Avro")
    rows = [(i, i * 10) for i in range(-20, 40)]
    session.create_dataframe(rows, FACT).write \
        .format(DEFAULT_FORMAT).options(opts).save()
    relation = session.read.format(DEFAULT_FORMAT).options(opts).load().plan
    (bk, __), build = _local("bk", [(k, 0) for k in (5, 6, 7, 8, -2)] + [(None, 0)])
    answers = []
    for push in (False, True):
        scan = P.DataSourceScanExec(relation.relation, relation.output, [], None, "t")
        op = P.BroadcastHashJoinExec(
            scan, build, [relation.output[0]], [bk], "inner", None)
        op.push_keys = push
        result = session.execute_physical(insert_transitions(op))
        answers.append(sorted(r.values[1] for r in result.rows))
        if push:
            stats = _scan(result, scan.op_id)
            assert stats["scan_ranges"] == 5
            assert stats["shc.regions_scanned"] < stats["regions_total"]
    assert answers[0] == answers[1] == [-20, 50, 60, 70, 80]


# -- a LIMIT is charged for what it pulled -----------------------------------

def test_limit_books_the_rows_it_pulled(session):
    schema = StructType([StructField("a", IntegerType), StructField("b", IntegerType)])
    session.create_dataframe([(i, i % 7) for i in range(5000)], schema) \
        .create_or_replace_temp_view("t")
    full = session.sql("select a, b from t where b > 2").run()
    assert full.metrics.get("engine.rows_processed") == 5000.0
    limited = session.sql("select a, b from t where b > 2 limit 3").run()
    assert len(limited.rows) == 3
    # each of the two scan tasks pulled its first batch and no more
    pulled = limited.metrics.get("engine.vectorized.rows")
    assert 0 < pulled < 5000
    assert limited.metrics.get("engine.rows_processed") == pulled
    assert limited.metrics.get("engine.vectorized.transitions") == 2.0


def test_limit_over_a_join_counts_the_rows_the_join_emitted():
    sides = Sides([(i % 4, i) for i in range(500)], [(k, k) for k in range(4)],
                  residual=False)
    join = P.BroadcastHashJoinExec(sides.left(), sides.right(),
                                   [sides.lk], [sides.rk], "inner", None)
    got, result = run(P.LimitExec(3, join))
    assert sum(got.values()) == 3
    # each of the three probe tasks emitted one row more than the LIMIT
    # keeps before it was closed, and says so
    emitted = int(result.metrics.get("engine.join.rows_out"))
    assert emitted == \
        result.metrics.for_op(join.op_id)["engine.join.rows_out"] == 3 * 4
    assert result.metrics.get("engine.rows_processed") >= emitted


# -- the cost of one probed row -----------------------------------------------

#: Python calls inside ``repro.sql`` + ``repro.engine`` that one more probed
#: row of a broadcast hash join may cost, end to end (scan stage, probe,
#: adapters, projection, result stage).  Measured when the join family
#: became one loop (PR 22): 11.00, what its parent measured (the shuffled
#: join reads 22.00 and the adaptive shuffled join 35.99 the same way); the
#: budget leaves a fifth of headroom.  A helper per row shows up here as +1
#: or more, which the ruler's wall-clock bound is too loose to see -- raise
#: the number only with a measurement that pays for it.
PROBE_CALLS_PER_ROW_BUDGET = 13


def test_marginal_python_calls_per_probed_row():
    """Probe N and 2N local rows against the same small build side and count
    Python ``call`` events in the SQL layer and the engine: their difference
    per row is what a probed row costs, whatever the machine."""
    package = os.path.dirname(repro.__file__)
    counted = tuple(os.path.join(package, part) + os.sep
                    for part in ("sql", "engine"))

    def calls_to_probe(nrows: int) -> int:
        session = SparkSession(HOSTS)
        session.create_dataframe([(i % 8, i) for i in range(nrows)], FACT) \
            .create_or_replace_temp_view("t")
        session.create_dataframe([(k, "d%d" % k) for k in range(8)], DIM) \
            .create_or_replace_temp_view("u")
        frame = session.sql("select v, name from t join u on k = dk")
        assert "BroadcastHashJoin" in frame.explain()
        calls = 0

        def count(frame_, event, arg):
            nonlocal calls
            if event == "call" and frame_.f_code.co_filename.startswith(counted):
                calls += 1

        sys.setprofile(count)
        try:
            joined = frame.collect()
        finally:
            sys.setprofile(None)
        assert len(joined) == nrows
        return calls

    n = 600
    marginal = (calls_to_probe(2 * n) - calls_to_probe(n)) / n
    assert marginal <= PROBE_CALLS_PER_ROW_BUDGET, marginal
