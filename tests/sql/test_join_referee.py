"""A referee for the join family: every strategy against a nested loop.

One generated pair of tables (NULL and duplicate keys on both sides) runs
through every way the engine can join them -- broadcast, the planner's
swapped broadcast, shuffled, semi-join-reduced (and its runtime abort),
adaptive settling on broadcast / swapped broadcast / the skew-split
shuffle, and the nested loop -- for each join type, with and without a
residual, and must agree as a multiset with a reference written here.
Every hash-join strategy must also report its output three times over
with one number: ``engine.join.rows_out``, the operator's ``rows_out``
and the rows themselves.

The second half covers what the build side's keys do to an HBase scan
(``filters_runtime``, ``semijoin_scan_filters``, regions pruned) and the
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
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.engine.shuffle import estimate_size
from repro.sql import adaptive, physical as P
from repro.sql import expressions as E
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType
from repro.sql.vectorized import adapt

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
    """Both inputs as fresh scan stages over the same attributes."""

    def __init__(self, left_rows, right_rows, residual):
        self.lk, self.lv = E.Attribute("k", IntegerType), E.Attribute("v", IntegerType)
        self.rk, self.rw = E.Attribute("k2", IntegerType), E.Attribute("w", IntegerType)
        self.left_rows, self.right_rows = left_rows, right_rows
        self.residual = E.Comparison("<", self.lv, self.rw) if residual else None

    def left(self, columnar):
        return adapt(P.WholeStageExec(
            P.LocalScanExec([self.lk, self.lv], self.left_rows, 3)), columnar)

    def right(self, columnar):
        return adapt(P.WholeStageExec(
            P.LocalScanExec([self.rk, self.rw], self.right_rows, 2)), columnar)

    def tagged_bytes(self, rows, side):
        return sum(estimate_size(((r[0],), side, r)) for r in rows)


def run(op, conf=None, cost_model=None):
    session = SparkSession(HOSTS, conf=conf, cost_model=cost_model)
    result = session.execute_physical(adapt(op, False))
    return Counter(tuple(r.values) for r in result.rows), result


def check_counted(join, result, nrows=None):
    """One number, three places."""
    stats = result.operator_stats.get(join.op_id, {})
    counted = int(result.metrics.get("engine.join.rows_out"))
    assert counted == stats.get("rows_out", 0)
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

    join = P.BroadcastHashJoinExec(sides.left(True), sides.right(False), *equi)
    got, result = run(join)
    assert got == expected
    check_counted(join, result, total)

    join = P.ShuffledHashJoinExec(sides.left(True), sides.right(True), *equi)
    got, result = run(join)
    assert got == expected
    check_counted(join, result, total)

    condition = E.Comparison("=", sides.lk, sides.rk)
    if residual:
        condition = E.And(condition, sides.residual)
    got, result = run(P.BroadcastNestedLoopJoinExec(
        sides.left(False), sides.right(False), how, condition))
    assert got == expected

    if how in ("inner", "semi"):   # the planner offers the reduction no other
        for max_keys in (P.SEMIJOIN_MAX_KEYS, 1):
            join = P.SemiJoinReducedJoinExec(
                sides.left(False), sides.right(False), *equi)
            saved, P.SEMIJOIN_MAX_KEYS = P.SEMIJOIN_MAX_KEYS, max_keys
            try:
                got, result = run(join)
            finally:
                P.SEMIJOIN_MAX_KEYS = saved
            assert got == expected
            check_counted(join, result, total)
            distinct = {r[0] for r in right_rows if r[0] is not None}
            aborted = len(distinct) > max_keys
            assert result.metrics.get("sql.cbo.semijoins_rejected") == aborted

    if how == "inner":
        # what the planner builds when only the left side fits: the sides
        # swap, a projection restores column order, the residual filters
        join = P.BroadcastHashJoinExec(
            sides.right(True), sides.left(False), [sides.rk], [sides.lk],
            "inner", None)
        swapped = P.ProjectExec(
            [sides.lk, sides.lv, sides.rk, sides.rw], adapt(join, True))
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
        join = adaptive.AdaptiveJoinExec(sides.left(False), sides.right(False), *equi)
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
                sides.left(False), sides.right(False),
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


def _options(cluster, table, key, column, ctype, regions):
    return {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": table},
            "rowkey": key,
            "columns": {
                key: {"cf": "rowkey", "col": key, "type": "int"},
                column: {"cf": "cf", "col": column, "type": ctype},
            },
        }),
        HBaseTableCatalog.newTable: str(regions),
        "hbase.zookeeper.quorum": cluster.quorum,
    }


@pytest.fixture
def star(linked):
    """A six-region fact table keyed by ``k`` and a two-row dimension, both
    ANALYZEd, with broadcast ruled out: the planner reduces the join."""
    cluster, session = linked
    session.conf["sql.autoBroadcastJoinThreshold"] = 1
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
        session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS")
    return cluster, session


QUERY = "select name, v from fact join dim on k = dk"


def _scan_stats(result, regions):
    """The scan of the table that was created with ``regions`` regions."""
    return next(s for s in result.operator_stats.values()
                if s.get("regions_total") == regions)


def test_build_keys_prune_the_probe_scan(star):
    cluster, session = star
    result = session.sql(QUERY).run()
    assert sorted(tuple(r.values) for r in result.rows) == \
        [("eight", 80), ("seven", 70)]
    assert result.metrics.get("sql.cbo.semijoins_applied") == 1.0
    join = next(s for s in result.operator_stats.values() if "semijoin_keys" in s)
    assert join["semijoin_keys"] == 2 and join["semijoin_scan_filters"] == 1
    fact = _scan_stats(result, 6)
    assert fact["filters_runtime"] == 1
    # keys 7 and 8 live in one of the six regions: the others are never read
    assert fact["regions_scanned"] == 1 and fact["regions_pruned"] >= 5
    assert join["semijoin_rows_in"] == 2     # the source already dropped the rest
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
    join = P.BroadcastHashJoinExec(sides.left(True), sides.right(False),
                                   [sides.lk], [sides.rk], "inner", None)
    got, result = run(P.LimitExec(3, join))
    assert sum(got.values()) == 3
    # each of the three probe tasks emitted one row more than the LIMIT
    # keeps before it was closed, and says so
    emitted = int(result.metrics.get("engine.join.rows_out"))
    assert emitted == result.operator_stats[join.op_id]["rows_out"] == 3 * 4
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
