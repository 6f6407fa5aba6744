"""Optimizer equivalence: optimized and unoptimized plans agree on answers.

The optimizer and planner may only change *cost*, never results.  Hypothesis
generates random small tables and random predicate trees; each query runs
through (a) the full optimize-then-plan pipeline and (b) the planner applied
to the raw analyzed plan, and the row sets must match.  The join properties
run once with the default conf (the small side is broadcast) and, with a
broadcast threshold that forces the shuffled path, over the two things that
change how such a join is planned: the adaptive join (``sql.aqe.enabled``) and
ANALYZE statistics (reordering, the runtime key filter).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import SparkSession
from repro.sql import logical as L
from repro.sql.optimizer import optimize
from repro.sql.physical import ExecContext
from repro.sql.planner import Planner
from repro.sql.parser import parse
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
    StructField("v", DoubleType),
])

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.integers(-50, 50), st.none()),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.floats(-10, 10, allow_nan=False), st.none()),
    ),
    max_size=25,
)

comparison = st.builds(
    lambda col, op, val: f"{col} {op} {val}",
    st.sampled_from(["k", "v"]),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(-20, 20),
)
string_predicate = st.builds(
    lambda op, val: f"g {op} '{val}'",
    st.sampled_from(["=", "!=", "<", ">"]),
    st.sampled_from(["a", "b", "c"]),
)
null_check = st.sampled_from(["k is null", "v is not null", "g is not null"])
in_predicate = st.builds(
    lambda vals: f"k in ({', '.join(map(str, vals))})",
    st.lists(st.integers(-20, 20), min_size=1, max_size=4),
)
atom = st.one_of(comparison, string_predicate, null_check, in_predicate)


def combine(children):
    left, op, right, negate = children
    expr = f"({left} {op} {right})"
    return f"not {expr}" if negate else expr


predicate = st.recursive(
    atom,
    lambda inner: st.builds(
        combine,
        st.tuples(inner, st.sampled_from(["and", "or"]), inner, st.booleans()),
    ),
    max_leaves=5,
)


def _null_safe_key(row):
    return tuple((v is None, 0 if v is None else v) for v in row)


def run_both_ways(session, sql_text):
    analyzed = session.analyze(parse(sql_text))

    def execute(plan: L.LogicalPlan, stats=None):
        physical = Planner(session.conf, stats=stats).plan_query(plan)
        ctx = ExecContext(session.new_scheduler(), session.cost, session.conf)
        return sorted(ctx.run_job(physical.execute(ctx)).rows(),
                      key=_null_safe_key)

    stats = session.cbo_stats()  # empty unless the test ran ANALYZE
    return execute(optimize(analyzed, stats=stats), stats), execute(analyzed)


SHUFFLED = {"sql.autoBroadcastJoinThreshold": 1}
#: (session conf, run ANALYZE first?) -- every example runs under each
JOIN_SETUPS = [(None, False)] + [
    (dict(SHUFFLED, **{"sql.aqe.enabled": aqe}), analyze)
    for aqe in (False, True) for analyze in (False, True)
]


def join_session(rows, conf, analyze):
    session = SparkSession(["h1", "h2"], conf=conf)
    session.create_dataframe(rows, SCHEMA).create_or_replace_temp_view("t")
    if analyze:
        session.sql("ANALYZE TABLE t COMPUTE STATISTICS")
    return session


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, where=predicate)
def test_filter_queries_agree(rows, where):
    session = SparkSession(["h1", "h2"])
    session.create_dataframe(rows, SCHEMA).create_or_replace_temp_view("t")
    optimized, raw = run_both_ways(session, f"select k, g, v from t where {where}")
    assert optimized == raw


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy, where=predicate)
def test_aggregate_queries_agree(rows, where):
    session = SparkSession(["h1", "h2"])
    session.create_dataframe(rows, SCHEMA).create_or_replace_temp_view("t")
    sql_text = (
        f"select g, count(*), sum(k), avg(v) from t where {where} group by g"
    )
    optimized, raw = run_both_ways(session, sql_text)
    assert len(optimized) == len(raw)
    for a, b in zip(optimized, raw):
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
        if a[3] is None:
            assert b[3] is None
        else:
            assert a[3] == pytest.approx(b[3])


@settings(max_examples=20, deadline=None)
@given(rows=rows_strategy, inner=predicate)
def test_semi_join_queries_agree(rows, inner):
    sql_text = f"select k, g from t where k in (select k from t where {inner})"
    for conf, analyze in JOIN_SETUPS:
        session = join_session(rows, conf, analyze)
        optimized, raw = run_both_ways(session, sql_text)
        assert optimized == raw, (conf, analyze)


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy, lhs=predicate, rhs=predicate)
def test_join_queries_agree(rows, lhs, rhs):
    sql_text = f"""
        select a.k, b.g from
          (select k, g, v from t where {lhs}) a
          join (select k, g, v from t where {rhs}) b
          on a.k = b.k
    """
    for conf, analyze in JOIN_SETUPS:
        session = join_session(rows, conf, analyze)
        optimized, raw = run_both_ways(session, sql_text)
        assert optimized == raw, (conf, analyze)
