"""Randomized pushdown/pruning correctness against an HBase-backed table.

The ultimate safety property of the whole connector: for ANY predicate, the
rows SHC returns (after pruning, pushdown and the engine's residual filter)
equal the rows of a reference evaluation over the full dataset -- and equal
what the no-optimization baseline returns.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import BASELINE_FORMAT
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cluster import HBaseCluster
from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("ts", IntegerType),
    StructField("uid", IntegerType),
    StructField("tag", StringType),
    StructField("score", DoubleType),
])


def make_catalog(coder):
    return json.dumps({
        "table": {"namespace": "default", "name": "events", "tableCoder": coder},
        "rowkey": "ts:uid",
        "columns": {
            "ts": {"cf": "rowkey", "col": "ts", "type": "int",
                   **({"length": 10} if coder == "Avro" else {})},
            "uid": {"cf": "rowkey", "col": "uid", "type": "int",
                    **({"length": 10} if coder == "Avro" else {})},
            "tag": {"cf": "cf1", "col": "tag", "type": "string"},
            "score": {"cf": "cf2", "col": "score", "type": "double"},
        },
    })


ROWS = [
    (ts, uid, "t%d" % (abs(ts) % 3), round(ts * 0.7 - uid, 1))
    for ts in range(-12, 13, 3)
    for uid in (1, 2)
]

#: a single-dimension row key: ``k = <literal>`` alone is a full-key
#: equality, so the scan plans point Gets without the allDimensions extension
SINGLE_SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("tag", StringType),
    StructField("score", DoubleType),
])
SINGLE_ROWS = [(k, "t%d" % (k % 3), float(k)) for k in range(20)]


def make_single_catalog(coder):
    return json.dumps({
        "table": {"namespace": "default", "name": "single", "tableCoder": coder},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int",
                  **({"length": 10} if coder == "Avro" else {})},
            "tag": {"cf": "cf1", "col": "tag", "type": "string"},
            "score": {"cf": "cf2", "col": "score", "type": "double"},
        },
    })


def predicates(key_columns):
    """Random predicate trees over ``key_columns`` + ``score`` + ``tag``."""
    comparison = st.builds(
        lambda col, op, val: f"{col} {op} {val}",
        st.sampled_from(key_columns + ["score"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(-12, 12),
    )
    tag_predicate = st.builds(
        lambda op, val: f"tag {op} '{val}'",
        st.sampled_from(["=", "!="]),
        st.sampled_from(["t0", "t1", "t2"]),
    )
    in_predicate = st.builds(
        lambda col, vals: f"{col} in ({', '.join(map(str, vals))})",
        st.sampled_from(key_columns),
        st.lists(st.integers(-12, 12), min_size=1, max_size=3),
    )
    return st.recursive(
        st.one_of(comparison, tag_predicate, in_predicate),
        lambda inner: st.builds(
            lambda l, op, r, neg: (f"not ({l} {op} {r})" if neg
                                   else f"({l} {op} {r})"),
            inner, st.sampled_from(["and", "or"]), inner, st.booleans(),
        ),
        max_leaves=4,
    )


predicate = predicates(["ts", "uid"])
single_predicate = predicates(["k"])


@pytest.fixture(scope="module", params=["PrimitiveType", "Phoenix", "Avro"])
def loaded(request):
    coder = request.param
    cluster = HBaseCluster("prop", ["h1", "h2", "h3"])
    session = SparkSession(["h1", "h2", "h3"], clock=cluster.clock)
    options = {
        HBaseTableCatalog.tableCatalog: make_catalog(coder),
        HBaseTableCatalog.newTable: "4",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe(ROWS, SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    single = dict(options)
    single[HBaseTableCatalog.tableCatalog] = make_single_catalog(coder)
    session.create_dataframe(SINGLE_ROWS, SINGLE_SCHEMA).write \
        .format(DEFAULT_FORMAT).options(single).save()
    return cluster, session, options, coder


def reference(where, schema=SCHEMA, rows=ROWS):
    from repro.sql import expressions as E
    from repro.sql.columnar import compile_row
    from repro.sql.parser import parse_expression

    attrs = [E.Attribute(f.name, f.dtype) for f in schema]
    mapping = {a.name: a for a in attrs}
    keep = compile_row(E.bind_expression(
        parse_expression(where).transform(
            lambda n: mapping[n.name]
            if isinstance(n, E.UnresolvedAttribute) else None
        ),
        attrs,
    ))
    return sorted(r for r in rows if keep(r) is True)


@settings(max_examples=40, deadline=None)
@given(where=predicate)
def test_any_predicate_matches_reference(loaded, where):
    cluster, session, options, coder = loaded
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    got = sorted(map(tuple, df.filter(where).collect()))
    assert got == reference(where), where


@settings(max_examples=40, deadline=None)
@given(where=single_predicate)
# a point Get must apply the pushed value filter, not just fetch the row
@example(where="k = 5 and tag = 't1'")
@example(where="k = 5 and score > 100")
def test_any_predicate_matches_reference_on_a_single_key(loaded, where):
    cluster, session, options, coder = loaded
    single = dict(options)
    single[HBaseTableCatalog.tableCatalog] = make_single_catalog(coder)
    df = session.read.format(DEFAULT_FORMAT).options(single).load()
    got = sorted(map(tuple, df.filter(where).collect()))
    assert got == reference(where, SINGLE_SCHEMA, SINGLE_ROWS), where


@settings(max_examples=25, deadline=None)
@given(where=predicate)
@example(where="(uid = 1 and (ts = 0 and tag = 't1'))")
def test_all_dimension_pruning_preserves_answers(loaded, where):
    """The future-work extension must stay exact under arbitrary predicates."""
    from repro.core.catalog import HBaseSparkConf

    cluster, session, options, coder = loaded
    extended = dict(options)
    extended[HBaseSparkConf.PRUNE_ALL_DIMENSIONS] = "true"
    df = session.read.format(DEFAULT_FORMAT).options(extended).load()
    got = sorted(map(tuple, df.filter(where).collect()))
    assert got == reference(where), where


@settings(max_examples=15, deadline=None)
@given(where=predicate)
def test_shc_agrees_with_baseline(loaded, where):
    cluster, session, options, coder = loaded
    if coder != "PrimitiveType":
        return  # the baseline only reads the native coding
    shc = session.read.format(DEFAULT_FORMAT).options(options).load()
    base = session.read.format(BASELINE_FORMAT).options(options).load()
    assert sorted(map(tuple, shc.filter(where).collect())) == \
        sorted(map(tuple, base.filter(where).collect()))
