"""Plan fingerprinting: the broadcast build stamp's key must be canonical."""

from repro.sql.fingerprint import plan_fingerprint
from repro.sql.types import IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
])

ROWS = [(1, "a"), (2, "b"), (3, "c")]


def df(session, rows=None):
    return session.create_dataframe(rows if rows is not None else ROWS, SCHEMA)


def test_identical_plans_share_a_fingerprint(session):
    a = df(session).filter("k > 1").select("k")
    b = df(session).filter("k > 1").select("k")
    assert plan_fingerprint(a.plan) == plan_fingerprint(b.plan)


def test_fresh_attribute_ids_do_not_change_the_fingerprint(session):
    """Every analysis pass mints new attr ids; the key must not care."""
    session.create_dataframe(ROWS, SCHEMA).create_or_replace_temp_view("t")
    a = session.sql("SELECT k FROM t WHERE k > 1")
    b = session.sql("SELECT k FROM t WHERE k > 1")
    assert a.plan.output[0].attr_id != b.plan.output[0].attr_id
    assert plan_fingerprint(a.plan) == plan_fingerprint(b.plan)


def test_different_predicates_differ(session):
    a = df(session).filter("k > 1")
    b = df(session).filter("k > 2")
    assert plan_fingerprint(a.plan) != plan_fingerprint(b.plan)


def test_different_projections_differ(session):
    a = df(session).select("k")
    b = df(session).select("g")
    assert plan_fingerprint(a.plan) != plan_fingerprint(b.plan)


def test_local_relation_identity_is_its_rows(session):
    a = df(session, [(1, "a")])
    b = df(session, [(1, "a")])
    c = df(session, [(2, "z")])
    assert plan_fingerprint(a.plan) == plan_fingerprint(b.plan)
    assert plan_fingerprint(a.plan) != plan_fingerprint(c.plan)


def test_hbase_relation_identity_is_durable(linked):
    """Two sessions reading the same physical table share the key; the
    fingerprint survives re-analysis because identity comes from quorum +
    qualified table name + options, not object ids."""
    from repro.core.relation import DEFAULT_FORMAT
    from repro.sql.session import SparkSession
    from tests.differential.strategies import hbase_table

    cluster, session = linked
    write_schema = StructType([
        StructField("key", IntegerType), StructField("v", StringType)])
    read_options = hbase_table(session, cluster, "fp_t", write_schema,
                               [(1, "x"), (2, "y")], ("key",), regions=2)
    df_a = session.read.format(DEFAULT_FORMAT).options(read_options).load()
    other = SparkSession(["node1", "node2", "node3"], clock=cluster.clock)
    df_b = other.read.format(DEFAULT_FORMAT).options(read_options).load()
    assert plan_fingerprint(df_a.plan) == plan_fingerprint(df_b.plan)

    # a filter on top changes the plan, equally in both sessions
    fa = df_a.filter("key > 1")
    fb = df_b.filter("key > 1")
    assert plan_fingerprint(fa.plan) == plan_fingerprint(fb.plan)
    assert plan_fingerprint(fa.plan) != plan_fingerprint(df_a.plan)
