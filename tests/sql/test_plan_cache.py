"""The plan cache's referee (docs/caching.md, "Plan cache").

One relation, checked many ways: a statement served through a warm
session's plan cache -- whatever it hit, missed or pinned -- must be
indistinguishable from the same statement taken through a fresh session
with every phase spelled out (``parse`` -> ``analyze`` -> ``plan_query`` ->
``execute_planned``, which never sees a bind slot).  Indistinguishable means
equal rows, equal simulated seconds, equal per-query counters and an equal
physical plan (attribute ids canonicalised), or the same error.
"""

import os
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.common.faults import (
    FAULT_RPC, FAULT_SCAN_STREAM, FaultInjector, crash_region_server,
)
from repro.hbase.cluster import HBaseCluster
from repro.sql import dbapi
from repro.sql.fingerprint import statement_shape
from repro.sql.parser import parse, tokenize
from repro.sql.types import IntegerType, StringType, StructField, StructType
from repro.workloads import load_tpcds, q38, q39a, q39b
from tests.differential.strategies import CHAOS_READER_OPTIONS, CHAOS_SEEDS

TABLES = ["item", "inventory", "customer", "date_dim"]
_ATTR_ID = re.compile(r"#\d+")


def canonical(text):
    seen = {}
    return _ATTR_ID.sub(
        lambda m: "#%d" % seen.setdefault(m.group(), len(seen)), text)


def outcome(session, query):
    """Everything observable about planning and running ``query`` (an
    analyzed plan or a frame's ``query``) -- or the error it raises."""
    planned = session.plan_query(query)
    result = session.execute_planned(planned)
    return {
        "columns": result.schema.names,
        "rows": [tuple(r.values) for r in result.rows],
        "seconds": result.seconds,
        "metrics": result.metrics.snapshot(),
        "physical": canonical(planned.physical.pretty()),
    }


def cached(session, text, params=()):
    try:
        return outcome(session, session.sql(text, params).query)
    except ReproError as exc:
        return type(exc).__name__, canonical(str(exc))


def uncached(session, text):
    """The referee: every phase called by hand, no cache, no slot."""
    try:
        return outcome(session, session.analyze(parse(text)))
    except ReproError as exc:
        return type(exc).__name__, canonical(str(exc))


def hits(session):
    return session.metrics.get("sql.plancache.hits")


@pytest.fixture(scope="module")
def env():
    return load_tpcds(5, TABLES)


@pytest.fixture(scope="module")
def warm(env):
    """The one warm session every generated statement goes through."""
    return env.new_session()


def connected(environment, tables):
    """``environment`` once each of its ``tables`` has been scanned, so that
    every executor's connection exists in its cluster's cache and no
    statement under test is the one that pays for setting it up."""
    warmup = environment.new_session()
    for table in tables:
        warmup.sql(f"select * from {table}").run()
    return environment


@pytest.fixture(scope="module", autouse=True)
def _module_cluster_warm(env):
    connected(env, TABLES)


def analyzed(environment):
    """``environment`` once every table of it has been ANALYZEd.  The
    statistics persist with the tables, so every later session on it plans
    under them -- never do this to a shared ``env``."""
    analyst = environment.new_session()
    for table in environment.tables:
        analyst.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    return environment


INVENTORY_VIEW = ("CREATE MATERIALIZED VIEW inv_by_date AS SELECT inv_date_sk, "
                  "count(inv_quantity_on_hand) AS skus, sum(inv_quantity_on_hand) "
                  "AS on_hand FROM inventory GROUP BY inv_date_sk")


def viewing(environment):
    """A session of ``environment`` that has adopted its materialized views."""
    session = environment.new_session()
    session.views.hydrate(environment.cluster)
    return session


def afresh(with_statistics, with_a_view):
    """(warm session, referee session factory) for the two ways a cached
    statement is optimized afresh: statistics decide it, or the session has
    a view context.  Each environment is its own copy of the tables, since
    statistics and views persist with a cluster."""
    with_a_view.new_session().sql(INVENTORY_VIEW)
    return [(with_statistics.new_session(), with_statistics.new_session),
            (viewing(with_a_view), lambda: viewing(with_a_view))]


@pytest.fixture(scope="module")
def warm_paths(warm, env):
    """The generated joins' three paths: the plain warm session, then the
    two that optimize afresh."""
    return [(warm, env.new_session)] + afresh(
        analyzed(connected(load_tpcds(5, TABLES), TABLES)),
        connected(load_tpcds(5, TABLES), TABLES))


def agree_twice(session, referee, text):
    """``text`` through ``session`` twice, each time equal to the referee's;
    the second is a text hit when the first was planned."""
    want = uncached(referee(), text)
    first = cached(session, text)
    assert first == want, text
    before = hits(session)
    assert cached(session, text) == want, text
    assert not isinstance(first, dict) or hits(session) == before + 1, text
    return first


# -- generated statements ----------------------------------------------------------
#
# A template is SQL text with typed holes; two value sets fill the same
# template, so both statements have one shape.  Holes: {k} a date_dim key
# (some outside every region), {m} a small int, {f} a float, {s} a quoted
# string (some hold ', ? and --), {n} a small non-negative int.

KEYS = st.integers(2450990, 2452110)
HOLES = {
    "k": KEYS.map(str),
    "m": st.integers(0, 13).map(str),
    "f": st.floats(0, 2452100, allow_nan=False).map(lambda v: repr(round(v, 3))),
    "s": st.sampled_from(["1999-01-01", "2000-02-29", "it's", "why?", "a--b",
                          "", "?", "1999"]).map(
        lambda v: "'" + v.replace("'", "''") + "'"),
    "n": st.integers(0, 12).map(str),
}
ATOMS = st.sampled_from([
    "d_date_sk = {k}", "d_date_sk != {k}", "d_date_sk < {k}", "d_date_sk >= {k}",
    "d_date_sk = -{k}", "d_date_sk > {f}", "d_date_sk <= -{f}",
    "d_date_sk between {k} and {k}", "d_date_sk between {k} + {m} and {k} + 30",
    "d_date_sk in ({k}, {k}, {k})", "d_date_sk not in ({k}, {k})",
    "d_moy = {m}", "d_moy < {m} + {m}", "d_moy in ({m}, {m})", "d_year = {s}",
    "d_date = {s}", "d_date > {s}", "d_date like {s}", "d_moy * {m} > {m}",
    "cast({s} as int) = d_year",
])


def predicate(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(ATOMS)
    joiner = draw(st.sampled_from([" and ", " or "]))
    inner = predicate(draw, depth - 1) + joiner + predicate(draw, depth - 1)
    return "not (" + inner + ")" if draw(st.booleans()) else "(" + inner + ")"


@st.composite
def templates(draw):
    select = draw(st.sampled_from([
        "d_date_sk, d_date, d_moy", "d_date_sk", "d_date_sk + {m}, d_moy",
        "d_moy, {m} as c, d_date_sk"]))
    text = f"select {select} from date_dim where " + predicate(draw)
    if draw(st.booleans()):
        text += " order by 1"
    if draw(st.booleans()):
        text += " limit {n}"
    return text


INV_DATE = "inventory join date_dim on inv_date_sk = d_date_sk"
INV_DATE_ITEM = INV_DATE + " join item on inv_item_sk = i_item_sk"


@st.composite
def join_templates(draw):
    """The joins of the paper's queries, with filter slots: a two-table
    equi-join, q39's self-join of one aggregated join, and q38's INTERSECT
    of DISTINCT joins."""
    shape = draw(st.sampled_from(["join", "self-join", "intersect"]))
    if shape == "join":
        return ("select d_moy, count(*) as c, sum(inv_quantity_on_hand) as q "
                f"from {INV_DATE} where " + predicate(draw)
                + " and inv_quantity_on_hand > {n} group by d_moy order by 1")
    if shape == "self-join":
        def month():
            return ("(select inv_item_sk as i, d_moy, avg(inv_quantity_on_hand) "
                    f"as mean from {INV_DATE_ITEM} where d_moy = {{m}} and "
                    "inv_date_sk between {k} and {k} + 400 "
                    "group by inv_item_sk, d_moy)")
        return (f"select a.i, a.d_moy, a.mean, b.d_moy, b.mean from {month()} a "
                f"join {month()} b on a.i = b.i where a.mean > {{n}} * 20 "
                "order by 1")
    return "select count(*) as hot from (" + " intersect ".join(
        f"select distinct i_category, d_moy from {INV_DATE_ITEM} where "
        + predicate(draw, 1) for __ in range(3)) + ") t"


@st.composite
def template_and_values(draw, templates=templates):
    template = draw(templates())
    holes = re.findall(r"\{(\w)\}", template)
    fill = lambda: [draw(HOLES[h]) for h in holes]
    return template, fill(), fill()


def render(template, values):
    values = iter(values)
    return re.sub(r"\{\w\}", lambda m: next(values), template)


@settings(max_examples=60, deadline=None)
@given(case=template_and_values())
def test_generated_statements_agree_with_the_referee(env, warm, case):
    template, first, second = case
    for values in (first, second):
        text = render(template, values)
        assert cached(warm, text) == uncached(env.new_session(), text), text


@settings(max_examples=25, deadline=None)
@given(case=template_and_values(join_templates))
def test_generated_joins_agree_with_the_referee(warm_paths, case):
    """Through the cache's three paths: a plain warm session, one whose
    tables have statistics and one with a view context."""
    template, first, second = case
    for session, referee in warm_paths:
        for values in (first, second):
            text = render(template, values)
            got = agree_twice(session, referee, text)
        if isinstance(got, dict):  # planned, so taken by the cache
            assert isinstance(session._plan_cache.get(
                statement_shape(tokenize(text))), tuple), text


def test_empty_range_duplicate_keys_and_keys_outside_every_region(env, warm):
    """The corners the generator may or may not reach, pinned."""
    before = hits(warm)
    for text in (
        "select d_date_sk from date_dim where d_date_sk between 2451009 and 2451001",
        "select d_date_sk from date_dim where d_date_sk between 2451001 and 2451009",
        "select d_date_sk from date_dim where d_date_sk in (2451005, 2451005, 2451400)",
        "select d_date_sk from date_dim where d_date_sk in (2451006, 9, 2459999)",
        "select d_date from date_dim where d_date = 'it''s -- not a ? comment'",
        "select d_date from date_dim where d_date = '1999-03-04' -- a ? here",
    ):
        assert cached(warm, text) == uncached(env.new_session(), text), text
    assert hits(warm) - before == 3  # the second of each pair


# -- the benchmark's five shapes ----------------------------------------------------

POINT_LOOKUP_SHAPES = (
    ("select i_item_sk, i_item_id, i_category, i_current_price from item "
     "where i_item_sk = {}", lambda rng: (rng.randint(1, 8),)),
    ("select inv_item_sk, inv_warehouse_sk, inv_quantity_on_hand from "
     "inventory where inv_date_sk = {}",
     lambda rng: (2451000 + 7 * rng.randint(0, 150),)),
    ("select c_customer_sk, c_first_name, c_last_name from customer where "
     "c_customer_sk in ({}, {}, {})",
     lambda rng: [rng.randint(1, 20) + 20 * i for i in range(3)]),
    ("select d_date_sk, d_date, d_moy from date_dim where d_date_sk "
     "between {} and {}",
     lambda rng: (lambda lo: (lo, lo + 30))(2451000 + rng.randint(40, 1000))),
    ("select c_customer_sk, c_customer_id from customer where c_last_name = "
     "'{}' and c_first_name = '{}'",
     lambda rng: (rng.choice(["Smith", "Jones", "O''Neil"]),
                  rng.choice(["Linda", "Karen", "James"]))),
)


@pytest.mark.parametrize("shape", range(len(POINT_LOOKUP_SHAPES)))
def test_point_lookup_shapes_hit_and_agree(env, shape):
    template, draw = POINT_LOOKUP_SHAPES[shape]
    session = env.new_session()
    rng = random.Random(f"plan-cache:{shape}")
    for __ in range(20):
        text = template.format(*draw(rng))
        assert cached(session, text) == uncached(env.new_session(), text), text
    assert session.metrics.get("sql.plancache.misses") == 1
    assert hits(session) == 19


def test_second_execution_enters_the_front_end_for_lexing_only(env):
    """What the cache saves, as a count: on a hit the only Python calls made
    inside parser.py, analyzer.py and optimizer.py are the lexer's -- one
    ``tokenize`` and one ``Token`` per token (the parent commit made about
    820 front-end calls per ``point_lookup`` statement)."""
    front_end = ("sql/parser.py", "sql/analyzer.py", "sql/optimizer.py")
    session = env.new_session()
    for template, draw in POINT_LOOKUP_SHAPES:
        rng = random.Random(template)
        session.sql(template.format(*draw(rng))).run()
        text = template.format(*draw(rng))
        calls = []

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.endswith(front_end):
                calls.append(code.co_name)

        sys.setprofile(profiler)
        try:
            session.sql(text).run()
        finally:
            sys.setprofile(None)
        assert set(calls) == {"tokenize", "__init__"}, calls
        assert len(calls) == 1 + len(tokenize(text))
        assert len(calls) <= 40


# -- the paper's queries --------------------------------------------------------------

PAPER_TABLES = ["inventory", "date_dim", "item", "warehouse", "store_sales",
                "catalog_sales", "web_sales", "customer"]


@pytest.fixture(scope="module")
def paper():
    return connected(load_tpcds(2, PAPER_TABLES), PAPER_TABLES)


@pytest.fixture(scope="module")
def paper_analyzed():
    return analyzed(connected(load_tpcds(2, PAPER_TABLES), PAPER_TABLES))


def test_the_paper_queries_hit_and_agree(paper, paper_analyzed):
    for session, referee in [(paper.new_session(), paper.new_session)] + afresh(
            paper_analyzed, connected(load_tpcds(2, PAPER_TABLES), PAPER_TABLES)):
        for query in (q39a(), q39b(), q38()):
            for __ in range(3):
                assert cached(session, query) == uncached(referee(), query)
        assert (session.metrics.get("sql.plancache.misses"), hits(session)) == (3, 6)


def front_end_calls(run):
    """``run()``'s value, and the (file, function) of every Python call it
    made into parser.py, analyzer.py or optimizer.py."""
    calls = []

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.endswith(
                ("sql/parser.py", "sql/analyzer.py", "sql/optimizer.py")):
            calls.append((os.path.basename(code.co_filename), code.co_name))

    sys.setprofile(profiler)
    try:
        value = run()
    finally:
        sys.setprofile(None)
    return value, calls


def test_a_q39a_hit_is_lexed_only_and_sizes_each_table_once(paper, monkeypatch):
    """What caching a join saves, as counts.  On a hit no Python call lands
    in the analyzer or the optimizer, and the parser is entered only to lex
    (one ``tokenize``, one ``Token`` per token).  The planner, which runs on
    every execution, asks the cluster for each table's size once per pass:
    26 times over q39a's four tables when every join sized its subtrees
    afresh."""
    session = paper.new_session()
    text = q39a()
    session.sql(text).run()
    __, calls = front_end_calls(lambda: session.sql(text).run())
    assert hits(session) == 1
    assert set(calls) == {("parser.py", "tokenize"), ("parser.py", "__init__")}
    assert len(calls) == 1 + len(tokenize(text))

    sized = []
    size_of = HBaseCluster.table_size_bytes
    monkeypatch.setattr(HBaseCluster, "table_size_bytes",
                        lambda cluster, name: sized.append(name)
                        or size_of(cluster, name))
    session.plan_query(session.sql(text).query)
    assert sorted(sized) == ["date_dim", "inventory", "item", "warehouse"]


def test_a_q39a_hit_under_statistics_reoptimizes_but_neither_parses_nor_analyzes(
        paper_analyzed):
    """What caching a join saves once statistics decide it: on a hit no
    Python call lands in the analyzer and the parser is entered only to lex,
    while the optimizer runs again, now with the estimator."""
    session = paper_analyzed.new_session()
    text = q39a()
    session.sql(text).run()
    result, calls = front_end_calls(lambda: session.sql(text).run())
    assert hits(session) == 1
    assert result.metrics.get("sql.cbo.estimates") > 0
    files = [name for name, __ in calls]
    assert "analyzer.py" not in files
    assert {c for c in calls if c[0] == "parser.py"} == {
        ("parser.py", "tokenize"), ("parser.py", "__init__")}
    assert files.count("parser.py") == 1 + len(tokenize(text))
    assert "optimizer.py" in files


# -- parameters ---------------------------------------------------------------------

def test_qmark_parameters_share_the_entry_of_the_literal_text(env):
    session = env.new_session()
    literal = ("select d_date_sk from date_dim where d_date_sk between "
               "2451100 and 2451103 and d_date != 'it''s'")
    qmark = ("select d_date_sk from date_dim where d_date_sk between "
             "? and ? and d_date != ?")
    want = uncached(env.new_session(), literal)
    assert cached(session, literal) == want
    assert cached(session, qmark, (2451100, 2451103, "it's")) == want
    assert hits(session) == 1
    assert cached(session, qmark, (-5, 2451103.5, "?")) == uncached(
        env.new_session(), literal.replace("2451100", "-5")
        .replace("2451103", "2451103.5").replace("it''s", "?"))
    # a float where the entry was made for an int is another statement
    assert hits(session) == 1


def test_limit_and_ordinal_values_are_part_of_the_key(env):
    session = env.new_session()
    template = "select d_date_sk, d_moy from date_dim where d_moy = {} order by {} limit {}"
    for values in ((1, 1, 3), (2, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 4)):
        text = template.format(*values)
        assert cached(session, text) == uncached(env.new_session(), text)
    assert hits(session) == 2  # (2,1,3) after (1,1,3); (3,1,4) after (2,1,4)
    assert session.metrics.get("sql.plancache.pinned") == 3
    report = session.sql(template.format(9, 1, 4)).explain()
    assert report.endswith("== Plan cache ==\nhit, 1 slots; pinned: BY, LIMIT")


def test_two_hits_of_one_entry_join_without_colliding(env):
    session = env.new_session()
    text = "select d_date_sk, d_moy from date_dim where d_date_sk = {}"
    session.sql(text.format(2451001)).run()
    left, right = session.sql(text.format(2451002)), session.sql(text.format(2451003))
    assert hits(session) == 2
    assert not {a.attr_id for a in left.plan.output} & \
        {a.attr_id for a in right.plan.output}
    joined = left.join(right, "d_moy").collect()
    assert [tuple(r.values) for r in joined] == [(2451002, 1, 2451003)]


def test_the_cache_is_bounded(env, monkeypatch):
    from repro.sql import session as session_module

    monkeypatch.setattr(session_module, "PLAN_CACHE_CAPACITY", 4)
    session = env.new_session()
    for width in range(1, 6):  # five shapes, two keys each
        keys = ", ".join(str(2451000 + i) for i in range(width))
        session.sql(f"select d_moy from date_dim where d_date_sk in ({keys})").run()
    assert session.metrics.get("sql.plancache.evictions") == 6
    assert len(session._plan_cache._entries) == 4


# -- what must change the next plan, and what is never cached -------------------------

LOCAL_SCHEMA = StructType([StructField("k", IntegerType), StructField("g", StringType)])


def local_view(session, name, rows):
    session.create_dataframe(rows, LOCAL_SCHEMA).create_or_replace_temp_view(name)


def test_a_replaced_temp_view_is_seen_by_the_next_statement(env):
    session, referee = env.new_session(), env.new_session()
    text = "select g from v where k = 1"
    for rows in ([(1, "old")], [(1, "new"), (1, "newer")]):
        local_view(session, "v", rows)
        local_view(referee, "v", rows)
        assert cached(session, text) == uncached(referee, text)
        assert cached(session, text) == uncached(referee, text)
    assert (session.metrics.get("sql.plancache.misses"), hits(session)) == (2, 2)


def test_a_conf_write_is_seen_by_the_next_statement(env):
    session, referee = env.new_session(), env.new_session()
    local_view(session, "v", [(i, "g") for i in range(8)])
    local_view(referee, "v", [(i, "g") for i in range(8)])
    text = "select k from v where k > 2"
    before = cached(session, text)
    for s in (session, referee):
        s.conf["sql.local.scan.partitions"] = 4
    after = cached(session, text)
    assert after == uncached(referee, text)
    assert after["metrics"]["engine.tasks"] == 4 != before["metrics"]["engine.tasks"]
    assert hits(session) == 0 and cached(session, text) == after


@pytest.mark.parametrize("analyst", ["this session", "a second session"])
def test_a_join_is_cached_until_statistics_decide_its_plan(analyst):
    """A join over tables without statistics is cached like any statement:
    the optimizer reads no size, and the planner, which does, runs on every
    execution.  Once statistics exist -- ANALYZEd in this session, or
    persisted with the tables by another session on the cluster -- they
    decide the join's order, sizes and key filters: a fresh frame and a
    frame made before them both reuse the cached analysis but are
    optimized afresh, and EXPLAIN says so."""
    tables = ["inventory", "date_dim"]
    environment = connected(load_tpcds(2, tables), tables)
    session, referee = environment.new_session(), environment.new_session()
    text = ("select d_moy, count(*) from inventory join date_dim on "
            "inv_date_sk = d_date_sk where d_moy = 3 group by d_moy")
    first = cached(session, text)
    assert first == uncached(referee, text)
    assert cached(session, text) == first and hits(session) == 1
    held = session.sql(text)
    assert hits(session) == 2
    assert not any(name.startswith("sql.cbo.") for name in first["metrics"])
    analysts = [session, referee] if analyst == "this session" \
        else [environment.new_session()]
    for s in analysts:
        s.sql("ANALYZE TABLE inventory COMPUTE STATISTICS")
        s.sql("ANALYZE TABLE date_dim COMPUTE STATISTICS")
    for frame in (session.sql(text), held):
        analyzed = outcome(session, frame.query)
        assert analyzed == uncached(referee, text)
        assert any(name.startswith("sql.cbo.") for name in analyzed["metrics"])
    assert session.sql(text).explain().endswith(
        "== Plan cache ==\nhit, 1 slots; optimized afresh (statistics)")
    assert (session.metrics.get("sql.plancache.misses"), hits(session)) == (1, 4)
    # the two ANALYZE statements, when this session ran them
    assert session.metrics.get("sql.plancache.uncacheable") == \
        {"this session": 2, "a second session": 0}[analyst]


def test_a_materialized_view_answers_the_next_statement_through_its_cached_analysis():
    environment = load_tpcds(2, ["inventory"])
    session = environment.new_session()
    session.sql("select * from inventory").run()  # connections set up
    text = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus FROM "
            "inventory GROUP BY inv_date_sk")
    held = session.sql(text)  # made before the view: carries a cached plan
    base = held.run()
    assert not base.view_events and session.sql(text).run().seconds == base.seconds
    assert hits(session) == 1
    session.sql("CREATE MATERIALIZED VIEW by_date AS SELECT inv_date_sk, "
                "count(inv_quantity_on_hand) AS skus, sum(inv_quantity_on_hand) "
                "AS on_hand FROM inventory GROUP BY inv_date_sk")
    for frame in (session.sql(text), held):
        answered = frame.run()
        assert [e["action"] for e in answered.view_events] == ["rewrites"]
        assert answered.seconds < base.seconds
        assert sorted(map(tuple, answered.rows)) == sorted(map(tuple, base.rows))
    assert session.sql(text).explain().endswith(
        "== Plan cache ==\nhit, 0 slots; optimized afresh (views)")
    assert (session.metrics.get("sql.plancache.misses"), hits(session)) == (2, 3)


def test_a_frame_held_across_analyze_or_a_view_explains_its_fresh_plan():
    """A frame ``sql()`` made before ANALYZE TABLE, or before CREATE
    MATERIALIZED VIEW, is optimized afresh when it is planned -- and its
    EXPLAIN names that, not only what the text lookup did."""
    tables = ["inventory", "date_dim"]
    environment = connected(load_tpcds(2, tables), tables)
    session = environment.new_session()
    join = ("select d_moy, count(*) from inventory join date_dim on "
            "inv_date_sk = d_date_sk where d_moy = 3 group by d_moy")
    aggregate = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus FROM "
                 "inventory GROUP BY inv_date_sk")
    session.sql(join).run()
    held_join, held_aggregate = session.sql(join), session.sql(aggregate)
    analyzed(environment)
    assert held_join.explain().endswith(
        "== Plan cache ==\nhit, 1 slots; optimized afresh (statistics)")
    assert outcome(session, held_join.query) == uncached(
        environment.new_session(), join)
    session.sql(INVENTORY_VIEW)
    assert held_aggregate.explain().endswith(
        "== Plan cache ==\nmiss, 0 slots; optimized afresh (views)")
    assert outcome(session, held_aggregate.query) == uncached(
        viewing(environment), aggregate)


# -- under the pinned chaos seeds ----------------------------------------------------

def _chaos_run(seed, through_the_cache):
    """Forty point statements of two shapes while a region server crashes
    mid-scan and RPCs fail on a pinned schedule.  The cluster's name is part
    of hashed placement and jitter keys, so both runs use one name."""
    environment = load_tpcds(5, ["date_dim"],
                             name=f"tpcds-plan-cache-chaos-{seed}")
    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    injector.inject(FAULT_RPC, rate=0.3, times=5)
    environment.cluster.install_fault_injector(injector)
    session = environment.new_session(extra_options=CHAOS_READER_OPTIONS)
    rng = random.Random(seed)
    log = []
    for i in range(40):
        lo = 2451000 + rng.randint(0, 1000)
        text = f"select d_date_sk, d_date from date_dim where d_date_sk = {lo}" \
            if i % 2 else ("select d_date_sk, d_moy from date_dim where "
                           f"d_date_sk between {lo} and {lo + 90}")
        log.append(cached(session, text) if through_the_cache
                   else uncached(session, text))
    return log, hits(session), injector.injected(FAULT_SCAN_STREAM)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_cached_and_uncached_agree_under_chaos(seed):
    through, cache_hits, crashes = _chaos_run(seed, True)
    spelled_out, no_hits, __ = _chaos_run(seed, False)
    assert through == spelled_out
    assert (cache_hits, no_hits, crashes) == (38, 0, 1)
    assert sum(o["metrics"].get("hbase.retries", 0) for o in through) >= 1
