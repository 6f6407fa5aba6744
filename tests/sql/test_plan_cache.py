"""The plan cache's referee (docs/caching.md, "Plan cache").

One relation, checked many ways: a statement served through a warm
session's plan cache -- whatever it hit, missed or pinned -- must be
indistinguishable from the same statement taken through a fresh session
with every phase spelled out (``parse`` -> ``analyze`` -> ``plan_query`` ->
``execute_planned``, which never sees a bind slot).  Indistinguishable means
equal rows, equal simulated seconds, equal per-query counters and an equal
physical plan (attribute ids canonicalised), or the same error.
"""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.common.faults import (
    FAULT_RPC, FAULT_SCAN_STREAM, FaultInjector, crash_region_server,
)
from repro.core.catalog import HBaseSparkConf
from repro.sql import dbapi
from repro.sql.parser import parse, tokenize
from repro.sql.types import IntegerType, StringType, StructField, StructType
from repro.workloads import load_tpcds

TABLES = ["item", "inventory", "customer", "date_dim"]
CHAOS_SEEDS = (101, 202, 303)
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


@pytest.fixture(scope="module", autouse=True)
def _module_cluster_warm(env):
    """Scan each table once, so that every executor's connection exists in
    the module cluster's cache and no statement under test is the one that
    pays for setting it up."""
    warmup = env.new_session()
    for table in TABLES:
        warmup.sql(f"select * from {table}").run()


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


@st.composite
def templates(draw):
    def predicate(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(ATOMS)
        joiner = draw(st.sampled_from([" and ", " or "]))
        inner = predicate(depth - 1) + joiner + predicate(depth - 1)
        return "not (" + inner + ")" if draw(st.booleans()) else "(" + inner + ")"

    select = draw(st.sampled_from([
        "d_date_sk, d_date, d_moy", "d_date_sk", "d_date_sk + {m}, d_moy",
        "d_moy, {m} as c, d_date_sk"]))
    text = f"select {select} from date_dim where " + predicate(2)
    if draw(st.booleans()):
        text += " order by 1"
    if draw(st.booleans()):
        text += " limit {n}"
    return text


@st.composite
def template_and_values(draw):
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


def test_a_join_is_never_cached_and_analyze_changes_its_plan(env):
    session, referee = env.new_session(), env.new_session()
    text = ("select d_moy, count(*) from inventory join date_dim on "
            "inv_date_sk = d_date_sk where d_moy = 3 group by d_moy")
    assert cached(session, text) == uncached(referee, text)
    for s in (session, referee):
        s.sql("ANALYZE TABLE inventory COMPUTE STATISTICS")
        s.sql("ANALYZE TABLE date_dim COMPUTE STATISTICS")
    analyzed = cached(session, text)
    assert analyzed == uncached(referee, text)
    assert any(name.startswith("sql.cbo.") for name in analyzed["metrics"])
    assert session.sql(text).explain().endswith("== Plan cache ==\nmiss (join)")
    assert session.metrics.get("sql.plancache.misses") == 0 == hits(session)
    assert session.metrics.get("sql.plancache.uncacheable") == 5


def test_a_materialized_view_answers_the_next_statement_and_is_never_cached():
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
    assert session.sql(text).explain().endswith("miss (view context)")
    assert hits(session) == 1


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
    session = environment.new_session(
        extra_options={HBaseSparkConf.CACHED_ROWS: "40"})
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
