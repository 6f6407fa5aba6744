"""Every "feature dormant is the seed" contract, as one table of relations.

Each example draws an HBase table -- a row coder, a single or composite row
key, NULL-heavy rows with duplicate join and group keys, one to four
regions -- and runs a filtered scan, a GROUP BY and a self-join on it, once
as the seed (a default session) and once per *variant* in the table below.
A row ``(name, variant, level)`` says how the variant's results relate to
the seed's (or to another base the row names):

- ``ledger``: rows in order, ``repr(seconds)`` and every counter equal, and
  no counter under the feature's prefixes in the variant's query or
  cluster registries.  A variant that *is* its base checks only the
  prefixes: the feature is off by default.
- ``answers``: equal as multisets.  Each such row also runs once under the
  pinned chaos schedule, whose region-server crash must fire.
- ``ordered``: equal in order.

A row may add checks of its own (a counter the feature must report, facts
that appear exactly when routing engaged).  Two rows run on fixed inputs
after the table: ANALYZE's pinned TPC-DS join and the hash-seed ledger.
"""

import os
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common.faults import FAULT_SCAN_STREAM
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseSparkConf
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cluster import HBaseCluster
from repro.sql.session import SparkSession
from repro.workloads import load_tpcds
from tests.differential.strategies import (
    CHAOS_READER_OPTIONS,
    CHAOS_SEEDS,
    CODERS,
    chaos_injector,
    drawn_tables,
    hbase_table,
    rows,
)

HOSTS = ["node1", "node2", "node3"]

#: grouped by a column that is never NULL: a materialized view keys its rows
#: by the group, and a NULL group key has no row key to live under
GROUP_SQL = ("SELECT c, count(*) AS cnt, count(g) AS ng, sum(v) AS sv, "
             "min(v) AS lo FROM t GROUP BY c")


def statements(table):
    return {
        "scan": f"SELECT * FROM t WHERE {table.where}",
        "group": GROUP_SQL,
        # a selective build side, so an ANALYZEd join pushes its keys
        "join": "SELECT a.k, a.v, b.k AS bk, b.v AS bv FROM t a JOIN t b "
                "ON a.k = b.g WHERE b.v < 2",
    }


def run(session, text):
    return session.sql(text).run()


#: how one run departs from the seed's: session conf and reader options (as
#: pairs), replicas placed per region once the table is written, what the
#: session does before the statements, how it runs each one, and whether
#: under the pinned chaos schedule
Side = namedtuple("Side", "conf options replicas setup execute chaos",
                  defaults=((), (), 0, None, run, False))
SEED = Side()
Outcome = namedtuple("Outcome", "results cluster_metrics cdc crashes")


def play(table, side):
    clock = SimClock()
    cluster = HBaseCluster("relations", HOSTS, clock=clock)
    loader = SparkSession(HOSTS, executors_requested=3, clock=clock)
    options = hbase_table(loader, cluster, "t", table.schema, table.rows,
                          table.key, table.coder, table.regions)
    if side.replicas:
        cluster.enable_region_replication(replicas=side.replicas)
    session = SparkSession(HOSTS, executors_requested=3, clock=clock,
                           conf=dict(side.conf) or None)
    options.update(side.options, **(CHAOS_READER_OPTIONS if side.chaos else {}))
    session.read.format(DEFAULT_FORMAT).options(options).load() \
        .create_or_replace_temp_view("t")
    if side.setup is not None:
        side.setup(session, cluster)
    injector = chaos_injector(CHAOS_SEEDS[0]) if side.chaos else None
    cluster.install_fault_injector(injector)
    session.install_fault_injector(injector)
    results = {name: side.execute(session, text)
               for name, text in statements(table).items()}
    return Outcome(results, dict(cluster.metrics.snapshot()), cluster.cdc,
                   injector.injected(FAULT_SCAN_STREAM) if injector else 0.0)


def answers(result):
    """A result's rows as a multiset (NULLs do not sort)."""
    return Counter(rows(result))


def assert_level(level, base, variant, prefixes=(), registries=()):
    for name, want in base.items():
        got = variant[name]
        if level == "answers":
            assert answers(got) == answers(want), name
            continue
        assert rows(got) == rows(want), name
        if level == "ledger":
            assert repr(got.seconds) == repr(want.seconds), name
            assert dict(got.metrics.snapshot()) == dict(want.metrics.snapshot()), name
    for registry in [r.metrics.snapshot() for r in variant.values()] + list(registries):
        leaked = [key for key in registry if key.startswith(prefixes)]
        assert not leaked, leaked


# -- what a variant does first, and what its feature must also report -------------

def analyze(session, cluster):
    session.sql("ANALYZE TABLE t COMPUTE STATISTICS")


def show_views(session, cluster):
    session.sql("SHOW MATERIALIZED VIEWS").run()


def materialize(session, cluster):
    session.sql(f"CREATE MATERIALIZED VIEW t_by_c AS {GROUP_SQL}").run()
    cluster.run_maintenance()


def served(session, text):
    return session.execute_plan(session.sql(text).plan, slots=None, queued_s=0.0)


def no_reopt(outcome):
    assert all(not r.reopt_events for r in outcome.results.values())


def aqe_materialized(outcome):
    assert outcome.results["join"].metrics.get("engine.aqe.stages_materialized") >= 1


def estimated(outcome):
    """Estimates, and the join's build keys pushed to its probe scan."""
    join = outcome.results["join"]
    assert join.metrics.get("sql.cbo.estimates") >= 1
    assert any("filters_runtime" in facts for facts in join.operator_stats.values())


def routed(engaged):
    """Replica routing facts on every scan exactly when routing engaged."""
    def check(outcome):
        reads = sum(r.metrics.get("hbase.replica.reads")
                    for r in outcome.results.values())
        assert (reads >= 1) == engaged
        for result in outcome.results.values():
            for facts in result.operator_stats.values():
                if "regions_total" in facts:
                    assert ("replica_scans" in facts) == engaged, facts
    return check


def primary_only(outcome):
    for result in outcome.results.values():
        assert result.metrics.get("hbase.replica.reads") == 0
        assert result.metrics.get("hbase.replica.primary_fallbacks") == \
            result.metrics.get("shc.regions_scanned")


def no_views(outcome):
    assert all(r.view_events == [] for r in outcome.results.values())
    assert outcome.cdc is None


def rewritten(outcome):
    actions = {name: [e["action"] for e in r.view_events]
               for name, r in outcome.results.items()}
    assert actions == {"scan": [], "group": ["rewrites"], "join": []}


def shc_off(key):
    """A reader option that turns one of SHC's scan optimizations off."""
    return Side(options=((key, "false"),))


REPLICA_ON = ("hbase.read.replica", True)
STALENESS_60 = ("hbase.read.replica.staleness", 60)
SHUFFLED = ("sql.autoBroadcastJoinThreshold", 1)

#: ``prefixes`` name the feature's counters, which a ``ledger`` row forbids
Relation = namedtuple("Relation", "name variant level prefixes check base",
                      defaults=((), None, SEED))
RELATIONS = [
    # SHC's scan optimizations (section VI.A) change how much is read, never
    # what is answered
    Relation("no partition pruning answers as the seed",
             shc_off(HBaseSparkConf.PRUNING), "answers"),
    Relation("no filter pushdown answers as the seed",
             shc_off(HBaseSparkConf.PUSHDOWN), "answers"),
    Relation("no operator fusion answers as the seed",
             shc_off(HBaseSparkConf.FUSION), "answers"),
    # the seed broadcasts its join; a shuffled one is where AQE would engage
    Relation("aqe is off by default", Side(conf=(SHUFFLED,)), "ledger",
             ("engine.aqe.",), no_reopt, base=Side(conf=(SHUFFLED,))),
    Relation("aqe on answers as aqe off",
             Side(conf=(("sql.aqe.enabled", True), SHUFFLED)), "answers",
             check=aqe_materialized),
    Relation("no cbo without ANALYZE", SEED, "ledger", ("sql.cbo.",)),
    Relation("ANALYZEd answers as un-ANALYZEd",
             Side(conf=(SHUFFLED,), setup=analyze), "answers", check=estimated),
    Relation("the replica flag on an unreplicated cluster is the seed",
             Side(conf=(REPLICA_ON,)), "ledger", ("hbase.replica.",), routed(False)),
    Relation("a replicated cluster without the flag is the seed",
             Side(replicas=1), "ledger", ("hbase.replica.",)),
    Relation("replica reads answer as primary reads",
             Side(conf=(REPLICA_ON, STALENESS_60), replicas=1), "answers",
             check=routed(True)),
    Relation("a read option turns replica reads on",
             Side(conf=(("hbase.read.replica", False), STALENESS_60),
                  options=(("hbase.read.replica", "true"),), replicas=1),
             "answers", check=routed(True)),
    Relation("a read option turns replica reads off",
             Side(conf=(REPLICA_ON, STALENESS_60),
                  options=(("hbase.read.replica", "false"),), replicas=1),
             "answers", check=routed(False)),
    Relation("staleness 0 reads primaries in the seed's order",
             Side(conf=(REPLICA_ON, ("hbase.read.replica.staleness", 0)), replicas=1),
             "ordered", check=primary_only),
    Relation("serving defaults are the seed", Side(execute=served), "ledger"),
    Relation("a view manager without views is the seed", Side(setup=show_views),
             "ledger", ("sql.view.", "hbase.cdc."), no_views),
    Relation("a view-rewritten query answers as its base query",
             Side(setup=materialize), "answers", check=rewritten),
]


def hold(relation, play_side):
    base, outcome = play_side(relation.base), play_side(relation.variant)
    # a cluster that replicates bills its replication to its own registry
    registries = [] if relation.variant.replicas else [outcome.cluster_metrics]
    assert_level(relation.level, base.results, outcome.results,
                 relation.prefixes, registries)
    if relation.check is not None:
        relation.check(outcome)
    if relation.level == "answers":
        chaos = play_side(relation.variant._replace(chaos=True))
        assert_level("answers", base.results, chaos.results)
        assert chaos.crashes == 1


@pytest.mark.parametrize("composite", [False, True], ids=["key", "composite_key"])
@pytest.mark.parametrize("coder", CODERS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_every_relation_holds_on_a_drawn_table(coder, composite, data):
    table = data.draw(drawn_tables(coder, composite), label="table")
    played = {}

    def play_side(side):
        if side not in played:
            played[side] = play(table, side)
        return played[side]

    for relation in RELATIONS:
        try:
            hold(relation, play_side)
        except AssertionError as failure:
            raise AssertionError(f"{relation.name}: {failure}") from failure


# -- rows on fixed inputs --------------------------------------------------------

def test_analyze_pushes_a_selective_joins_keys_to_the_fact_scan():
    """The ANALYZE row on TPC-DS, pinned: the shuffled join's two build
    keys reach the ``store_sales`` scan."""
    def run_tpcds(conf, analyzed):
        session = load_tpcds(2, ["store_sales", "item"]).new_session(conf=conf)
        for table in analyzed:
            session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
        return {"join": run(session, "SELECT i.i_category, sum(ss.ss_quantity) AS q "
                            "FROM store_sales ss JOIN item i ON ss.ss_item_sk = "
                            "i.i_item_sk WHERE i.i_item_sk < 3 GROUP BY i.i_category")}

    seed = run_tpcds(None, ())
    analyzed = run_tpcds(dict([SHUFFLED]), ("store_sales", "item"))
    assert_level("answers", seed, analyzed)
    assert analyzed["join"].metrics.get("sql.cbo.estimates") >= 1
    assert analyzed["join"].metrics.get("sql.cbo.runtime_keys.pushed") == 2


HASH_SEED_RUN = """
from repro.workloads import load_tpcds, q38, q39a
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES
for tables, query in ((Q39_TABLES, q39a), (Q38_TABLES, q38)):
    result = load_tpcds(2, tables).new_session().sql(query()).run()
    print([tuple(r.values) for r in result.rows])
    print(repr(result.seconds), sorted(result.metrics.snapshot().items()))
"""


def test_the_ledger_does_not_depend_on_the_hash_seed():
    """The ``ledger`` row for q39a and q38 at 2 GB under ``PYTHONHASHSEED``
    0 and 1: equal rows, ``repr(seconds)`` and counters, line for line."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    runs = [subprocess.Popen(
        [sys.executable, "-c", HASH_SEED_RUN], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        for seed in ("0", "1")]
    outputs = [process.communicate()[0] for process in runs]
    assert all(process.returncode == 0 for process in runs)
    assert outputs[0].count("\n") == 4
    assert outputs[0] == outputs[1]
