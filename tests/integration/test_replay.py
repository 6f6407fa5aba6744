"""Replay referee: a query's cost and report depend only on its environment
and its inputs, never on what ran before it in the same process.

Two runs of one query on one warm cluster, each under a fresh fault
injector with the same seed, must fire the same faults and cost the same
to the last digit; two EXPLAIN ANALYZE reports of one query in one session
must print the same operator ids.  Both hold only if the ids the engine
hands out -- exchanges, operators -- come from the query itself and not
from a process-wide counter.
"""

import re

import pytest

from repro.common.faults import FAULT_SHUFFLE_FETCH, FaultInjector
from repro.workloads import load_tpcds, q39a, q39b
from repro.workloads.tpcds_schema import Q39_TABLES
from tests.test_docs_examples import _masked


@pytest.fixture(scope="module")
def q39_env():
    env = load_tpcds(2, Q39_TABLES)
    env.new_session().sql(q39b()).run()  # warm the cluster's connections
    return env


@pytest.mark.parametrize("seed", (2, 7))
def test_a_faulted_query_replays_on_a_warm_cluster(q39_env, seed):
    """The ``engine.shuffle_fetch`` key names the shuffle by its number in
    the query, so a second run under the same seed fires the same fetches
    and costs the same."""
    session = q39_env.new_session()

    def run():
        injector = FaultInjector(seed=seed)
        injector.inject(FAULT_SHUFFLE_FETCH, rate=0.1)
        session.install_fault_injector(injector)
        result = session.sql(q39b()).run()
        return (injector.injected(), repr(result.seconds),
                dict(result.metrics.snapshot()), result.rows)

    first, second = run(), run()
    assert first[0] > 0  # the schedule fired: not a fault-free comparison
    assert first == second


def test_explain_analyze_prints_the_same_report_twice(q39_env):
    """Operator ids are positions in the plan, so the same EXPLAIN ANALYZE
    in one session prints the same ids -- in the plan section, the
    ``build: reused from op K`` notes, the cost-based section and the stage
    table's scan column.  Only wall-clock values and attribute ids (a new
    analysis mints new ones) may differ."""
    session = q39_env.new_session()
    for table in Q39_TABLES:
        session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")

    def report():
        text = session.sql(q39a()).explain(analyze=True)
        return [re.sub(r"#\d+", "#<id>", _masked(line))
                for line in text.splitlines()]

    first, second = report(), report()
    assert any(re.search(r"\bop \d+", line) for line in first)
    assert first == second
