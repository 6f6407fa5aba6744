"""CBO-off invariance: with the cost-based optimizer disabled, the seed.

The CBO hooks three layers: the optimizer (join reordering), the planner
(semi-join reduction, broadcast decisions from estimated sizes) and the
physical layer (SemiJoinReducedJoinExec, ``cbo_rows`` stamping).  The
load-bearing guarantee is that every hook is dormant under the default
configuration: a run with ``sql.cbo.enabled`` unset must produce a
byte-identical cost ledger -- every metric, every simulated second -- to a
run with it forced off, and no ``sql.cbo.*`` counter may leak into either
ledger.  Runs with CBO *on* (after ANALYZE) check answers are unchanged,
full-stack through the HBase substrate.
"""

import os

import pytest

from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")
JOIN_QUERY = (
    "SELECT i.i_category, sum(ss.ss_quantity) AS q "
    "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
    "GROUP BY i.i_category"
)


def run_fresh(query, conf, analyze=()):
    env = load_tpcds(2, ["store_sales", "item"])
    session = env.new_session(conf=conf)
    for table in analyze:
        session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    result = session.sql(query).run()
    session.shutdown()
    return result


def assert_ledgers_identical(a, b):
    assert [tuple(r.values) for r in a.rows] == [tuple(r.values) for r in b.rows]
    assert a.seconds == b.seconds
    assert dict(a.metrics.snapshot()) == dict(b.metrics.snapshot())


def test_default_conf_is_byte_identical_to_cbo_disabled():
    default = run_fresh(SCAN_QUERY, None)
    disabled = run_fresh(SCAN_QUERY, {"sql.cbo.enabled": False})
    assert_ledgers_identical(default, disabled)
    for key in default.metrics.snapshot():
        assert not key.startswith("sql.cbo."), key


@pytest.mark.skipif(bool(os.environ.get("REPRO_SQL_CBO")),
                    reason="CBO mode forced on by the environment")
def test_join_ledger_is_byte_identical_with_cbo_off():
    default = run_fresh(JOIN_QUERY, None)
    disabled = run_fresh(JOIN_QUERY, {"sql.cbo.enabled": False})
    assert_ledgers_identical(default, disabled)
    for key in default.metrics.snapshot():
        assert not key.startswith("sql.cbo."), key


def test_cbo_on_preserves_answers_full_stack():
    baseline = run_fresh(JOIN_QUERY, {"sql.cbo.enabled": False})
    cbo = run_fresh(JOIN_QUERY, {
        "sql.cbo.enabled": True,
        # force the shuffled plan so semi-join reduction has work to do
        "sql.autoBroadcastJoinThreshold": 1,
    }, analyze=["store_sales", "item"])
    assert sorted(tuple(r.values) for r in cbo.rows) == \
        sorted(tuple(r.values) for r in baseline.rows)
    assert cbo.metrics.get("sql.cbo.estimates") >= 1.0


def test_analyze_persists_stats_across_sessions():
    env = load_tpcds(2, ["store_sales", "item"])
    first = env.new_session(conf={"sql.cbo.enabled": True})
    row = first.sql("ANALYZE TABLE item COMPUTE STATISTICS").collect()[0]
    assert row.persisted is True
    first.shutdown()
    # a brand-new session over the same cluster hydrates from the master's
    # table attribute and estimates confidently without a fresh ANALYZE
    second = env.new_session(conf={"sql.cbo.enabled": True})
    result = second.sql(JOIN_QUERY).run()
    assert result.metrics.get("sql.cbo.estimates") >= 1.0
    assert result.metrics.get("sql.cbo.stats_stale") == 0.0
    second.shutdown()
