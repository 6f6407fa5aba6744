"""AQE-off invariance: with adaptivity disabled the simulation is the seed.

Adaptive execution hooks the planner (AdaptiveJoinExec) and the shuffle-map
stage (runtime statistics collection).  The load-bearing guarantee is that the hooks cost nothing when
dormant: a run under the default configuration must produce a byte-identical
cost ledger -- every metric, every simulated second -- to a run with
``sql.aqe.enabled`` forced off, and no ``engine.aqe.*`` counter may leak
into either ledger.  A third run with AQE *on* checks answers (not costs)
are unchanged, full-stack through the HBase substrate.
"""

from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")
JOIN_QUERY = (
    "SELECT i.i_category, sum(ss.ss_quantity) AS q "
    "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
    "GROUP BY i.i_category"
)


def run_fresh(query, conf):
    env = load_tpcds(2, ["store_sales", "item"])
    session = env.new_session(conf=conf)
    result = session.sql(query).run()
    session.shutdown()
    return result


def assert_ledgers_identical(a, b):
    assert [tuple(r.values) for r in a.rows] == [tuple(r.values) for r in b.rows]
    assert a.seconds == b.seconds
    assert dict(a.metrics.snapshot()) == dict(b.metrics.snapshot())


def test_default_conf_is_byte_identical_to_aqe_disabled():
    default = run_fresh(SCAN_QUERY, None)
    disabled = run_fresh(SCAN_QUERY, {"sql.aqe.enabled": False})
    assert_ledgers_identical(default, disabled)
    for key in default.metrics.snapshot():
        assert not key.startswith("engine.aqe."), key


def test_join_ledger_is_byte_identical_with_aqe_off():
    default = run_fresh(JOIN_QUERY, None)
    disabled = run_fresh(JOIN_QUERY, {"sql.aqe.enabled": False})
    assert_ledgers_identical(default, disabled)
    assert not default.reopt_events and not disabled.reopt_events
    for key in default.metrics.snapshot():
        assert not key.startswith("engine.aqe."), key


def test_aqe_on_preserves_answers_full_stack():
    baseline = run_fresh(JOIN_QUERY, {"sql.aqe.enabled": False})
    adaptive = run_fresh(JOIN_QUERY, {
        "sql.aqe.enabled": True,
        # force the shuffled plan so the adaptive join actually decides
        "sql.autoBroadcastJoinThreshold": 1,
    })
    assert sorted(tuple(r.values) for r in adaptive.rows) == \
        sorted(tuple(r.values) for r in baseline.rows)
    assert adaptive.metrics.get("engine.aqe.stages_materialized") >= 1.0
