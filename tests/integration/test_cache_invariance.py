"""Cache invariance: a cache nobody uses costs nothing.

The caching subsystem threads through the region server's scan charging and
the planner, so the load-bearing guarantee is that its *availability* costs
nothing.  ``persist()`` is the opt-in and it is per plan: a query nobody
persisted -- in a session that never calls ``persist()``, or in one that
cached something else -- is planned and billed alike, byte for byte (every
metric, every simulated second), and no cache counter reaches its ledger.
"""

from repro.workloads import load_tpcds

QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
         "WHERE ss_quantity > 1")
OTHER = "SELECT ss_item_sk FROM store_sales WHERE ss_quantity = 1"


def run_fresh(persist_other):
    env = load_tpcds(2, ["store_sales"])
    session = env.new_session()
    if persist_other:
        session.sql(OTHER).persist()
    result = session.sql(QUERY).run()
    session.shutdown()
    return result


def test_unused_caches_leave_the_ledger_alone():
    plain = run_fresh(persist_other=False)
    beside = run_fresh(persist_other=True)

    assert [tuple(r.values) for r in plain.rows] == \
        [tuple(r.values) for r in beside.rows]
    assert plain.seconds == beside.seconds
    assert dict(plain.metrics.snapshot()) == dict(beside.metrics.snapshot())
    # and no cache counter leaked into either ledger
    for key in plain.metrics.snapshot():
        assert not key.startswith("engine.cache."), key
        assert not key.startswith("hbase.blockcache."), key
