"""Serving-off invariance: without the front door the simulation is the seed.

The serving subsystem threads ``slots`` and ``queued_s`` parameters through
the session, scheduler and hbase client, so the load-bearing guarantee is
that the *plumbing* costs nothing: a query run with those parameters at
their defaults must produce a cost ledger byte-identical to one run without
them -- every metric, every simulated second.
"""

from repro.workloads import load_tpcds

QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
         "WHERE ss_quantity > 1")


def test_default_slot_and_queue_parameters_change_nothing():
    """Passing the serving defaults explicitly equals not passing them --
    the scheduler/client plumbing has no behavioural residue."""
    def run(explicit_defaults):
        env = load_tpcds(2, ["store_sales"])
        session = env.new_session()
        if explicit_defaults:
            result = session.execute_plan(
                session.sql(QUERY).plan, slots=None, queued_s=0.0)
        else:
            result = session.sql(QUERY).run()
        session.shutdown()
        return result

    baseline = run(explicit_defaults=False)
    explicit = run(explicit_defaults=True)
    assert [tuple(r.values) for r in explicit.rows] == \
        [tuple(r.values) for r in baseline.rows]
    assert explicit.seconds == baseline.seconds
    assert dict(explicit.metrics.snapshot()) == \
        dict(baseline.metrics.snapshot())
