"""Replication-off invariance: with replicas never enabled, the seed.

The replica feature hooks four layers: the cluster (the replication
manager and health reports), the master (promotion in the failure
handler), the connector (replica-aware partitioning, warm scan failover)
and the physical layer (routing stats).  Every hook must be dormant by
default: a run on a cluster that never called
``enable_region_replication`` with ``hbase.read.replica`` unset must
produce a byte-identical cost ledger to a run with the flag forced off,
and no ``hbase.replica.*`` counter may leak into either.  Runs with
replicas *on* check answers (and, under a staleness bound of zero, row
order) are unchanged, full-stack through the HBase substrate.
"""

from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")


def run_fresh(query, conf, replicas=0, options=None):
    env = load_tpcds(2, ["store_sales"])
    if replicas:
        env.cluster.enable_region_replication(replicas=replicas)
    session = env.new_session(conf=conf, extra_options=options)
    result = session.sql(query).run()
    session.shutdown()
    return env, result


def rows(result):
    return [tuple(r.values) for r in result.rows]


def assert_ledgers_identical(a, b):
    assert rows(a) == rows(b)
    assert a.seconds == b.seconds
    assert dict(a.metrics.snapshot()) == dict(b.metrics.snapshot())


def test_default_conf_is_byte_identical_to_replica_reads_disabled():
    _, default = run_fresh(SCAN_QUERY, None)
    _, disabled = run_fresh(SCAN_QUERY, {"hbase.read.replica": False})
    assert_ledgers_identical(default, disabled)
    for result in (default, disabled):
        for key in result.metrics.snapshot():
            assert not key.startswith("hbase.replica."), key


def test_flag_without_replication_enabled_is_byte_identical():
    # the session flag alone must be inert: the cluster has no manager
    _, default = run_fresh(SCAN_QUERY, None)
    _, flagged = run_fresh(SCAN_QUERY, {"hbase.read.replica": True})
    assert_ledgers_identical(default, flagged)


def test_replicated_cluster_without_the_flag_is_answer_identical():
    # background replication may bill its own (cluster) ledger, but a
    # session that never opts in scans primaries exactly as before
    _, default = run_fresh(SCAN_QUERY, None)
    env, unflagged = run_fresh(SCAN_QUERY, None, replicas=1)
    assert_ledgers_identical(default, unflagged)
    for key in unflagged.metrics.snapshot():
        assert not key.startswith("hbase.replica."), key


def test_replica_reads_preserve_answers_full_stack():
    _, default = run_fresh(SCAN_QUERY, None)
    # the relation reads the flag, and a per-read option overrides the
    # session conf either way; routing facts appear exactly when it engaged
    for flag, option, engaged in ((True, None, True),
                                  (False, "true", True),
                                  (True, "false", False)):
        env, on = run_fresh(SCAN_QUERY, {
            "hbase.read.replica": flag,
            "hbase.read.replica.staleness": 60,
        }, replicas=1,
            options=option and {"hbase.read.replica": option})
        # routing splits regions across hosts, so only global order may change
        assert sorted(rows(on)) == sorted(rows(default))
        assert (on.metrics.get("hbase.replica.reads") >= 1) == engaged
        routed = [facts for facts in on.operator_stats.values()
                  if any(name.startswith("replica_") for name in facts)]
        assert len(routed) == (1 if engaged else 0)


def test_zero_staleness_bound_forces_primary_reads():
    _, default = run_fresh(SCAN_QUERY, None)
    env, strict = run_fresh(SCAN_QUERY, {
        "hbase.read.replica": True,
        "hbase.read.replica.staleness": 0,
    }, replicas=1)
    # primary-only routing: same partitions, same rows, same order
    assert rows(strict) == rows(default)
    assert strict.metrics.get("hbase.replica.reads") == 0.0
    # every region had a replica it declined -- the fallback is visible
    assert strict.metrics.get("hbase.replica.primary_fallbacks") == 5.0
