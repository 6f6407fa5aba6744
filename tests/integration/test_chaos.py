"""Chaos suite: seeded crash schedules must not change any query's answer.

For each pinned seed the paper's TPC-DS repro queries run against one
:class:`~repro.common.faults.FaultInjector` that crashes a region server
mid-scan, fires a capped stream of transient RPC faults and fails one
shuffle-block fetch.  Every query must return byte-identical rows versus
the fault-free run, and every leg of the schedule must actually fire: the
crash resumes a scan, the RPC faults are retried inside the HBase client,
and the failed fetch costs one task attempt that the scheduler retries.
The multi-get case replays the same seeds over row-key Gets and ``IN``
lists, with transient RPC faults and one crash at a multi-get.
"""

import random

import pytest

from repro.common.faults import (
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FAULT_SHUFFLE_FETCH,
    FaultInjector,
    crash_region_server,
)
from repro.core.catalog import HBaseSparkConf
from repro.workloads import load_tpcds, q38, q39a, q39b
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES
from tests.sql.test_adaptive import (  # noqa: F401 - small_skew is a fixture
    SKEW_SQL,
    dim_rows,
    fact_rows,
    make_session,
    register,
    run_rows,
    skew_conf,
    small_skew,
)

#: the pinned chaos schedules CI replays (see docs/fault_tolerance.md)
CHAOS_SEEDS = (101, 202, 303)

#: small scanner pages so the injected crash lands *between* result pages
CHAOS_READER_OPTIONS = {HBaseSparkConf.CACHED_ROWS: "40"}


def chaos_injector(seed):
    """The chaos schedule: one crash, >=5 transient RPCs, one failed fetch."""
    injector = FaultInjector(seed=seed)
    # crash one region server between scan pages, pepper the RPC path with
    # transient failures, and fail one shuffle-block fetch
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    injector.inject(FAULT_RPC, rate=0.3, times=5)
    injector.inject(FAULT_SHUFFLE_FETCH, rate=1.0, times=1)
    return injector


def rows(result):
    return [tuple(r.values) for r in result.rows]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_schedule_preserves_every_query_answer(seed):
    injector = chaos_injector(seed)
    totals = {"hbase.retries": 0.0, "shc.scan_resumes": 0.0,
              "engine.task_failures": 0.0}
    dead_servers = 0

    for tables, queries in ((Q39_TABLES, (q39a, q39b)),
                            (Q38_TABLES, (q38,))):
        env = load_tpcds(5, tables)
        baseline_session = env.new_session()
        expected = [rows(baseline_session.sql(q()).run()) for q in queries]
        assert any(expected)  # the comparison must compare something

        env.cluster.install_fault_injector(injector)
        chaos_session = env.new_session(extra_options=CHAOS_READER_OPTIONS)
        chaos_session.install_fault_injector(injector)
        for q, want in zip(queries, expected):
            result = chaos_session.sql(q()).run()
            assert rows(result) == want  # byte-identical under chaos
            for name in totals:
                totals[name] += result.metrics.get(name)
        dead_servers += sum(
            1 for s in env.cluster.region_servers.values() if not s.alive)

    # the whole schedule actually happened -- not a silently fault-free run
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert dead_servers == 1
    assert injector.injected(FAULT_RPC) >= 5
    assert injector.injected(FAULT_SHUFFLE_FETCH) == 1
    assert totals["hbase.retries"] >= 1
    assert totals["shc.scan_resumes"] >= 1
    assert totals["engine.task_failures"] >= 1


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
def test_chaos_crash_mid_scan_rebatches_the_partition(seed):
    """Batch building under the pinned chaos schedule.

    Batches are built inside ``map_partitions`` over the resumable scan
    stream (PR 2), so a region-server crash mid-scan makes the retried task
    re-batch the partition from scratch -- rows must come back byte-identical
    to a fault-free run, proving batching introduces no resume-visible state.
    """
    env = load_tpcds(5, Q39_TABLES)
    baseline_session = env.new_session()
    expected = [rows(baseline_session.sql(q()).run()) for q in (q39a, q39b)]
    assert any(expected)

    injector = chaos_injector(seed)
    env.cluster.install_fault_injector(injector)
    chaos_session = env.new_session(extra_options=CHAOS_READER_OPTIONS)
    chaos_session.install_fault_injector(injector)
    totals = {"hbase.retries": 0.0, "shc.scan_resumes": 0.0}
    for q, want in zip((q39a, q39b), expected):
        result = chaos_session.sql(q()).run()
        assert rows(result) == want  # byte-identical under chaos
        assert result.metrics.get("engine.vectorized.batches") > 0
        for name in totals:
            totals[name] += result.metrics.get(name)
    # the schedule really fired against the batch path
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert sum(1 for s in env.cluster.region_servers.values()
               if not s.alive) == 1
    assert totals["hbase.retries"] >= 1
    assert totals["shc.scan_resumes"] >= 1


def test_same_seed_replays_the_same_chaos_schedule():
    """Two full runs of one seed inject identical fault sequences.

    Fractional fault rates hash region names, which embed the cluster name
    and the cluster's own region counter; both runs name their cluster the
    same (and clear the registries keyed by that name) so the replay
    compares the same schedule rather than two re-rolls of it.
    """
    from repro.core.conncache import DEFAULT_CONNECTION_CACHE
    from repro.hbase.cluster import clear_cluster_registry

    def run_once():
        DEFAULT_CONNECTION_CACHE.clear()
        clear_cluster_registry()
        env = load_tpcds(5, Q39_TABLES, name="tpcds9000")
        injector = chaos_injector(CHAOS_SEEDS[0])
        env.cluster.install_fault_injector(injector)
        session = env.new_session(extra_options=CHAOS_READER_OPTIONS)
        session.install_fault_injector(injector)
        result = session.sql(q39a()).run()
        return rows(result), injector.injected(), injector.injected(FAULT_RPC)

    rows_a, total_a, rpc_a = run_once()
    rows_b, total_b, rpc_b = run_once()
    assert rows_a == rows_b
    assert total_a == total_b > 0
    assert rpc_a == rpc_b


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
def test_operator_counters_reconcile_under_task_retries(seed):
    """An operator's numbers are counters scoped to it, so a retried task's
    failed attempts land in the operator's share exactly as in the counter:
    under the chaos schedule (a failed shuffle fetch costs a task attempt)
    every scoped counter's operator shares still sum to the query's counter,
    and so do the EXPLAIN ANALYZE notes that print them."""
    import re

    from repro.sql.explain import explain_analyze_report

    env = load_tpcds(5, Q39_TABLES)
    injector = chaos_injector(seed)
    env.cluster.install_fault_injector(injector)
    session = env.new_session(extra_options=CHAOS_READER_OPTIONS)
    session.install_fault_injector(injector)
    planned = session.plan_query(session.sql(q39a()).query)
    result = session.execute_planned(planned)
    metrics = result.metrics
    assert metrics.get("engine.task_failures") >= 1

    shares = {}
    for op in planned.physical.walk():
        for name, value in metrics.for_op(op.op_id).items():
            shares[name] = shares.get(name, 0.0) + value
    assert {"engine.join.rows_out", "engine.vectorized.batches",
            "shc.regions_scanned"} <= set(shares)
    for name, total in shares.items():
        assert total == metrics.get(name), name

    report = explain_analyze_report(planned.physical, result)
    for pattern, name in ((r"join: rows_out=(\d+)", "engine.join.rows_out"),
                          (r"batches: (\d+)", "engine.vectorized.batches"),
                          (r"setop: rows_out=(\d+)", "engine.setop.rows_out")):
        noted = sum(int(m) for m in re.findall(pattern, report))
        assert noted == metrics.get(name), name


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_fetch_fault_leaves_an_aqe_skew_split_unchanged(seed, small_skew):
    """An adaptive skew split under the shuffle-fetch fault: the failed
    fetch costs a task attempt, and the rows and every re-optimisation
    decision equal the fault-free run's."""
    fact = fact_rows(n=600, hot_fraction=0.8)

    def run(injector):
        session = make_session(True, **skew_conf())
        session.install_fault_injector(injector)
        register(session, fact, dim_rows())
        got, result = run_rows(session, SKEW_SQL)
        return got, [(e["rule"], e["detail"]) for e in result.reopt_events], result

    want_rows, want_reopts, __ = run(None)
    assert any(rule == "skew-split" for rule, __ in want_reopts)
    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_SHUFFLE_FETCH, rate=1.0, times=1)
    got_rows, got_reopts, result = run(injector)
    assert got_rows == want_rows
    assert got_reopts == want_reopts
    assert injector.injected(FAULT_SHUFFLE_FETCH) == 1
    assert result.metrics.get("engine.task_failures") == 1


def point_statements(seed):
    """``point_lookup``-shaped reads of the scale-5 data: row-key Gets of
    ``item`` (6 rows) and 3-key ``IN`` lists over ``customer`` (60 rows in
    five regions), the keys a third of the table apart so each list spans
    three regions."""
    rng = random.Random(seed)
    statements = [
        "select i_item_sk, i_item_id, i_category, i_current_price "
        f"from item where i_item_sk = {sk}"
        for sk in rng.sample(range(1, 7), 4)]
    for __ in range(8):
        first = rng.randint(1, 20)
        statements.append(
            "select c_customer_sk, c_first_name, c_last_name from customer "
            f"where c_customer_sk in ({first}, {first + 20}, {first + 40})")
    rng.shuffle(statements)
    return statements


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_point_reads_survive_chaos(seed):
    """Multi-gets under the pinned seeds: transient RPC faults plus one
    region-server crash at a ``customer`` multi-get.  A retry re-sends only
    the Gets whose server failed, so every statement returns the clean
    run's rows and the servers return the clean run's rows too."""
    env = load_tpcds(5, ("item", "customer"))
    statements = point_statements(seed)

    def run_all(session):
        got = []
        for sql in statements:
            result = session.sql(sql).run()
            # the crash moves regions, and with them the order partitions
            # answer in; the statements have no ORDER BY
            got.append((sorted(rows(result)),
                        result.metrics.get("hbase.rows_returned"),
                        result.metrics.get("hbase.retries")))
        return got

    clean = run_all(env.new_session())
    assert sum(returned for __, returned, __ in clean) > 0

    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_RPC, rate=1.0, after=2, times=1, key_substr="customer",
                    action=crash_region_server)
    injector.inject(FAULT_RPC, rate=0.3, times=5)
    env.cluster.install_fault_injector(injector)
    session = env.new_session()
    session.install_fault_injector(injector)
    chaos = run_all(session)

    for sql, (want, want_returned, __), (got, returned, __) in zip(
            statements, clean, chaos):
        assert got == want, sql
        assert returned == want_returned, sql
    # the whole schedule happened, and the client retried through it
    assert sum(1 for s in env.cluster.region_servers.values()
               if not s.alive) == 1
    assert injector.injected(FAULT_RPC) >= 3
    assert sum(retries for __, __, retries in chaos) >= injector.injected(FAULT_RPC)
