"""QueryServer behaviour: admission, shedding, bulkheads, breaker wiring,
tracing/EXPLAIN integration and deterministic decision schedules."""

import re

import pytest

from repro.common.errors import OverloadedError, ReproError
from repro.common.faults import FAULT_ADMISSION, FaultInjector
from repro.serving import (COMPLETED, SHED, BreakerConfig, QueryServer,
                           ServingConfig, TenantSpec)
from repro.sql.types import StructType, type_from_name


def _with_table(session, rows=60):
    schema = (StructType()
              .add("id", type_from_name("int"))
              .add("k", type_from_name("int")))
    data = [(i, i % 5) for i in range(rows)]
    session.create_dataframe(data, schema).createOrReplaceTempView("t")
    return session


QUERY = "SELECT k, COUNT(*) AS n FROM t GROUP BY k"


def _server(session, **kwargs):
    return QueryServer(session, **kwargs)


# -- happy path ------------------------------------------------------------
def test_served_rows_match_direct_execution(session):
    _with_table(session)
    direct = sorted(tuple(r.values) for r in session.sql(QUERY).run().rows)
    server = _server(session)
    ticket = server.submit(QUERY, tenant="alpha")
    server.drain()
    assert ticket.status == COMPLETED
    served = sorted(tuple(r.values) for r in ticket.result().rows)
    assert served == direct
    assert ticket.result().serving["tenant"] == "alpha"
    assert server.metrics.get("serving.submitted") == 1
    assert server.metrics.get("serving.completed") == 1


def test_queue_wait_is_charged_and_stamped(session):
    _with_table(session)
    server = _server(session, config=ServingConfig(slots_per_query=6))
    # six slots total: the second query must queue behind the first
    first = server.submit(QUERY, tenant="a", at=0.0)
    second = server.submit(QUERY, tenant="b", at=0.0)
    server.drain()
    assert first.wait_s == 0.0
    assert second.wait_s == pytest.approx(first.result().seconds)
    assert second.result().serving["wait_s"] == pytest.approx(second.wait_s)
    assert second.result().metrics.get("serving.queue_wait_s") == \
        pytest.approx(second.wait_s)
    assert server.metrics.get("serving.queue_wait_s") == \
        pytest.approx(second.wait_s)
    assert second.latency_s == pytest.approx(
        second.wait_s + second.result().seconds)


# -- shedding --------------------------------------------------------------
def test_queue_full_sheds_with_retry_after(session):
    _with_table(session)
    config = ServingConfig(max_queue_depth=1, slots_per_query=6)
    server = _server(session, config=config)
    tickets = [server.submit(QUERY, at=0.0) for _ in range(4)]
    server.drain()
    statuses = [t.status for t in tickets]
    # one dispatches immediately, one queues, the other two shed
    assert statuses == [COMPLETED, COMPLETED, SHED, SHED]
    for shed in tickets[2:]:
        assert shed.reason == "queue_full"
        with pytest.raises(OverloadedError) as err:
            shed.result()
        assert err.value.reason == "queue_full"
        assert err.value.retry_after_s > 0.0
    assert server.metrics.get("serving.shed.queue_full") == 2


def test_throttled_tenant_sheds_but_others_pass(session):
    _with_table(session)
    server = _server(session)
    server.register_tenant("greedy", rate=0.001, burst=1.0)
    tickets = [server.submit(QUERY, tenant="greedy", at=0.0),
               server.submit(QUERY, tenant="greedy", at=0.0),
               server.submit(QUERY, tenant="polite", at=0.0)]
    server.drain()
    assert [t.status for t in tickets] == [COMPLETED, SHED, COMPLETED]
    assert tickets[1].reason == "throttled"
    assert tickets[1].retry_after_s > 0.0
    assert server.metrics.get("serving.shed.throttled") == 1


def test_deadline_shed_when_queue_wait_exceeds_budget(session):
    _with_table(session)
    config = ServingConfig(slots_per_query=6, deadline_s=0.5)
    server = _server(session, config=config)
    tickets = [server.submit(QUERY, at=0.0) for _ in range(3)]
    server.drain()
    # the first runs for ~3 simulated seconds; everyone queued behind it
    # has burned far past the 0.5s operation budget by dispatch time
    assert [t.status for t in tickets] == [COMPLETED, SHED, SHED]
    assert {t.reason for t in tickets[1:]} == {"deadline"}
    assert server.metrics.get("serving.shed.deadline") == 2


def test_injected_admission_fault_sheds(session):
    _with_table(session)
    faults = FaultInjector(seed=7)
    faults.inject(FAULT_ADMISSION, rate=1.0, times=1)
    server = _server(session, faults=faults)
    first = server.submit(QUERY, at=0.0)
    second = server.submit(QUERY, at=0.0)
    server.drain()
    assert first.status == SHED and first.reason == "injected"
    assert second.status == COMPLETED
    assert faults.injected(FAULT_ADMISSION) == 1
    assert server.metrics.get("serving.shed.injected") == 1


# -- breaker ---------------------------------------------------------------
def test_breaker_opens_on_degraded_latency_and_sheds(session):
    _with_table(session)
    breaker = BreakerConfig(window=4, min_samples=2, failure_threshold=0.5,
                            cooldown_s=1000.0, probe_count=1,
                            latency_threshold_s=0.001)
    config = ServingConfig(breaker=breaker, max_queue_depth=32)
    server = _server(session, config=config)
    tickets = [server.submit(QUERY, at=float(i) * 20.0) for i in range(5)]
    server.drain()
    # every completion is "degraded" (latency over 1ms): after min_samples
    # the breaker opens and the remaining arrivals shed with retry-after
    assert tickets[0].status == COMPLETED
    assert tickets[1].status == COMPLETED
    shed = [t for t in tickets if t.status == SHED]
    assert shed and all(t.reason == "breaker_open" for t in shed)
    assert all(t.retry_after_s > 0.0 for t in shed)
    assert server.metrics.get("serving.breaker.opened") == 1
    assert server.breaker.transitions[0]["to"] == "open"


def test_breaker_half_open_probe_recovers(session):
    _with_table(session)
    breaker = BreakerConfig(window=4, min_samples=1, failure_threshold=0.5,
                            cooldown_s=5.0, probe_count=1,
                            latency_threshold_s=None)
    config = ServingConfig(breaker=breaker)
    server = _server(session, config=config)
    # trip the breaker by hand (as injected faults would), then arrive after
    # the cooldown: the arrival is admitted as a probe and closes it
    server.breaker.record(0.0, degraded=True)
    assert server.breaker.state == "open"
    probe = server.submit(QUERY, at=10.0)
    server.drain()
    assert probe.status == COMPLETED
    assert probe.probe is True
    assert server.breaker.state == "closed"
    assert server.metrics.get("serving.probes") == 1
    assert server.metrics.get("serving.breaker.half_opened") == 1
    assert server.metrics.get("serving.breaker.closed") == 1


# -- bulkheads and fairness ------------------------------------------------
def test_bulkhead_reserved_slots_are_leased_first(session):
    _with_table(session)
    server = _server(session, config=ServingConfig(slots_per_query=2))
    server.register_tenant("vip", reserved_slots=2)
    ticket = server.submit(QUERY, tenant="vip")
    server.drain()
    # the vip bulkhead occupies the lowest slot indices by construction
    assert ticket.leased_slots == (0, 1)


def test_bulkhead_protects_reserved_tenant_from_storm(session):
    _with_table(session)
    config = ServingConfig(slots_per_query=2, max_queue_depth=32)
    server = _server(session, config=config)
    server.register_tenant("vip", reserved_slots=2)
    server.register_tenant("storm", weight=1.0)
    storm = [server.submit(QUERY, tenant="storm", at=0.0) for _ in range(6)]
    vip = server.submit(QUERY, tenant="vip", at=0.0)
    server.drain()
    assert vip.status == COMPLETED
    # the vip query never waited: its reserved bulkhead was free even though
    # the storm saturated the shared pool
    assert vip.wait_s == 0.0
    assert all(t.status == COMPLETED for t in storm)
    # storm queries only ever leased shared slots (indices 2..5)
    for t in storm:
        assert all(idx >= 2 for idx in t.leased_slots)


def test_overcommitted_bulkheads_are_rejected(session):
    _with_table(session)
    server = _server(session)
    server.register_tenant("a", reserved_slots=4)
    server.register_tenant("b", reserved_slots=4)  # 8 > 6 cluster slots
    server.submit(QUERY)
    with pytest.raises(ReproError):
        server.drain()


def test_register_after_drain_is_rejected(session):
    _with_table(session)
    server = _server(session)
    server.submit(QUERY)
    server.drain()
    with pytest.raises(ReproError):
        server.register_tenant("late")


# -- tracing and EXPLAIN ---------------------------------------------------
def test_tracing_records_admission_and_shed_events(session):
    session.conf["tracing.enabled"] = True
    _with_table(session)
    config = ServingConfig(max_queue_depth=1, slots_per_query=6)
    server = _server(session, config=config)
    ran = server.submit(QUERY, at=0.0)
    server.submit(QUERY, at=0.0)
    shed = server.submit(QUERY, at=0.0)
    server.drain()
    assert ran.trace is not None
    admissions = ran.trace.find_events("admission")
    assert len(admissions) == 1 and admissions[0]["tenant"] == "default"
    assert shed.trace is not None
    events = shed.trace.find_events("shed")
    assert len(events) == 1 and events[0]["reason"] == "queue_full"


def test_explain_analyze_carries_serving_section(session):
    _with_table(session)
    server = _server(session, config=ServingConfig(slots_per_query=6))
    server.submit(QUERY, tenant="a", at=0.0)
    waited = server.submit(QUERY, tenant="b", at=0.0, analyze=True)
    server.drain()
    assert waited.report is not None
    assert "== Serving ==" in waited.report
    assert "tenant: b" in waited.report
    assert f"queue wait: {waited.wait_s:.4f}s" in waited.report
    # direct EXPLAIN ANALYZE stays serving-free
    direct = session.sql(QUERY).explain(analyze=True)
    assert "== Serving ==" not in direct


def test_served_explain_analyze_runs_the_plan_it_explains(session):
    """``analyze=True`` only adds a report: the ticket plans through the
    same seam as a plain ticket and as ``DataFrame.explain(analyze=True)``,
    so CBO statistics reorder its joins too."""
    schema = (StructType()
              .add("k", type_from_name("int"))
              .add("g", type_from_name("string")))
    # a-b explodes (low-NDV key), a-c is selective: the CBO hoists c
    tables = {
        "a": [(i % 10, f"g{i % 100}") for i in range(1000)],
        "b": [(i % 10, "x") for i in range(1000)],
        "c": [(i, f"g{i}") for i in range(10)],
    }
    for name, rows in tables.items():
        session.create_dataframe(rows, schema).createOrReplaceTempView(name)
        session.sql(f"ANALYZE TABLE {name} COMPUTE STATISTICS").collect()
    query = ("SELECT a.k, count(*) AS n FROM a JOIN b ON a.k = b.k "
             "JOIN c ON a.g = c.g GROUP BY a.k")

    server = _server(session)
    plain = server.submit(query, at=0.0)
    explained = server.submit(query, at=10_000.0, analyze=True)
    server.drain()
    assert plain.report is None and explained.report is not None

    got, want = explained.result(), plain.result()
    assert sorted(tuple(r.values) for r in got.rows) == \
        sorted(tuple(r.values) for r in want.rows)
    assert got.seconds == want.seconds
    assert got.metrics.get("sql.cbo.reorders_applied") == \
        want.metrics.get("sql.cbo.reorders_applied") == 1.0

    def physical_plan(report):
        # the annotated operator tree: each analysis of the statement draws
        # fresh attribute ids, and only the served report has a Serving
        # section after the summary
        plan = report.split("== Physical Plan (EXPLAIN ANALYZE) ==")[1]
        return re.sub(r"#\d+", "#", plan.split("== Stages ==")[0])

    assert "Join" in physical_plan(explained.report)
    assert physical_plan(explained.report) == \
        physical_plan(session.sql(query).explain(analyze=True))


# -- determinism -------------------------------------------------------------
def test_decision_schedule_is_deterministic():
    from repro.common.simclock import SimClock
    from repro.sql.session import SparkSession

    def run():
        session = SparkSession(["node1", "node2", "node3"],
                               executors_requested=3, clock=SimClock())
        _with_table(session)
        config = ServingConfig(max_queue_depth=2, slots_per_query=2,
                               deadline_s=8.0)
        server = _server(session, config=config)
        server.register_tenant("a", weight=2.0, rate=0.5, burst=2.0,
                               reserved_slots=2)
        server.register_tenant("b", weight=1.0)
        tickets = []
        for i in range(10):
            tenant = "a" if i % 2 == 0 else "b"
            tickets.append(server.submit(QUERY, tenant=tenant, at=i * 0.5))
        server.drain()
        return ([(t.seq, t.status, t.reason, round(t.wait_s, 9))
                 for t in tickets],
                server.shed_set(tickets),
                dict(server.metrics.snapshot()))

    assert run() == run()


def test_tenant_spec_defaults():
    spec = TenantSpec("t")
    assert spec.weight == 1.0 and spec.rate is None
    assert spec.reserved_slots == 0
