import pytest

from repro.common.metrics import CostLedger, MetricsRegistry


def test_counters_accumulate():
    metrics = MetricsRegistry()
    metrics.incr("a", 2)
    metrics.incr("a", 3)
    assert metrics.get("a") == 5


def test_missing_counter_default():
    assert MetricsRegistry().get("nope", 7.0) == 7.0


def test_peak_keeps_maximum():
    metrics = MetricsRegistry()
    metrics.record_peak("mem", 10)
    metrics.record_peak("mem", 4)
    metrics.record_peak("mem", 12)
    assert metrics.peak("mem") == 12


def test_merge_combines_counters_and_peaks():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.incr("x", 1)
    b.incr("x", 2)
    a.record_peak("p", 5)
    b.record_peak("p", 9)
    a.merge(b)
    assert a.get("x") == 3
    assert a.peak("p") == 9


def test_snapshot_includes_peak_prefix():
    metrics = MetricsRegistry()
    metrics.incr("c")
    metrics.record_peak("p", 1)
    snap = metrics.snapshot()
    assert snap["c"] == 1
    assert snap["peak.p"] == 1


def test_reset():
    metrics = MetricsRegistry()
    metrics.incr("c")
    metrics.reset()
    assert metrics.get("c") == 0


def test_ledger_charges_time_and_counters():
    ledger = CostLedger()
    ledger.charge(0.5, "ops", 2)
    ledger.charge(0.25)
    assert ledger.seconds == 0.75
    assert ledger.metrics.get("ops") == 2


def test_ledger_rejects_negative_time():
    with pytest.raises(ValueError):
        CostLedger().charge(-0.1)


def test_ledger_merge():
    a, b = CostLedger(), CostLedger()
    a.charge(1.0, "x")
    b.charge(2.0, "x")
    a.merge(b)
    assert a.seconds == 3.0
    assert a.metrics.get("x") == 2


# -- operator scope ------------------------------------------------------------

def test_a_scoped_increment_is_the_operators_share_of_the_counter():
    metrics = MetricsRegistry()
    metrics.incr("rows", 2)
    metrics.incr("rows", 3, op=7)
    metrics.incr("rows", 1, op=8)
    metrics.incr("batches", 0, op=7)
    metrics.record_peak("mem", 4)
    assert metrics.get("rows") == 6
    # a name is present once an increment named the operator, zero or not
    assert metrics.for_op(7) == {"rows": 3, "batches": 0}
    assert metrics.for_op(8) == {"rows": 1}
    assert metrics.for_op(9) == {}
    # the reader hands out a copy
    metrics.for_op(7)["rows"] = 100
    assert metrics.for_op(7)["rows"] == 3
    # no scoped entry leaks into the snapshot, get() or iteration
    assert dict(metrics.snapshot()) == {"rows": 6, "batches": 0, "peak.mem": 4}
    assert dict(metrics) == dict(metrics.snapshot())


def test_ledger_count_and_charge_pass_the_scope_through():
    ledger = CostLedger()
    ledger.count("rows", 4, op=3)
    ledger.charge(0.5, "bytes", 10, op=3)
    ledger.charge(0.25, "bytes", 1)
    assert ledger.seconds == 0.75
    assert ledger.metrics.for_op(3) == {"rows": 4, "bytes": 10}
    assert ledger.metrics.get("bytes") == 11


def test_merge_folds_operator_entries():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.incr("rows", 1, op=1)
    b.incr("rows", 2, op=1)
    b.incr("rows", 5, op=2)
    b.incr("rows", 7)
    a.merge(b)
    assert a.for_op(1) == {"rows": 3}
    assert a.for_op(2) == {"rows": 5}
    assert a.get("rows") == 15
    assert b.for_op(1) == {"rows": 2}   # the source is left as it was
    ledger, other = CostLedger(), CostLedger()
    other.count("rows", 2, op=1)
    ledger.merge(other)
    assert ledger.metrics.for_op(1) == {"rows": 2}


def test_a_failed_attempts_scoped_counts_ride_the_retry_carry():
    """The scheduler folds failed attempts' ledgers into the task's: their
    scoped entries come along, so operator shares still sum to the counter."""
    from repro.common.cost import DEFAULT_COST_MODEL
    from repro.engine.cluster import ComputeCluster
    from repro.engine.rdd import ParallelCollectionRDD
    from repro.engine.scheduler import TaskScheduler

    scheduler = TaskScheduler(ComputeCluster(["h1", "h2"], executors_requested=2),
                              DEFAULT_COST_MODEL)
    attempts = {"n": 0}

    def flaky(rows, ctx):
        rows = list(rows)
        ctx.ledger.count("op.rows", len(rows), op=42)
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient")
        return rows

    result = scheduler.run_job(ParallelCollectionRDD([1, 2, 3], 1).map_partitions(flaky))
    assert sorted(result.rows()) == [1, 2, 3]
    assert result.metrics.get("engine.task_failures") == 1
    # both attempts counted three rows, and the operator carries both
    assert result.metrics.get("op.rows") == 6
    assert result.metrics.for_op(42) == {"op.rows": 6}
    (stage,) = result.stages
    assert stage.metrics.for_op(42) == {"op.rows": 6}


def test_reset_clears_operator_entries():
    metrics = MetricsRegistry()
    metrics.incr("rows", 2, op=1)
    metrics.reset()
    assert metrics.for_op(1) == {}
    assert metrics.get("rows") == 0
