"""Task retries: attempt and backoff accounting, abort cleanup, shuffle fetches."""

import pytest

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.errors import FatalTaskError
from repro.common.faults import FAULT_SHUFFLE_FETCH, FaultInjector
from repro.engine.cluster import ComputeCluster
from repro.engine.rdd import ParallelCollectionRDD
from repro.engine.scheduler import TaskScheduler


def make_scheduler(hosts=("h1", "h2"), executors=2, **kwargs):
    cluster = ComputeCluster(list(hosts), executors_requested=executors)
    return TaskScheduler(cluster, DEFAULT_COST_MODEL, **kwargs)


def charging(seconds):
    def body(rows, ctx):
        ctx.ledger.charge(seconds)
        return rows
    return body


def test_failed_attempts_and_backoff_are_charged():
    """A task that needs three tries costs what three tries cost."""
    scheduler = make_scheduler()
    attempts = {"n": 0}

    def flaky(rows, ctx):
        ctx.ledger.charge(0.7)
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise RuntimeError("transient")
        return rows

    rdd = ParallelCollectionRDD([1, 2, 3], 1).map_partitions(flaky)
    result = scheduler.run_job(rdd)
    assert sorted(result.rows()) == [1, 2, 3]
    assert result.metrics.get("engine.task_failures") == 2
    # 3 attempts x 0.7s each, plus two inter-retry backoffs
    assert result.metrics.get("engine.retry_backoff_s") > 0
    assert result.seconds >= 3 * 0.7 + result.metrics.get("engine.retry_backoff_s")


def test_retry_backoff_is_deterministic():
    backoffs = [make_scheduler()._retry_backoff(3, a) for a in (1, 2, 3)]
    again = [make_scheduler()._retry_backoff(3, a) for a in (1, 2, 3)]
    assert backoffs == again
    assert all(b > 0 for b in backoffs)


@pytest.mark.parametrize("entry", ["job", "barrier"])
def test_aborted_job_cleans_its_shuffle_output(entry):
    """A failing job -- or an adaptive stage barrier, which runs only map
    stages -- must not leak half-materialised shuffles."""
    scheduler = make_scheduler()
    runs = {"n": 0}

    def counting(rows, ctx):
        runs["n"] += 1
        return rows

    shuffled = ParallelCollectionRDD(range(8), 2).map_partitions(counting) \
        .partition_by(2, key_fn=lambda x: x)

    def broken(rows, ctx):
        raise RuntimeError("always broken")

    with pytest.raises(FatalTaskError):
        if entry == "job":
            scheduler.run_job(shuffled.map_partitions(broken))
        else:
            # the barrier's own map stage fails after the upstream one wrote
            scheduler.run_job(shuffled.map_partitions(broken)
                              .partition_by(2, key_fn=lambda x: x),
                              map_stages_only=True)
    map_runs = runs["n"]
    assert map_runs == 2  # the map stage did run before the abort

    # the block store holds nothing for the aborted shuffle and it is no
    # longer marked materialised
    assert shuffled.shuffle_id not in scheduler._materialized_shuffles
    for reduce_partition in range(2):
        assert scheduler.block_store.blocks_for(
            shuffled.shuffle_id, reduce_partition) == []

    # a later job over the same lineage recomputes the map side cleanly
    result = scheduler.run_job(shuffled)
    assert sorted(result.rows()) == list(range(8))
    assert runs["n"] == map_runs + 2


def test_shuffle_fetch_fault_is_retried():
    injector = FaultInjector(seed=8)
    injector.inject(FAULT_SHUFFLE_FETCH, rate=1.0, times=1)
    scheduler = make_scheduler(faults=injector)
    rdd = ParallelCollectionRDD(range(10), 2).partition_by(2, key_fn=lambda x: x)
    result = scheduler.run_job(rdd)
    assert sorted(result.rows()) == list(range(10))
    assert result.metrics.get("engine.task_failures") == 1
    assert injector.injected(FAULT_SHUFFLE_FETCH) == 1
