import pytest

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.errors import FatalTaskError
from repro.engine.cluster import ComputeCluster
from repro.engine.rdd import ParallelCollectionRDD
from repro.engine.scheduler import TaskScheduler


def make_scheduler(hosts=("h1", "h2"), executors=2, locality=True):
    cluster = ComputeCluster(list(hosts), executors_requested=executors)
    return TaskScheduler(cluster, DEFAULT_COST_MODEL, locality_enabled=locality)


def test_job_result_rows_and_stages():
    scheduler = make_scheduler()
    rdd = ParallelCollectionRDD(range(10), 4).map(lambda x: x + 1)
    result = scheduler.run_job(rdd)
    assert sorted(result.rows()) == list(range(1, 11))
    assert len(result.stages) == 1
    assert result.stages[0].kind == "result"
    assert result.stages[0].num_tasks == 4


def test_shuffle_creates_map_stage_and_meters_bytes():
    scheduler = make_scheduler()
    rdd = ParallelCollectionRDD(range(10), 2).partition_by(2, key_fn=lambda x: x)
    result = scheduler.run_job(rdd)
    kinds = [s.kind for s in result.stages]
    assert kinds == ["shuffle-map", "result"]
    assert result.metrics.get("engine.shuffle_write_bytes") > 0
    assert result.metrics.get("engine.shuffle_read_bytes") > 0


def test_duration_includes_task_launch_overhead():
    scheduler = make_scheduler()
    rdd = ParallelCollectionRDD(range(4), 4)
    result = scheduler.run_job(rdd)
    # 4 tasks over 4 slots -> at least one task launch on the critical path
    assert result.seconds >= DEFAULT_COST_MODEL.task_launch_s


def test_more_slots_shrink_makespan():
    def run(executors):
        scheduler = make_scheduler(executors=executors)
        rdd = ParallelCollectionRDD(range(64), 16).map_partitions(
            lambda rows, ctx: (ctx.ledger.charge(1.0), rows)[1]
        )
        return scheduler.run_job(rdd).seconds

    assert run(8) < run(1)


def test_locality_placement_prefers_hosts():
    scheduler = make_scheduler(hosts=("h1", "h2"), executors=2)
    rdd = ParallelCollectionRDD(range(8), 4, hosts=["h1", "h2"])
    result = scheduler.run_job(rdd)
    assert result.metrics.get("engine.local_tasks") == 4


def test_locality_disabled_ignores_preferences():
    scheduler = make_scheduler(locality=False)
    rdd = ParallelCollectionRDD(range(8), 8, hosts=["h1"])
    result = scheduler.run_job(rdd)
    # round-robin over both hosts: some tasks land off-host
    assert result.stages[0].local_tasks < 8


def test_task_retry_on_transient_failure():
    scheduler = make_scheduler()
    attempts = {"n": 0}

    def flaky(rows, ctx):
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise RuntimeError("transient")
        return rows

    rdd = ParallelCollectionRDD([1, 2, 3], 1).map_partitions(flaky)
    result = scheduler.run_job(rdd)
    assert sorted(result.rows()) == [1, 2, 3]
    assert result.metrics.get("engine.task_failures") == 2


def test_task_fails_after_max_retries():
    scheduler = make_scheduler()

    def broken(rows, ctx):
        raise RuntimeError("always")

    rdd = ParallelCollectionRDD([1], 1).map_partitions(broken)
    with pytest.raises(FatalTaskError):
        scheduler.run_job(rdd)


def test_shuffle_not_rematerialized_across_jobs():
    scheduler = make_scheduler()
    counter = {"n": 0}

    def counting(rows, ctx):
        counter["n"] += 1
        return rows

    shuffled = ParallelCollectionRDD(range(4), 2).map_partitions(counting) \
        .partition_by(2, key_fn=lambda x: x)
    scheduler.run_job(shuffled)
    first = counter["n"]
    scheduler.run_job(shuffled)  # map side cached in the block store
    assert counter["n"] == first


def test_peak_stage_bytes_recorded():
    scheduler = make_scheduler()
    rdd = ParallelCollectionRDD(["x" * 100] * 10, 2)
    result = scheduler.run_job(rdd)
    assert result.metrics.peak("engine.peak_stage_bytes") > 0


def test_retry_rehosting_counted():
    """A retried task that landed on another host shows up in the rehosted
    counter, and locality is judged against the host that actually ran it."""
    scheduler = make_scheduler(hosts=("h1", "h2"), executors=2)
    attempts = {"n": 0}

    def flaky(rows, ctx):
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise RuntimeError("transient")
        return rows

    rdd = ParallelCollectionRDD([1, 2, 3], 1).map_partitions(flaky)
    result = scheduler.run_job(rdd)
    assert result.metrics.get("engine.task_failures") == 2
    # two host rotations moved the task off its original placement
    assert result.metrics.get("engine.task_retries_rehosted") == 1


def test_wall_clock_reported_per_stage():
    scheduler = make_scheduler()
    rdd = ParallelCollectionRDD(range(10), 2).partition_by(2, key_fn=lambda x: x)
    result = scheduler.run_job(rdd)
    assert all(s.wall_clock_s > 0 for s in result.stages)
    assert result.wall_clock_s == pytest.approx(
        sum(s.wall_clock_s for s in result.stages)
    )


def test_same_job_twice_yields_identical_stage_timeline():
    """Placement runs in simulated time on the calling thread, so nothing
    about a job depends on thread timing: two runs agree on every stage's
    makespan and locality and on every task's slot and simulated interval."""
    def skewed(rows, ctx):
        rows = list(rows)
        ctx.ledger.charge(0.1 * (rows[0] % 7))
        return rows

    def run():
        cluster = ComputeCluster(["h1", "h2"], executors_requested=2)
        scheduler = TaskScheduler(cluster, DEFAULT_COST_MODEL)
        timeline = []
        run_stage = scheduler._runner.run

        def recording_run(specs, run_task):
            execution = run_stage(specs, run_task)
            timeline.append([(o.slot_index, o.sim_start_s, o.sim_end_s)
                             for o in execution.outcomes])
            return execution

        scheduler._runner.run = recording_run
        # skewed task costs and mixed locality make placement non-trivial
        rdd = ParallelCollectionRDD(range(32), 8, hosts=["h1", "h2", "h2"]) \
            .map_partitions(skewed) \
            .map(lambda x: (x % 4, x)) \
            .partition_by(4, key_fn=lambda kv: kv[0])
        return scheduler.run_job(rdd), timeline

    (first, first_tasks), (second, second_tasks) = run(), run()
    assert first.rows() == second.rows()
    assert [(s.kind, s.num_tasks, s.duration_s, s.local_tasks)
            for s in first.stages] == \
        [(s.kind, s.num_tasks, s.duration_s, s.local_tasks)
         for s in second.stages]
    assert first_tasks == second_tasks
    assert [len(stage) for stage in first_tasks] == [8, 4]
    assert first.metrics.snapshot() == second.metrics.snapshot()
