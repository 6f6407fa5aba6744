"""Stage-runner tests: placement, delay scheduling, the simulated schedule.

The runner places tasks in simulated time and runs them inline, so every
expectation here is a hand-computed schedule -- no sleeps, no barriers.
"""

import threading

import pytest

from repro.common.metrics import CostLedger
from repro.engine.cluster import Executor
from repro.engine.runner import StageRunner, TaskOutcome, TaskSpec
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StructField, StructType

LAUNCH_S = 0.35


def slots_on(*hosts):
    return [Executor(f"exec-{i}", host, 1) for i, host in enumerate(hosts)]


def charging_run_task(costs, order=None):
    """A RunTaskFn that charges ``costs[index]`` simulated seconds per task
    and appends each task's index to ``order`` as its body runs."""

    def run_task(spec, host, slot_idx):
        if order is not None:
            order.append(spec.index)
        ledger = CostLedger()
        if costs[spec.index]:
            ledger.charge(costs[spec.index])
        return TaskOutcome(index=spec.index, value=spec.index, ledger=ledger,
                           placed_host=host, ran_on_host=host)

    return run_task


def specs(n, preferred=None):
    prefs = preferred or [()] * n
    return [TaskSpec(index=i, body=lambda ctx: None, preferred=tuple(prefs[i]))
            for i in range(n)]


def timeline(execution):
    return [(o.slot_index, o.sim_start_s, o.sim_end_s)
            for o in execution.outcomes]


def test_skewed_stage_follows_the_list_schedule():
    """Least-loaded by task *count* would pile work on a slot that is deep
    into a long task.  Placement follows simulated time instead: each task
    goes to whichever slot frees next."""
    runner = StageRunner(slots_on("h1", "h2"), LAUNCH_S)
    order = []
    execution = runner.run(specs(4),
                           charging_run_task([10.0, 1.0, 1.0, 1.0], order))
    # task 0 occupies slot 0 for 10s; every later task chains on slot 1
    step = 1.0 + LAUNCH_S
    assert timeline(execution) == [
        (0, 0.0, pytest.approx(10.0 + LAUNCH_S)),
        (1, 0.0, pytest.approx(step)),
        (1, pytest.approx(step), pytest.approx(2 * step)),
        (1, pytest.approx(2 * step), pytest.approx(3 * step)),
    ]
    assert execution.sim_makespan_s == pytest.approx(10.0 + LAUNCH_S)
    assert [o.value for o in execution.outcomes] == [0, 1, 2, 3]
    assert order == [0, 1, 2, 3]  # bodies ran inline, in dispatch order


def test_uniform_stage_makespan_is_waves_times_task_time():
    runner = StageRunner(slots_on("h1", "h2", "h3"), LAUNCH_S)
    execution = runner.run(specs(8), charging_run_task([1.0] * 8))
    # 8 tasks over 3 slots: three waves on the busiest slot
    assert execution.sim_makespan_s == pytest.approx(3 * (1.0 + LAUNCH_S))


def test_local_slot_preferred_over_idle_remote_one():
    runner = StageRunner(slots_on("h1", "h2"), LAUNCH_S)
    execution = runner.run(specs(2, preferred=[("h2",), ("h2",)]),
                           charging_run_task([1.0, 1.0]))
    assert all(o.ran_on_host == "h2" for o in execution.outcomes)
    # both chained on the one h2 slot while h1 sat idle
    assert execution.sim_makespan_s == pytest.approx(2 * (1.0 + LAUNCH_S))


def test_delay_scheduling_waits_for_preferred_host():
    """A task whose preferred host is busy waits (delay scheduling) and then
    runs locally once the slot frees, instead of going remote at once."""
    runner = StageRunner(slots_on("h1", "h2"), LAUNCH_S, locality_wait_skips=2)
    # task 0 (no preference) grabs h1; task 1 wants h1 and lets h2 idle
    execution = runner.run(specs(2, preferred=[(), ("h1",)]),
                           charging_run_task([0.05, 0.0]))
    first, second = execution.outcomes
    assert second.ran_on_host == "h1"
    assert second.sim_start_s == first.sim_end_s == pytest.approx(0.05 + LAUNCH_S)


def test_delay_scheduling_goes_remote_after_skips_exhausted():
    runner = StageRunner(slots_on("h1", "h2", "h2"), LAUNCH_S,
                         locality_wait_skips=1)
    # task 0 holds h1 throughout; task 3 wants h1 but has patience for one
    # scheduling event, so the second h2 slot to free takes it remote
    execution = runner.run(specs(4, preferred=[(), (), (), ("h1",)]),
                           charging_run_task([5.0, 0.1, 0.2, 0.0]))
    waited = execution.outcomes[3]
    assert waited.ran_on_host == "h2"
    assert waited.sim_start_s == execution.outcomes[1].sim_end_s
    assert waited.sim_end_s < execution.outcomes[0].sim_end_s

    impatient = StageRunner(slots_on("h1", "h2"), LAUNCH_S, locality_wait_skips=0)
    execution = impatient.run(specs(2, preferred=[(), ("h1",)]),
                              charging_run_task([0.05, 0.0]))
    # with zero patience the waiting task accepts the off-host slot at once
    assert execution.outcomes[1].ran_on_host == "h2"
    assert execution.outcomes[1].sim_start_s == 0.0


def test_force_dispatch_guarantees_progress():
    """A task preferring a host no slot lives on must still run."""
    runner = StageRunner(slots_on("h1"), LAUNCH_S, locality_wait_skips=100)
    execution = runner.run(specs(1, preferred=[("elsewhere",)]),
                           charging_run_task([0.0]))
    assert execution.outcomes[0].ran_on_host == "h1"


def test_first_task_error_aborts_the_stage_and_is_reraised():
    started = []

    def run_task(spec, host, slot_idx):
        started.append(spec.index)
        if spec.index == 1:
            raise RuntimeError("boom")
        return TaskOutcome(index=spec.index, value=spec.index,
                           ledger=CostLedger(), placed_host=host,
                           ran_on_host=host)

    runner = StageRunner(slots_on("h1", "h2"), LAUNCH_S)
    with pytest.raises(RuntimeError, match="boom"):
        runner.run(specs(3), run_task)
    assert started == [0, 1]  # task 2 never started


def test_runner_requires_slots():
    with pytest.raises(ValueError):
        StageRunner([], LAUNCH_S)


def test_query_execution_starts_no_threads(monkeypatch):
    """The perf property itself: a multi-stage query runs every task on the
    calling thread -- no worker thread is ever started for a stage, nor for
    a query handed to ``submit_sql``."""
    started = []
    thread_start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        thread_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = threading.active_count()

    session = SparkSession(["h1", "h2"])
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", IntegerType)])
    session.create_dataframe([(i % 5, i) for i in range(200)], schema) \
        .create_or_replace_temp_view("t")
    query = ("SELECT a.k, count(*) AS n FROM t a JOIN t b ON a.v = b.v "
             "GROUP BY a.k ORDER BY a.k")
    futures = [session.submit_sql(query) for __ in range(4)]
    assert all(f.done() for f in futures)

    for result in [session.sql(query).run()] + [f.result() for f in futures]:
        assert [tuple(r.values) for r in result.rows] == \
            [(k, 40) for k in range(5)]
        assert len(result.stages) >= 3
    assert started == []  # in particular nothing named shc-task-* / shc-query-*
    assert threading.active_count() == before
