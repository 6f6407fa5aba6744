"""The span-tree recorder: determinism, failure accounting, zero overhead."""

import json

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.tracing import (
    NOOP_SPAN,
    Span,
    load_trace,
    render_trace,
    save_trace,
)
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


# -- the Span primitive -------------------------------------------------------

def test_span_tree_basics():
    root = Span("query", "query")
    stage = root.child("stage-1", "stage", order=(2, 1), num_tasks=2)
    stage.child("task-1", "task", order=(1, 0)).finish(sim_seconds=0.5)
    stage.child("task-0", "task", order=(0, 0)).finish(sim_seconds=0.25)
    stage.event("checkpoint", n=1)
    stage.finish(sim_seconds=0.5, metrics={"engine.tasks": 2.0})
    root.finish(sim_seconds=0.5)

    # children sorted by their order key, not creation order
    assert [c.name for c in stage.children] == ["task-0", "task-1"]
    assert [s.name for s in root.find("task")] == ["task-0", "task-1"]
    assert root.total("engine.tasks") == 2.0
    assert stage.wall_clock_s >= 0.0
    assert stage.events == [{"event": "checkpoint", "n": 1}]


def test_span_mixed_missing_orders_keep_insertion_order():
    root = Span("query", "query")
    root.child("b", "span")               # no order key
    root.child("a", "span", order=0)
    root.finish()
    assert [c.name for c in root.children] == ["b", "a"]


def test_span_json_roundtrip(tmp_path):
    root = Span("query", "query")
    root.child("stage-1", "stage", order=(2, 1)).finish(sim_seconds=1.25)
    root.set(rows=3)
    root.finish(sim_seconds=1.25, metrics={"hbase.rpcs": 4.0})

    path = tmp_path / "trace.json"
    save_trace(root, str(path))
    loaded = load_trace(str(path))
    assert loaded == root.to_dict()
    assert loaded["attrs"] == {"rows": 3}
    assert loaded["metrics"] == {"hbase.rpcs": 4.0}
    assert loaded["children"][0]["sim_seconds"] == 1.25
    # to_json is the same document
    assert json.loads(root.to_json()) == loaded


def test_render_trace_is_readable():
    root = Span("query", "query")
    stage = root.child("stage-1", "stage", order=(2, 1), stage_kind="result")
    stage.event("hbase-retry", attempt=1)
    stage.finish(sim_seconds=0.5)
    root.finish(sim_seconds=0.5)
    text = render_trace(root.to_dict(), show_metrics=True)
    assert "query [query]" in text
    assert "stage-1 [stage]" in text.splitlines()[1]
    assert "stage_kind=result" in text
    assert "! hbase-retry" in text


def test_noop_span_collapses_everything():
    child = NOOP_SPAN.child("x", "stage", order=1)
    assert child is NOOP_SPAN
    assert not NOOP_SPAN.enabled
    NOOP_SPAN.event("ignored")
    NOOP_SPAN.set(ignored=True)
    assert NOOP_SPAN.finish(sim_seconds=9.9) is NOOP_SPAN
    assert NOOP_SPAN.sim_seconds == 0.0
    assert NOOP_SPAN.find("stage") == []
    assert NOOP_SPAN.to_dict() == {}


# -- the scheduler as a producer ---------------------------------------------

def test_trace_shape_is_deterministic_under_parallel_runner():
    """Same job, many parallel runs: identical span tree every time."""
    def shape(span):
        return (span.name, span.kind,
                [shape(c) for c in span.children])

    shapes = []
    for _ in range(5):
        trace = Span("query", "query")
        scheduler = make_scheduler(hosts=("h1", "h2", "h3"), executors=3,
                                   trace=trace)
        rdd = ParallelCollectionRDD(range(12), 6) \
            .map_partitions(charging(0.2)) \
            .partition_by(2, key_fn=lambda x: x)
        result = scheduler.run_job(rdd)
        trace.finish(sim_seconds=result.seconds)
        shapes.append(shape(trace))
        assert sorted(result.rows()) == list(range(12))

    assert all(s == shapes[0] for s in shapes)
    stage_names, task_names = [], []
    for stage in (c for c in trace.children if c.kind == "stage"):
        stage_names.append(stage.name)
        task_names.append([t.name for t in stage.children])
    assert stage_names == ["stage-1", "stage-2"]
    assert task_names[0] == [f"task-{i}" for i in range(6)]
    assert task_names[1] == ["task-0", "task-1"]


def test_retried_task_records_every_attempt():
    trace = Span("query", "query")
    scheduler = make_scheduler(trace=trace)
    attempts = {"n": 0}

    def flaky(rows, ctx):
        ctx.ledger.charge(0.7)
        attempts["n"] += 1
        if attempts["n"] <= 2:
            raise RuntimeError("transient")
        return rows

    rdd = ParallelCollectionRDD([1, 2, 3], 1).map_partitions(flaky)
    result = scheduler.run_job(rdd)
    trace.finish(sim_seconds=result.seconds)

    (task,) = trace.find("task")
    tries = [c for c in task.children if c.kind == "attempt"]
    assert [a.name for a in tries] == ["attempt-1", "attempt-2", "attempt-3"]
    assert [a.attrs.get("failed", False) for a in tries] == [True, True, False]
    assert "transient" in tries[0].attrs["error"]
    # the task's simulated time covers all three attempts plus backoff;
    # each attempt span carries only its own 0.7s of work
    backoff = result.metrics.get("engine.retry_backoff_s")
    assert task.sim_seconds >= 3 * 0.7 + backoff
    for attempt in tries:
        assert 0.7 <= attempt.sim_seconds < task.sim_seconds


def test_disabled_tracing_changes_nothing():
    """Identical ledger totals and metric snapshots with and without the
    recorder -- tracing must only observe."""
    def run(trace):
        scheduler = make_scheduler(trace=trace)
        rdd = ParallelCollectionRDD(range(12), 4) \
            .map_partitions(charging(0.5)) \
            .partition_by(2, key_fn=lambda x: x)
        return scheduler.run_job(rdd)

    traced = run(Span("query", "query"))
    untraced = run(NOOP_SPAN)
    assert traced.seconds == untraced.seconds
    assert traced.metrics.snapshot() == untraced.metrics.snapshot()
    assert sorted(traced.rows()) == sorted(untraced.rows())
