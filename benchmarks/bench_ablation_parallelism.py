"""Ablation: executor slots on the stage runner.

One runner, four cluster widths: the scan-heavy TPC-DS q39a query runs on
1, 2, 4 and 8 single-core executors.  Tasks execute inline on the calling
thread, so what more slots buy is a shorter *simulated* schedule -- the
only clock the table reports.

Every width executes identical work: the rows and the simulated work
metrics (cells decoded, shuffle bytes, task count) must match exactly;
only placement-dependent quantities (makespan, locality) may differ.
"""

import pytest

from repro.bench.reporting import format_table
from repro.core.relation import DEFAULT_FORMAT
from repro.workloads.queries import q39a

from conftest import write_bench_json, write_report

SLOT_COUNTS = (1, 2, 4, 8)

_RESULTS = {}


def _run(env, slots):
    session = env.new_session(
        DEFAULT_FORMAT,
        executors_requested=slots,
        cores_per_executor=1,
    )
    return session.sql(q39a()).run()


@pytest.mark.parametrize("slots", SLOT_COUNTS)
def test_slots(benchmark, q39_env_fixed, slots):
    result = benchmark.pedantic(
        lambda: _run(q39_env_fixed, slots), iterations=1, rounds=1,
    )
    _RESULTS[slots] = result


def test_parallelism_report(benchmark):
    def report():
        one = _RESULTS[1]
        rows = []
        for slots, r in _RESULTS.items():
            rows.append([
                f"slots x{slots}",
                f"{r.seconds:.1f}s",
                f"{one.seconds / r.seconds:.1f}x",
                f"{len(r.rows)}",
            ])
        write_report(
            "ablation_parallelism",
            format_table(
                ["configuration", "simulated latency", "sim speedup", "rows"],
                rows,
                "Ablation: executor slots on the inline stage runner (q39a)",
            ),
        )
        # identical answers and identical simulated *work* at every width --
        # only placement-dependent metrics (makespan, locality) may move
        expected_rows = sorted(tuple(r.values) for r in one.rows)
        for slots, r in _RESULTS.items():
            assert sorted(tuple(row.values) for row in r.rows) == expected_rows
            for key in ("engine.tasks", "engine.shuffle_write_bytes",
                        "shc.cells_decoded", "hbase.bytes_scanned"):
                assert r.metrics.get(key) == one.metrics.get(key), (slots, key)
            # the streaming scan path must not regress the memory proxy
            assert r.peak_memory_bytes <= one.peak_memory_bytes
        # the acceptance bar: >= 2x simulated speedup at 8 slots
        four, eight = _RESULTS[4], _RESULTS[8]
        assert one.seconds / eight.seconds >= 2.0

        # regression-gate artifact
        write_bench_json("parallelism", {
            "slots_x1_sim_seconds": {
                "value": one.seconds, "direction": "lower"},
            "slots_x4_sim_seconds": {
                "value": four.seconds, "direction": "lower"},
            "tasks": {
                "value": one.metrics.get("engine.tasks"),
                "direction": "lower"},
            "hdfs_read_bytes": {
                "value": one.metrics.get("hbase.bytes_scanned"),
                "direction": "lower"},
            "shuffle_write_bytes": {
                "value": one.metrics.get("engine.shuffle_write_bytes"),
                "direction": "lower"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
