"""Ablation: executor slots on the stage runner.

One runner, four cluster widths: the scan-heavy TPC-DS q39a query runs on
1, 2, 4 and 8 single-core executors.  Tasks execute inline on the calling
thread, so what more slots buy is a shorter *simulated* schedule; with
``engine.realtime.scale`` the runner sleeps each stage's simulated makespan
scaled down -- the off-CPU I/O wait of real region scans -- and wall clock
follows that schedule.  The bars below say exactly that: wall-clock speedup
tracks the simulated-latency ratio.

Every width executes identical work: the rows and the simulated work
metrics (cells decoded, shuffle bytes, task count) must match exactly;
only placement-dependent quantities (makespan, locality) may differ.
"""

import pytest

from repro.bench.reporting import format_table
from repro.core.relation import DEFAULT_FORMAT
from repro.workloads.queries import q39a

from conftest import write_bench_json, write_report

#: real seconds slept per simulated second of stage makespan (I/O emulation)
REALTIME_SCALE = 0.1
SLOT_COUNTS = (1, 2, 4, 8)

_RESULTS = {}


def _run(env, slots):
    session = env.new_session(
        DEFAULT_FORMAT,
        executors_requested=slots,
        cores_per_executor=1,
        conf={"engine.realtime.scale": REALTIME_SCALE},
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
                f"{r.wall_clock_s:.2f}s",
                f"{one.wall_clock_s / r.wall_clock_s:.1f}x",
                f"{r.seconds:.1f}s",
                f"{one.seconds / r.seconds:.1f}x",
                f"{len(r.rows)}",
            ])
        write_report(
            "ablation_parallelism",
            format_table(
                ["configuration", "wall clock", "speedup",
                 "simulated latency", "sim speedup", "rows"],
                rows,
                "Ablation: executor slots on the inline stage runner (q39a, "
                f"realtime scale {REALTIME_SCALE})",
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
        # the acceptance bars: >= 2x wall-clock speedup at 8 slots, and wall
        # follows the simulated schedule -- the x4 wall speedup sits within
        # 15% of the x4 simulated-latency ratio
        four, eight = _RESULTS[4], _RESULTS[8]
        assert one.wall_clock_s / eight.wall_clock_s >= 2.0
        wall_speedup = one.wall_clock_s / four.wall_clock_s
        sim_speedup = one.seconds / four.seconds
        assert abs(wall_speedup - sim_speedup) <= 0.15 * sim_speedup, \
            (wall_speedup, sim_speedup)

        # regression-gate artifact: simulated quantities only -- wall-clock
        # speedups are real-machine-dependent and would flake the gate
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
