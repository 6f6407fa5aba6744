"""Ablation: vectorized columnar execution (batch kernels + fusion).

Two workloads, three configurations each -- row engine, vectorized,
vectorized with whole-stage fusion disabled:

* **scan-heavy leg** -- a synthetic wide-conjunct filter + expression-heavy
  aggregation over a driver-local relation, so measured wall clock is
  pure operator CPU (tasks run inline).  This is where batch kernels
  shine: the row path walks an expression tree per row while the vectorized
  path runs a handful of column kernels per 1024-row batch.  Acceptance bar
  from the issue: **>= 2x measured wall-clock speedup**.
* **q39a + fig4 suite** -- the paper's TPC-DS repro queries (q39a, q39b,
  q38) full-stack over the HBase substrate, each configuration against a
  freshly loaded environment so block-cache state cannot leak between legs.
  Rows must be identical in all three configurations.

Wall clock is asserted in-bench (ratios, not absolutes) but never exported:
``BENCH_vectorized.json`` carries only deterministic simulated totals and
batch/fusion counter values for the CI regression gate
(``check_regression.py --require vectorized``).
"""

import random
import time

import pytest

from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, LongType, StringType, StructField, StructType
from repro.workloads import load_tpcds
from repro.workloads.queries import q38, q39a, q39b
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES

from conftest import BENCH_SMOKE, FIXED_SIZE_GB, write_bench_json, write_report
from repro.bench.reporting import format_table

SCAN_SCHEMA = StructType([
    StructField("id", LongType),
    StructField("k", LongType),
    StructField("v", DoubleType),
    StructField("tag", StringType),
])

#: scan-heavy relation size; the speedup ratio is scale-stable, so smoke
#: only needs enough rows to swamp fixed scheduling overhead
SCAN_ROWS = 60_000 if BENCH_SMOKE else 120_000

#: wide non-selective conjuncts + expression-heavy aggregates: every row
#: pays the full interpreter walk on the row path, one kernel sweep per
#: expression on the batch path
SCAN_HEAVY_SQL = (
    "SELECT count(*) AS n, sum(v * 2.0 + 1.0) AS s1, sum(v * v - k) AS s2, "
    "sum(k % 7) AS s3, max(v + k) AS mx "
    "FROM t WHERE k >= 0 AND k < 990 AND v > 0.5 AND v < 99.5 "
    "AND id % 97 != 96 AND k % 13 != 12 AND v * 2.0 < 199.0"
)

CONFIGS = {
    "row": {"sql.vectorized.enabled": False},
    "vectorized": {"sql.vectorized.enabled": True},
    "vectorized nofusion": {"sql.vectorized.enabled": True,
                            "sql.vectorized.fusion": False},
}

_SCAN_RESULTS = {}
_SUITE_RESULTS = {}


def _scan_rows():
    rng = random.Random(7)
    return [(i, rng.randint(0, 999), rng.uniform(0.0, 100.0),
             rng.choice(["a", "b", "c", None])) for i in range(SCAN_ROWS)]


def _run_scan_heavy(conf):
    """Best-of-3 wall clock, plus the (deterministic) last QueryResult for
    simulated totals and counters."""
    session = SparkSession(["h1", "h2"], conf=conf)
    session.create_dataframe(_scan_rows(), SCAN_SCHEMA) \
        .create_or_replace_temp_view("t")
    best_wall = None
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = session.sql(SCAN_HEAVY_SQL).run()
        wall = time.perf_counter() - start
        best_wall = wall if best_wall is None else min(best_wall, wall)
    session.shutdown()
    return result, best_wall


@pytest.mark.parametrize("label", list(CONFIGS))
def test_scan_heavy(benchmark, label):
    _SCAN_RESULTS[label] = benchmark.pedantic(
        lambda: _run_scan_heavy(CONFIGS[label]), iterations=1, rounds=1)


FIG4_QUERIES = (("q39a", q39a, Q39_TABLES), ("q39b", q39b, Q39_TABLES),
                ("q38", q38, Q38_TABLES))


def _run_suite(conf):
    """q39a/q39b/q38 full-stack, one fresh environment per query+config."""
    runs = {}
    for name, query_fn, tables in FIG4_QUERIES:
        env = load_tpcds(FIXED_SIZE_GB, tables)
        session = env.new_session(conf=conf)
        runs[name] = session.sql(query_fn()).run()
        session.shutdown()
    return runs


@pytest.mark.parametrize("label", list(CONFIGS))
def test_fig4_suite(benchmark, label):
    _SUITE_RESULTS[label] = benchmark.pedantic(
        lambda: _run_suite(CONFIGS[label]), iterations=1, rounds=1)


def test_vectorized_report(benchmark):
    def report():
        table_rows = []
        for label in CONFIGS:
            result, wall = _SCAN_RESULTS[label]
            suite = _SUITE_RESULTS[label]
            suite_sim = sum(r.seconds for r in suite.values())
            table_rows.append([
                label,
                f"{wall:.3f}s",
                f"{result.seconds:.2f}s",
                f"{suite_sim:.2f}s",
                f"{int(result.metrics.get('engine.vectorized.batches'))}",
                f"{int(result.metrics.get('engine.vectorized.fused_operators'))}",
            ])
        write_report(
            "ablation_vectorized",
            format_table(
                ["configuration", "scan wall (best of 3)", "scan sim",
                 "fig4 suite sim", "batches", "fused ops"],
                table_rows,
                f"Ablation: vectorized execution "
                f"({SCAN_ROWS} scan rows, {FIXED_SIZE_GB}GB suite)",
            ),
        )

        # identical answers everywhere: the scan leg ...
        row_scan, row_wall = _SCAN_RESULTS["row"]
        want = [tuple(r.values) for r in row_scan.rows]
        for label in ("vectorized", "vectorized nofusion"):
            got = [tuple(r.values) for r in _SCAN_RESULTS[label][0].rows]
            assert got == want, label
        # ... and q39a + the whole fig4 suite
        for name, __, __tables in FIG4_QUERIES:
            want = [tuple(r.values) for r in _SUITE_RESULTS["row"][name].rows]
            for label in ("vectorized", "vectorized nofusion"):
                got = [tuple(r.values)
                       for r in _SUITE_RESULTS[label][name].rows]
                assert got == want, (name, label)

        # the row engine must not touch any vectorized machinery
        for result in (row_scan, *_SUITE_RESULTS["row"].values()):
            for key in result.metrics.snapshot():
                assert not key.startswith("engine.vectorized."), key

        vec_scan, vec_wall = _SCAN_RESULTS["vectorized"]
        wall_speedup = row_wall / vec_wall
        # the issue's acceptance bar: batch kernels + fusion cut measured
        # wall clock on the scan-heavy leg by >= 2x
        assert wall_speedup >= 2.0, wall_speedup
        assert vec_scan.metrics.get("engine.vectorized.fused_operators") >= 2
        print(f"scan-heavy wall-clock speedup: {wall_speedup:.2f}x")

        sim_speedup = row_scan.seconds / vec_scan.seconds
        q39a_row = _SUITE_RESULTS["row"]["q39a"]
        q39a_vec = _SUITE_RESULTS["vectorized"]["q39a"]
        q39a_nof = _SUITE_RESULTS["vectorized nofusion"]["q39a"]
        write_bench_json("vectorized", {
            "scan_row_sim_seconds": {
                "value": row_scan.seconds, "direction": "lower"},
            "scan_vectorized_sim_seconds": {
                "value": vec_scan.seconds, "direction": "lower"},
            "scan_sim_speedup": {
                "value": sim_speedup, "direction": "higher"},
            "scan_batches": {
                "value": vec_scan.metrics.get("engine.vectorized.batches"),
                "direction": "higher"},
            "scan_fused_operators": {
                "value": vec_scan.metrics.get(
                    "engine.vectorized.fused_operators"),
                "direction": "higher"},
            "q39a_row_sim_seconds": {
                "value": q39a_row.seconds, "direction": "lower"},
            "q39a_vectorized_sim_seconds": {
                "value": q39a_vec.seconds, "direction": "lower"},
            "q39a_nofusion_sim_seconds": {
                "value": q39a_nof.seconds, "direction": "lower"},
            "fig4_suite_vectorized_sim_seconds": {
                "value": sum(r.seconds for r in
                             _SUITE_RESULTS["vectorized"].values()),
                "direction": "lower"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
