"""Ablation: the cost-based optimizer on a star join (docs/optimizer.md).

A star query written in the worst syntactic order: the fact table joins a
same-cardinality dimension first (nothing is eliminated, every wide fact
row crosses the shuffle), and only then the tiny selective dimension that
keeps ~5% of the keys.  Two legs:

* **cbo off** -- the session ran no ANALYZE: shuffle everything in
  syntactic order.
* **analyze** -- every table ANALYZEd: the DP search hoists the selective
  tiny join next to the fact table, and that shuffled join pushes the tiny
  build's distinct keys, dropping the fact rows that cannot match *before*
  the first shuffle.  The shuffle-bytes column shows both effects.

The ANALYZE statements run before the measured query, so the legs isolate
the *decisions*, not ANALYZE cost.  The broadcast threshold is pinned tiny
to keep every join shuffled -- the ablation measures reordering and the
runtime key filter, not broadcast conversion.
Acceptance bar from the issue: the full CBO leg must be >= 5x cheaper in
simulated seconds than the un-ANALYZEd leg.  Every leg must return identical
rows.  Totals are exported as ``BENCH_cbo.json`` for the CI regression
gate (``check_regression.py --require cbo``).
"""

import pytest

from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, \
    StructType

from conftest import BENCH_SMOKE, write_bench_json, write_report
from repro.bench.reporting import format_table

FACT_SCHEMA = StructType([
    StructField("fk1", IntegerType),
    StructField("fk2", IntegerType),
    StructField("v", DoubleType),
    StructField("payload", StringType),
])
DIM_SCHEMA = StructType([
    StructField("dk", IntegerType),
    StructField("dname", StringType),
])
TINY_SCHEMA = StructType([
    StructField("tk", IntegerType),
    StructField("tname", StringType),
])

HOSTS = ["h1", "h2", "h3", "h4", "h5"]

#: fact-table rows for the star workload
FACT_ROWS = 3_000 if BENCH_SMOKE else 10_000
DIM_KEYS = 400
FACT_TK_KEYS = 40
#: the selective dimension covers 5% of the fact's tk domain
TINY_KEYS = 2

BASE_CONF = {
    "sql.autoBroadcastJoinThreshold": 1,   # keep every join shuffled
    "sql.shuffle.partitions": 8,
    "sql.local.scan.partitions": 4,
}

#: worst syntactic order: the non-reducing dim join comes first
STAR_SQL = (
    "SELECT t.tname, d.dname, f.v, f.payload FROM fact f "
    "JOIN dim d ON f.fk1 = d.dk "
    "JOIN tiny t ON f.fk2 = t.tk"
)

#: leg -> ANALYZE every table first?
LEGS = {"cbo off": False, "analyze": True}

_RESULTS = {}


def _run(analyze):
    session = SparkSession(HOSTS, conf=dict(BASE_CONF))
    fact = [(i % DIM_KEYS, i % FACT_TK_KEYS, float(i),
             f"payload-{i:06d}-" + "x" * 320) for i in range(FACT_ROWS)]
    dim = [(k, f"dim-{k:03d}") for k in range(DIM_KEYS)]
    tiny = [(k, f"tiny-{k}") for k in range(TINY_KEYS)]
    session.create_dataframe(fact, FACT_SCHEMA) \
        .create_or_replace_temp_view("fact")
    session.create_dataframe(dim, DIM_SCHEMA) \
        .create_or_replace_temp_view("dim")
    session.create_dataframe(tiny, TINY_SCHEMA) \
        .create_or_replace_temp_view("tiny")
    if analyze:
        for table in ("fact", "dim", "tiny"):
            session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    result = session.sql(STAR_SQL).run()
    session.shutdown()
    return result


@pytest.mark.parametrize("label", list(LEGS))
def test_cbo(benchmark, label):
    _RESULTS[label] = benchmark.pedantic(
        lambda: _run(LEGS[label]), iterations=1, rounds=1)


def test_cbo_report(benchmark):
    def report():
        rows = []
        for label, run in _RESULTS.items():
            rows.append([
                label,
                f"{run.seconds:.2f}s",
                f"{int(run.metrics.get('sql.cbo.reorders_applied'))}",
                f"{int(run.metrics.get('engine.shuffle_write_bytes'))}",
            ])
        write_report(
            "ablation_cbo",
            format_table(
                ["configuration", "sim latency", "reorders", "shuffle bytes"],
                rows,
                f"Ablation: cost-based optimizer on a star join "
                f"({FACT_ROWS} fact rows, {TINY_KEYS}/{FACT_TK_KEYS} "
                f"selective keys)",
            ),
        )

        # identical answers on every leg
        expected = sorted(tuple(r.values) for r in _RESULTS["cbo off"].rows)
        for label, run in _RESULTS.items():
            assert sorted(tuple(r.values) for r in run.rows) == expected, label

        # without statistics nothing cost-based runs
        for key in _RESULTS["cbo off"].metrics.snapshot():
            assert not key.startswith("sql.cbo."), key

        full = _RESULTS["analyze"]
        assert full.metrics.get("sql.cbo.reorders_applied") >= 1.0

        off_seconds = _RESULTS["cbo off"].seconds
        speedup = off_seconds / full.seconds
        # the issue's acceptance bar: the full CBO plan is >= 5x cheaper
        assert speedup >= 5.0, speedup

        write_bench_json("cbo", {
            "cbo_off_sim_seconds": {
                "value": off_seconds, "direction": "lower"},
            "cbo_full_sim_seconds": {
                "value": full.seconds, "direction": "lower"},
            "cbo_speedup": {
                "value": speedup, "direction": "higher"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
