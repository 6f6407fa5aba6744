"""Ablation: adaptive query execution (runtime-stats re-optimization).

Two workloads whose *estimates* mislead the static planner, on synthetic
relations sized by ``BENCH_SMOKE``:

* **skewed join** -- a fact table where one hot key holds ~80% of the rows.
  The static plan hashes the hot key into a single reduce partition whose
  shuffle read dominates the makespan; AQE (rule 2) splits that partition
  into per-map-chunk tasks that run in parallel.  Acceptance bar from the
  issue: >= 1.5x lower simulated latency.
* **small-dimension join** -- a filtered dimension the size model estimates
  at parent//4 (over the broadcast threshold) but that actually shuffles a
  few hundred bytes.  AQE (rule 1) converts the shuffled join to a
  broadcast join at the stage barrier.

Every configuration must return identical rows.  Deterministic simulated totals
are exported as ``BENCH_aqe.json`` for the CI regression gate
(``check_regression.py``).
"""

import pytest

from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType

from conftest import BENCH_SMOKE, write_bench_json, write_report
from repro.bench.reporting import format_table

FACT_SCHEMA = StructType([
    StructField("fk", IntegerType),
    StructField("payload", StringType),
])
DIM_SCHEMA = StructType([
    StructField("id", IntegerType),
    StructField("name", StringType),
])

HOSTS = ["h1", "h2", "h3", "h4", "h5"]

#: fact-table rows for the skewed-join workload
SKEW_ROWS = 3_000 if BENCH_SMOKE else 12_000
#: fraction of fact rows carrying the single hot key
HOT_FRACTION = 0.8
HOT_KEY = 7
DIM_KEYS = 64

SKEW_CONF = {
    "sql.autoBroadcastJoinThreshold": 1,   # isolate rule 2 from rule 1
    "sql.shuffle.partitions": 8,
    "sql.local.scan.partitions": 8,
}
BROADCAST_CONF = {
    "sql.autoBroadcastJoinThreshold": 1024,
    "sql.local.scan.partitions": 4,
}

SKEW_SQL = "SELECT f.payload, d.name FROM fact f JOIN dim d ON f.fk = d.id"
BROADCAST_SQL = (
    "SELECT f.fk, f.payload, d.name "
    "FROM fact f JOIN (SELECT * FROM dim WHERE id < 3) d ON f.fk = d.id"
)

_RESULTS = {}


def _fact_rows(n, hot_fraction):
    rows = []
    hot = int(n * hot_fraction)
    for i in range(hot):
        rows.append((HOT_KEY, f"hot-payload-{i:06d}-" + "x" * 48))
    for i in range(n - hot):
        rows.append((i % DIM_KEYS, f"payload-{i:06d}-" + "y" * 48))
    return rows


def _dim_rows():
    # wide rows keep the filtered dimension's *estimate* over the broadcast
    # threshold while the actual filtered bytes stay far under it
    return [(i, f"dim-name-{i:03d}-" + "z" * 60) for i in range(DIM_KEYS)]


def _run(sql, conf, adaptive):
    merged = dict(conf, **{"sql.aqe.enabled": adaptive})
    session = SparkSession(HOSTS, conf=merged)
    fact = _fact_rows(SKEW_ROWS, HOT_FRACTION if sql is SKEW_SQL else 0.0)
    session.create_dataframe(fact, FACT_SCHEMA) \
        .create_or_replace_temp_view("fact")
    session.create_dataframe(_dim_rows(), DIM_SCHEMA) \
        .create_or_replace_temp_view("dim")
    result = session.sql(sql).run()
    session.shutdown()
    return result


@pytest.mark.parametrize("label,sql,conf,adaptive", [
    ("skew static", SKEW_SQL, SKEW_CONF, False),
    ("skew adaptive", SKEW_SQL, SKEW_CONF, True),
    ("broadcast static", BROADCAST_SQL, BROADCAST_CONF, False),
    ("broadcast adaptive", BROADCAST_SQL, BROADCAST_CONF, True),
])
def test_aqe(benchmark, label, sql, conf, adaptive):
    _RESULTS[label] = benchmark.pedantic(
        lambda: _run(sql, conf, adaptive), iterations=1, rounds=1)


def test_aqe_report(benchmark):
    def report():
        rows = []
        for label, run in _RESULTS.items():
            rows.append([
                label,
                f"{run.seconds:.2f}s",
                f"{int(run.metrics.get('engine.tasks'))}",
                f"{int(run.metrics.get('engine.aqe.skew_splits'))}",
                f"{int(run.metrics.get('engine.aqe.broadcast_conversions'))}",
            ])
        write_report(
            "ablation_aqe",
            format_table(
                ["configuration", "sim latency", "tasks",
                 "skew splits", "broadcast conversions"],
                rows,
                f"Ablation: adaptive query execution "
                f"({SKEW_ROWS} fact rows, hot fraction {HOT_FRACTION})",
            ),
        )

        # identical answers with and without re-optimization
        for static_label, aqe_label in (
            ("skew static", "skew adaptive"),
            ("broadcast static", "broadcast adaptive"),
        ):
            assert sorted(tuple(r.values)
                          for r in _RESULTS[static_label].rows) == \
                sorted(tuple(r.values) for r in _RESULTS[aqe_label].rows), \
                static_label

        # static runs must not touch any adaptive machinery
        for label in ("skew static", "broadcast static"):
            for key in _RESULTS[label].metrics.snapshot():
                assert not key.startswith("engine.aqe."), (label, key)

        skew_static = _RESULTS["skew static"]
        skew_aqe = _RESULTS["skew adaptive"]
        speedup = skew_static.seconds / skew_aqe.seconds
        # the issue's acceptance bar: splitting the hot partition cuts the
        # simulated makespan by >= 1.5x
        assert speedup >= 1.5, speedup
        assert skew_aqe.metrics.get("engine.aqe.skew_splits") >= 1.0

        bc_static = _RESULTS["broadcast static"]
        bc_aqe = _RESULTS["broadcast adaptive"]
        conversions = bc_aqe.metrics.get("engine.aqe.broadcast_conversions")
        assert conversions >= 1.0
        assert any(e["rule"] == "broadcast-conversion"
                   for e in bc_aqe.reopt_events)

        write_bench_json("aqe", {
            "skew_baseline_sim_seconds": {
                "value": skew_static.seconds, "direction": "lower"},
            "skew_aqe_sim_seconds": {
                "value": skew_aqe.seconds, "direction": "lower"},
            "skew_speedup": {
                "value": speedup, "direction": "higher"},
            "skew_splits": {
                "value": skew_aqe.metrics.get("engine.aqe.skew_splits"),
                "direction": "higher"},
            "broadcast_baseline_sim_seconds": {
                "value": bc_static.seconds, "direction": "lower"},
            "broadcast_aqe_sim_seconds": {
                "value": bc_aqe.seconds, "direction": "lower"},
            "broadcast_conversions": {
                "value": conversions, "direction": "higher"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
