"""Ablation: materialized views for a repeated dashboard aggregation.

The workload the views subsystem exists for (docs/views.md): the same
GROUP BY dashboard query refreshed over and over against a big fact table.
Three measurements:

* **dashboard** -- the repeated aggregate with and without a matching
  materialized view.  The acceptance bar from the issue: the view-answered
  query is >= 5x faster in *simulated* cost and in wall-clock time, with
  byte-identical answers.
* **maintenance** -- a Put batch lands on the base table and the CDC feed
  repairs the view incrementally; the incremental cost must stay under 10%
  of a full recomputation (``REFRESH MATERIALIZED VIEW``), and the repaired
  view must again answer byte-identically to a fresh recompute.  After the
  recompute, an overwrite leg gives loaded rows on as many days a new
  quantity: the maintainer swaps each prior version for the new one, and
  its simulated seconds and RPCs are reported (not part of the text table).
* **invariance spot-check** -- the flag-off run carries no ``sql.view.*``
  or ``hbase.cdc.*`` counters (the full guarantee is pinned by
  tests/integration/test_view_invariance.py).

Inventory is loaded at a fixed nominal size (independent of BENCH_SMOKE:
the simulated totals stay scale-comparable and the load is seconds of real
time), so the committed baseline gates both CI jobs.

Deterministic simulated totals are exported as ``BENCH_views.json`` for
the CI regression gate (``check_regression.py --require views``).
"""

import time

import pytest

from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.hbase import ConnectionFactory
from repro.workloads.loader import load_tpcds
from repro.workloads.tpcds_gen import DATE_SK_BASE

from conftest import write_bench_json, write_report
from repro.bench.reporting import format_table

#: nominal TPC-DS size for the fact table (inventory rows scale with it)
VIEWS_SIZE_GB = 60
#: how many times the dashboard re-runs the same aggregation
REPEATS = 3
#: base-table mutation batch repaired incrementally by the CDC feed
MAINTENANCE_BATCH = 50
#: loaded rows, one per weekly snapshot day, overwritten in the last leg
OVERWRITE_BATCH = 20

DASHBOARD = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
             "sum(inv_quantity_on_hand) AS on_hand, "
             "avg(inv_quantity_on_hand) AS avg_on_hand "
             "FROM inventory GROUP BY inv_date_sk")

_RESULTS = {}


@pytest.fixture(scope="module")
def views_env():
    return load_tpcds(VIEWS_SIZE_GB, ["inventory"])


def _timed_runs(session, query, repeats):
    """(results, total simulated seconds, total wall seconds)."""
    runs = []
    start = time.perf_counter()
    for _ in range(repeats):
        runs.append(session.sql(query).run())
    wall = time.perf_counter() - start
    return runs, sum(r.seconds for r in runs), wall


def test_views_dashboard(benchmark, views_env):
    def workload():
        base_session = views_env.new_session()
        base_runs, base_sim, base_wall = _timed_runs(
            base_session, DASHBOARD, REPEATS)
        base_session.shutdown()

        view_session = views_env.new_session()
        # build cost via the shared simulated clock: the CREATE statement's
        # QueryResult only prices its summary relation, while the
        # materializing scan+write advances the clock inline
        clock_before = views_env.cluster.clock.now()
        view_session.sql(
            f"CREATE MATERIALIZED VIEW inv_by_date AS {DASHBOARD}").run()
        build_sim = views_env.cluster.clock.now() - clock_before
        view_runs, view_sim, view_wall = _timed_runs(
            view_session, DASHBOARD, REPEATS)
        _RESULTS["dashboard"] = {
            "base_runs": base_runs, "view_runs": view_runs,
            "base_sim": base_sim, "view_sim": view_sim,
            "base_wall": base_wall, "view_wall": view_wall,
            "build_sim": build_sim,
            "view_session": view_session,
        }

    benchmark.pedantic(workload, iterations=1, rounds=1)


def test_views_maintenance(benchmark, views_env):
    def workload():
        session = _RESULTS["dashboard"]["view_session"]
        cluster = views_env.cluster
        maintainer = session.views.maintainer("inv_by_date")

        catalog = HBaseTableCatalog.from_json(
            views_env.reader_options("inventory")["catalog"])
        codec = RowCodec(catalog)
        table = ConnectionFactory.create_connection(
            cluster.configuration()).get_table(catalog.qualified_name)
        table.put([codec.encode_row({
            "inv_date_sk": 2456100, "inv_item_sk": item_sk,
            "inv_warehouse_sk": 1, "inv_quantity_on_hand": 40,
        }) for item_sk in range(1, MAINTENANCE_BATCH + 1)])

        before = maintainer.ledger.seconds + cluster.cdc.ledger.seconds
        cluster.run_maintenance()
        incremental = (maintainer.ledger.seconds
                       + cluster.cdc.ledger.seconds - before)

        repaired = session.sql(DASHBOARD).run()
        # recompute cost via the shared simulated clock: the REFRESH
        # statement's own QueryResult only prices the summary relation,
        # while the rematerializing scan+write advances the clock inline
        clock_before = cluster.clock.now()
        session.sql("REFRESH MATERIALIZED VIEW inv_by_date").run()
        _RESULTS["maintenance"] = {
            "incremental_sim": incremental,
            "refresh_sim": cluster.clock.now() - clock_before,
            "repaired": repaired,
            "fresh": views_env.new_session().sql(DASHBOARD).run(),
        }

        # every (weekly day, item, warehouse) is loaded: item 1 at
        # warehouse 1 on the first OVERWRITE_BATCH days takes a new quantity
        table.put([codec.encode_row({
            "inv_date_sk": DATE_SK_BASE + 7 * week, "inv_item_sk": 1,
            "inv_warehouse_sk": 1, "inv_quantity_on_hand": 7,
        }) for week in range(OVERWRITE_BATCH)])
        seconds = maintainer.ledger.seconds
        rpcs = cluster.metrics.get("hbase.rpcs")
        cluster.run_maintenance()
        _RESULTS["overwrite"] = {
            "sim": maintainer.ledger.seconds - seconds,
            "rpcs": cluster.metrics.get("hbase.rpcs") - rpcs,
            "answered": session.sql(DASHBOARD).run(),
            "fresh": views_env.new_session().sql(DASHBOARD).run(),
        }

    benchmark.pedantic(workload, iterations=1, rounds=1)


def test_views_report(benchmark, views_env):
    def report():
        dash = _RESULTS["dashboard"]
        maint = _RESULTS["maintenance"]
        sim_speedup = dash["base_sim"] / dash["view_sim"]
        wall_speedup = dash["base_wall"] / dash["view_wall"]
        ratio = maint["incremental_sim"] / maint["refresh_sim"]

        write_report(
            "ablation_views",
            format_table(
                ["configuration", f"sim latency x{REPEATS}", "wall",
                 "speedup"],
                [
                    ["base scan", f"{dash['base_sim']:.2f}s",
                     f"{dash['base_wall']:.2f}s", "1.0x"],
                    ["materialized view", f"{dash['view_sim']:.2f}s",
                     f"{dash['view_wall']:.2f}s",
                     f"{sim_speedup:.1f}x sim / {wall_speedup:.1f}x wall"],
                    ["incremental maintenance",
                     f"{maint['incremental_sim']:.3f}s", "-",
                     f"{ratio:.1%} of refresh "
                     f"({maint['refresh_sim']:.2f}s)"],
                ],
                f"Ablation: materialized views ({REPEATS}x dashboard, "
                f"{VIEWS_SIZE_GB} GB inventory, "
                f"{MAINTENANCE_BATCH}-row maintenance batch)",
            ),
        )

        # byte-identical answers, every iteration, both configurations
        expected = sorted(tuple(r.values) for r in dash["base_runs"][0].rows)
        for run in dash["base_runs"] + dash["view_runs"]:
            assert sorted(tuple(r.values) for r in run.rows) == expected
        for run in dash["view_runs"]:
            assert [e["action"] for e in run.view_events] == ["rewrites"]

        # flag-off runs carry no view machinery at all
        for run in dash["base_runs"]:
            for key in run.metrics.snapshot():
                assert not key.startswith("sql.view."), key
                assert not key.startswith("hbase.cdc."), key

        # the issue's acceptance bars
        assert sim_speedup >= 5.0, sim_speedup
        assert wall_speedup >= 5.0, wall_speedup
        assert ratio < 0.10, ratio

        # after maintenance the view still answers, byte-identical to a
        # fresh recomputation over the mutated base table
        overwrite = _RESULTS["overwrite"]
        for answered, fresh in ((maint["repaired"], maint["fresh"]),
                                (overwrite["answered"], overwrite["fresh"])):
            assert [e["action"] for e in answered.view_events] == ["rewrites"]
            assert sorted(tuple(r.values) for r in answered.rows) \
                == sorted(tuple(r.values) for r in fresh.rows)
        assert sorted(tuple(r.values) for r in overwrite["answered"].rows) \
            != sorted(tuple(r.values) for r in maint["repaired"].rows)
        _RESULTS["dashboard"]["view_session"].shutdown()

        write_bench_json("views", {
            "base_dashboard_sim_seconds": {
                "value": dash["base_sim"], "direction": "lower"},
            "view_dashboard_sim_seconds": {
                "value": dash["view_sim"], "direction": "lower"},
            "dashboard_sim_speedup": {
                "value": sim_speedup, "direction": "higher"},
            "view_build_sim_seconds": {
                "value": dash["build_sim"], "direction": "lower"},
            "maintenance_sim_seconds": {
                "value": maint["incremental_sim"], "direction": "lower"},
            "refresh_sim_seconds": {
                "value": maint["refresh_sim"], "direction": "lower"},
            "maintenance_cost_ratio": {
                "value": ratio, "direction": "lower"},
            "overwrite_maintainer_sim_seconds": {
                "value": overwrite["sim"], "direction": "lower"},
            "overwrite_maintainer_rpcs": {
                "value": overwrite["rpcs"], "direction": "lower"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
