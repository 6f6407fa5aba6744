"""Ablation: the region-server block cache.

A repeated-scan workload -- the same analytical query executed several times
within one application, the pattern the per-region-server **block cache**
exists for: it absorbs repeat HFile block reads so later scans bill memory
bandwidth instead of (local or remote) HDFS I/O.

Both configurations must return identical rows; with the cache off the
metrics must carry no block-cache counter at all.  The acceptance bar from
the issue: the block cache cuts the simulated HDFS-read volume of the
repeated workload by >= 2x.

Deterministic simulated totals are exported as ``BENCH_caching.json`` for
the CI regression gate (``check_regression.py``).
"""

import pytest

from repro.core.relation import DEFAULT_FORMAT
from repro.workloads.loader import load_tpcds

from conftest import FIXED_SIZE_GB, write_bench_json, write_report
from repro.bench.reporting import format_table

#: how many times the workload re-runs the same query
REPEATS = 3
#: block-cache budget per region server -- big enough to hold the working set
BLOCK_CACHE_BYTES = 256 * 1024 * 1024

QUERY = (
    "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "
    "WHERE ss_quantity > 1"
)

_RESULTS = {}


@pytest.fixture(scope="module")
def caching_env():
    return load_tpcds(FIXED_SIZE_GB, ["store_sales"])


def _run_workload(env, block_cache: bool):
    """Run the repeated-scan workload with the block cache on or off.

    The block cache is re-created (cold) or torn down before each
    configuration, and each configuration gets a fresh session.  Returns
    the per-iteration results.
    """
    if block_cache:
        env.cluster.enable_block_cache(BLOCK_CACHE_BYTES)
    else:
        env.cluster.disable_block_cache()
    from repro.core.conncache import DEFAULT_CONNECTION_CACHE

    DEFAULT_CONNECTION_CACHE.clear()
    session = env.new_session(DEFAULT_FORMAT)
    df = session.sql(QUERY)
    runs = [df.run() for _ in range(REPEATS)]
    session.shutdown()
    env.cluster.disable_block_cache()
    return runs


def _hdfs_read_bytes(run) -> float:
    """Bytes the workload actually read from (local or remote) HDFS."""
    return run.metrics.get("hbase.bytes_scanned", 0.0)


@pytest.mark.parametrize("label,block_cache", [
    ("no caches", False),
    ("block cache", True),
])
def test_caching(benchmark, caching_env, label, block_cache):
    runs = benchmark.pedantic(
        lambda: _run_workload(caching_env, block_cache),
        iterations=1, rounds=1,
    )
    _RESULTS[label] = runs


def test_caching_report(benchmark):
    def report():
        baseline = _RESULTS["no caches"]
        blockcache = _RESULTS["block cache"]

        totals = {}
        rows = []
        for label, runs in _RESULTS.items():
            seconds = sum(r.seconds for r in runs)
            hdfs = sum(_hdfs_read_bytes(r) for r in runs)
            bc_hits = sum(r.metrics.get("hbase.blockcache.hits", 0.0)
                          for r in runs)
            totals[label] = {"seconds": seconds, "hdfs_bytes": hdfs}
            rows.append([
                label,
                f"{seconds:.2f}s",
                f"{hdfs / (1024 * 1024):.1f}MB",
                f"{bc_hits:.0f}",
            ])
        write_report(
            "ablation_caching",
            format_table(
                ["configuration", f"sim latency x{REPEATS}",
                 "hdfs read", "block hits"],
                rows,
                f"Ablation: region-server block cache ({REPEATS}x repeated "
                f"scan, {FIXED_SIZE_GB} GB store_sales)",
            ),
        )

        # identical answers under both configurations, every iteration
        expected = sorted(tuple(r.values) for r in baseline[0].rows)
        for label, runs in _RESULTS.items():
            for run in runs:
                assert sorted(tuple(r.values) for r in run.rows) == expected, \
                    label

        # cache off is the seed path: no block-cache counter may appear
        for run in baseline:
            for key in run.metrics.snapshot():
                assert not key.startswith("hbase.blockcache."), key

        # the issue's acceptance bar: >= 2x lower simulated HDFS-read cost
        # on the repeated-scan workload with the block cache on
        base_hdfs = totals["no caches"]["hdfs_bytes"]
        assert totals["block cache"]["hdfs_bytes"] <= base_hdfs / 2.0
        # warm block-cache iterations must also be faster end to end
        assert blockcache[-1].seconds < baseline[-1].seconds

        write_bench_json("caching", {
            "baseline_sim_seconds": {
                "value": totals["no caches"]["seconds"],
                "direction": "lower"},
            "baseline_hdfs_read_bytes": {
                "value": base_hdfs, "direction": "lower"},
            "blockcache_sim_seconds": {
                "value": totals["block cache"]["seconds"],
                "direction": "lower"},
            "blockcache_hdfs_read_bytes": {
                "value": totals["block cache"]["hdfs_bytes"],
                "direction": "lower"},
            "blockcache_hdfs_read_reduction": {
                "value": base_hdfs / max(
                    totals["block cache"]["hdfs_bytes"], 1.0),
                "direction": "higher"},
        })

    benchmark.pedantic(report, iterations=1, rounds=1)
