"""The block cache under chaos: a crash must empty it and answers survive.

A region-server crash mid-scan must clear that server's block cache (the
process died; its memory is gone) and the query must still return
byte-identical rows through the recovered regions.
"""

from repro.common.faults import (
    FAULT_SCAN_STREAM,
    FaultInjector,
    crash_region_server,
)
from repro.core.catalog import HBaseSparkConf
from repro.workloads import load_tpcds

BLOCK_CACHE_BYTES = 64 * 1024 * 1024

QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
         "WHERE ss_quantity > 1")


def rows(result):
    return sorted(tuple(r.values) for r in result.rows)


def test_crash_invalidates_block_cache_and_answers_survive():
    env = load_tpcds(2, ["store_sales"])
    baseline = rows(env.new_session().sql(QUERY).run())

    env.cluster.enable_block_cache(BLOCK_CACHE_BYTES)
    session = env.new_session(
        extra_options={HBaseSparkConf.CACHED_ROWS: "40"})
    session.sql(QUERY).run()  # warm the block caches
    warm_bytes = {server_id: stats.current_bytes
                  for server_id, stats in env.cluster.block_cache_stats().items()}
    assert any(warm_bytes.values())

    # crash one warm server mid-scan via the seeded injector
    injector = FaultInjector(seed=404)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    env.cluster.install_fault_injector(injector)
    result = session.sql(QUERY).run()
    assert rows(result) == baseline  # byte-identical through the crash

    dead = [s for s in env.cluster.region_servers.values() if not s.alive]
    assert len(dead) == 1
    # the dead server's block cache is empty: its process memory is gone
    assert dead[0].block_cache.stats().current_bytes == 0
    assert len(dead[0].block_cache) == 0

    # and post-recovery scans keep working (cold on the reassigned regions)
    env.cluster.install_fault_injector(None)
    assert rows(session.sql(QUERY).run()) == baseline
