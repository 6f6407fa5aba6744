"""Caching under chaos: crashes and retries must stay correct.

The two cache tiers interact with the resilience machinery in ways that
could silently corrupt answers if the invalidation/publish protocols were
wrong, so this suite drives both through the seeded fault injector:

* a region-server crash mid-scan must clear that server's block cache (the
  process died; its memory is gone) and the query must still return
  byte-identical rows through the recovered regions;
* a caching task whose first attempt fails must never publish a second
  copy of a partition -- exactly one attempt's output may enter the
  partition cache, and reruns must serve that single copy.
"""

import pytest

from repro.common.faults import (
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FAULT_SHUFFLE_FETCH,
    FaultInjector,
    crash_region_server,
)
from repro.core.catalog import HBaseSparkConf
from repro.workloads import load_tpcds

BLOCK_CACHE_BYTES = 64 * 1024 * 1024

QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
         "WHERE ss_quantity > 1")

#: a persisted aggregate: its cache-filling tasks read a shuffle
GROUPED_QUERY = ("SELECT ss_item_sk, count(*) AS n, sum(ss_quantity) AS q "
                 "FROM store_sales GROUP BY ss_item_sk")


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


def test_retried_task_never_publishes_duplicate_partition():
    """A cache-filling task fails its first shuffle fetch and is retried;
    only the attempt that finished may publish, and only once."""
    env = load_tpcds(2, ["store_sales"])
    baseline = rows(env.new_session().sql(GROUPED_QUERY).run())

    injector = FaultInjector(seed=505)
    injector.inject(FAULT_SHUFFLE_FETCH, rate=1.0, times=1)
    session = env.new_session()
    session.install_fault_injector(injector)

    df = session.sql(GROUPED_QUERY).persist()
    cold = df.run()
    assert rows(cold) == baseline
    assert injector.injected(FAULT_SHUFFLE_FETCH) == 1
    assert cold.metrics.get("engine.task_failures") >= 1

    manager = session.cache_manager
    stats = manager.stats()
    # every published byte was counted exactly once: had a failed attempt
    # also published, write_bytes would exceed the cache's occupancy
    assert cold.metrics.get("engine.cache.write_bytes") == stats.current_bytes
    # the cached entry holds one copy per partition, nothing doubled
    fingerprints = df._cache_fingerprints()
    cached = [fp for fp in fingerprints if manager.cached_bytes(fp) > 0]
    assert len(cached) == 1

    # the warm run serves that single copy, byte-identically
    warm = df.run()
    assert rows(warm) == baseline
    assert warm.metrics.get("engine.cache.hits") > 0
    assert warm.metrics.get("engine.cache.misses", 0) == 0


def test_retried_tasks_keep_cached_partitions_single_sourced():
    """Transient RPC faults force task retries; the cache must hold exactly
    one attempt's rows per partition and replay the right answer."""
    env = load_tpcds(2, ["store_sales"])
    baseline = rows(env.new_session().sql(QUERY).run())

    injector = FaultInjector(seed=606)
    # rate=1.0 fires on the first five RPC draws regardless of region
    # naming: fractional rates hash the region name, which embeds a
    # process-global region counter, so they re-roll whenever an earlier
    # test creates tables and can silently drop to zero injections
    injector.inject(FAULT_RPC, rate=1.0, times=5)
    env.cluster.install_fault_injector(injector)
    session = env.new_session(
        extra_options={HBaseSparkConf.CACHED_ROWS: "40"})
    session.install_fault_injector(injector)

    df = session.sql(QUERY).persist()
    cold = df.run()
    assert rows(cold) == baseline
    assert injector.injected(FAULT_RPC) >= 1
    assert cold.metrics.get("engine.cache.write_bytes") == \
        session.cache_manager.stats().current_bytes

    warm = df.run()
    assert rows(warm) == baseline
    assert warm.metrics.get("engine.cache.misses", 0) == 0
