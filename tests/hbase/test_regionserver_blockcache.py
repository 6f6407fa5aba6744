"""Region-server block cache: charging, invariance, lifecycle invalidation."""

import pytest

from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Put

CACHE_BYTES = 16 * 1024 * 1024


@pytest.fixture
def loaded(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    conn = ConnectionFactory.create_connection(hbase_cluster.configuration())
    table = conn.get_table("t")
    for i in range(200):
        table.put(Put(b"r%03d" % i).add_column("f", "q", b"v" * 50))
    hbase_cluster.flush_table("t")
    location = hbase_cluster.region_locations("t")[0]
    return hbase_cluster, table, location


def scan_once(cluster, location):
    server = cluster.region_servers[location.server_id]
    ledger = CostLedger()
    results, __ = server.scan(location.region_name, ledger=ledger)
    return results, ledger


def test_repeat_scan_hits_and_costs_less(loaded):
    cluster, _table, location = loaded
    cluster.enable_block_cache(CACHE_BYTES)
    cold_rows, cold = scan_once(cluster, location)
    warm_rows, warm = scan_once(cluster, location)
    assert [row for row, _cells in warm_rows] == \
        [row for row, _cells in cold_rows]
    assert cold.metrics.get("hbase.blockcache.misses") > 0
    assert cold.metrics.get("hbase.blockcache.hits", 0) == 0
    assert warm.metrics.get("hbase.blockcache.hits") > 0
    assert warm.metrics.get("hbase.blockcache.misses", 0) == 0
    # warm scans read no store-file bytes from disk and pay less overall
    assert warm.metrics.get("hbase.bytes_scanned", 0) == 0
    assert warm.seconds < cold.seconds
    # hit bytes equal what the cold scan fetched and admitted
    assert warm.metrics.get("hbase.blockcache.hit_bytes") == \
        cold.metrics.get("hbase.blockcache.miss_bytes")


def test_cache_off_path_is_byte_identical(loaded):
    """With no cache attached, charging must match the seed simulation --
    and a cold cache-on scan bills the same disk I/O as the uncached path."""
    cluster, _table, location = loaded
    _rows, uncached = scan_once(cluster, location)
    for key in uncached.metrics.snapshot():
        assert not key.startswith("hbase.blockcache."), key
    cluster.enable_block_cache(CACHE_BYTES)
    _rows, cold = scan_once(cluster, location)
    assert cold.metrics.get("hbase.bytes_scanned") == \
        uncached.metrics.get("hbase.bytes_scanned")
    assert cold.metrics.get("hbase.seeks") == uncached.metrics.get("hbase.seeks")
    assert cold.seconds == uncached.seconds
    cluster.disable_block_cache()
    _rows, again = scan_once(cluster, location)
    assert dict(again.metrics.snapshot()) == dict(uncached.metrics.snapshot())
    assert again.seconds == uncached.seconds


def test_flush_then_scan_sees_new_file_without_stale_hits(loaded):
    """New store files join the cache on first touch; existing cached
    blocks keep hitting (immutable files are never stale)."""
    cluster, table, location = loaded
    cluster.enable_block_cache(CACHE_BYTES)
    scan_once(cluster, location)
    for i in range(200, 260):
        table.put(Put(b"r%03d" % i).add_column("f", "q", b"n" * 50))
    cluster.flush_table("t")
    rows, mixed = scan_once(cluster, location)
    assert len(rows) == 260
    assert mixed.metrics.get("hbase.blockcache.hits") > 0   # old file blocks
    assert mixed.metrics.get("hbase.blockcache.misses") > 0  # new file blocks


def test_compaction_invalidates_rewritten_files(loaded):
    cluster, table, location = loaded
    cluster.enable_block_cache(CACHE_BYTES)
    scan_once(cluster, location)
    server = cluster.region_servers[location.server_id]
    occupied = server.block_cache.stats().current_bytes
    assert occupied > 0
    cluster.compact_table("t", major=True)
    stats = server.block_cache.stats()
    assert stats.invalidations > 0
    # the rewritten originals are gone from the cache...
    assert stats.current_bytes < occupied or stats.current_bytes == 0
    # ...and the next scan re-reads the compacted file from disk, correctly
    rows, after = scan_once(cluster, location)
    assert len(rows) == 200
    assert after.metrics.get("hbase.blockcache.misses") > 0


def test_crash_clears_the_cache(loaded):
    cluster, _table, location = loaded
    cluster.enable_block_cache(CACHE_BYTES)
    scan_once(cluster, location)
    server = cluster.region_servers[location.server_id]
    assert server.block_cache.stats().current_bytes > 0
    cluster.kill_region_server(location.server_id)
    assert server.block_cache.stats().current_bytes == 0
    assert len(server.block_cache) == 0


def test_block_cache_stats_surface_per_server(loaded):
    cluster, _table, location = loaded
    cluster.enable_block_cache(CACHE_BYTES)
    scan_once(cluster, location)
    stats = cluster.block_cache_stats()
    assert location.server_id in stats
    assert stats[location.server_id].misses > 0
    cluster.disable_block_cache()
    assert cluster.block_cache_stats() == {}
