import pytest

from repro.core.hbase_context import HBaseContext
from repro.engine.rdd import ParallelCollectionRDD
from repro.hbase import ConnectionFactory, Delete, Get, Put, Scan
from repro.hbase.hbytes import Bytes


@pytest.fixture
def context(linked):
    cluster, session = linked
    cluster.create_table("kv", ["f"], split_keys=[b"m"])
    return cluster, session, HBaseContext(session, cluster.quorum)


def to_put(pair):
    key, value = pair
    return Put(key).add_column("f", "q", Bytes.from_int(value))


def test_bulk_put_writes_all_rows(context):
    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(40)]
    written = ctx.bulk_put(ParallelCollectionRDD(data, 4), "kv", to_put)
    assert written == 40
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("kv")
    assert len(table.scan(Scan())) == 40
    assert Bytes.to_int(table.get(Get(b"k07")).get_value("f", "q")) == 7


def test_bulk_get_returns_results_lazily(context):
    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(20)]
    ctx.bulk_put(ParallelCollectionRDD(data, 2), "kv", to_put)
    keys = ParallelCollectionRDD([b"k01", b"k19", b"missing"], 2)
    results_rdd = ctx.bulk_get(
        keys, "kv", Get,
        convert=lambda r: (r.row, None if r.is_empty()
                           else Bytes.to_int(r.get_value("f", "q"))),
    )
    got = dict(session.new_scheduler().collect(results_rdd))
    assert got == {b"k01": 1, b"k19": 19, b"missing": None}


def test_bulk_delete(context):
    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(10)]
    ctx.bulk_put(ParallelCollectionRDD(data, 2), "kv", to_put)
    cluster.clock.advance(0.01)
    doomed = ParallelCollectionRDD([b"k03", b"k04"], 1)
    deleted = ctx.bulk_delete(doomed, "kv", Delete)
    assert deleted == 2
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("kv")
    assert len(table.scan(Scan())) == 8


def test_foreach_partition_gets_connection(context):
    cluster, session, ctx = context
    seen = []

    def fn(rows, connection):
        seen.append((list(rows), connection.cluster.name))

    ctx.foreach_partition(ParallelCollectionRDD([1, 2, 3, 4], 2), fn)
    assert len(seen) == 2
    assert all(name == cluster.name for __, name in seen)


def test_map_partitions_transforms(context):
    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(6)]
    ctx.bulk_put(ParallelCollectionRDD(data, 2), "kv", to_put)

    def enrich(rows, connection):
        table = connection.get_table("kv")
        for key in rows:
            yield key, not table.get(Get(key)).is_empty()

    rdd = ctx.map_partitions(ParallelCollectionRDD([b"k00", b"nope"], 1), enrich)
    assert dict(session.new_scheduler().collect(rdd)) == {b"k00": True, b"nope": False}


def test_connections_are_pooled_across_tasks(context):
    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(40)]
    ctx.bulk_put(ParallelCollectionRDD(data, 8), "kv", to_put)
    # at most one connection per executor host, not one per task
    assert ctx.connection_cache.misses <= len(session.cluster.hosts_with_executors())


def test_bulk_load_bypasses_wal_and_memstore(context):
    from repro.hbase.cell import Cell

    cluster, session, ctx = context
    data = [(b"k%02d" % i, i) for i in range(30)]

    def to_cells(pair):
        key, value = pair
        return [Cell(key, "f", "q", cluster.clock.now_millis(),
                     Bytes.from_int(value))]

    loaded = ctx.bulk_load(ParallelCollectionRDD(data, 3), "kv", to_cells)
    assert loaded == 30
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("kv")
    assert len(table.scan(Scan())) == 30
    # nothing went through the write-ahead logs
    assert all(len(s.wal) == 0 for s in cluster.region_servers.values())
    # and the memstores stayed empty (data went straight to store files)
    for location in cluster.region_locations("kv"):
        region = cluster.get_region(location.region_name)
        assert region.memstore_size() == 0


def test_bulk_load_later_row_wins_a_rewritten_key(context):
    """Same key, same timestamp, twice in one load: the later row reads
    back, whether the two fell into one partition's file or into two."""
    from repro.hbase.cell import Cell

    cluster, session, ctx = context
    data = [(b"a", 1), (b"a", 2), (b"z", 3), (b"z", 4)]

    def to_cells(pair):
        key, value = pair
        return [Cell(key, "f", "q", 7, Bytes.from_int(value))]

    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("kv")
    for partitions in (1, 4):
        ctx.bulk_load(ParallelCollectionRDD(data, partitions), "kv", to_cells)
        assert [Bytes.to_int(r.get_value("f", "q")) for r in table.scan(Scan())] \
            == [2, 4]


def test_bulk_load_cheaper_than_puts(context):
    """Same rows, two ingestion paths: the HFile path skips WAL syncs."""
    from repro.hbase.cell import Cell

    cluster, session, ctx = context

    def to_cells(pair):
        key, value = pair
        return [Cell(key, "f", "q", 1, Bytes.from_int(value))]

    put_data = [(b"p%03d" % i, i) for i in range(200)]
    load_data = [(b"q%03d" % i, i) for i in range(200)]

    clock_before = cluster.metrics.get("hbase.wal_syncs")
    put_sched = session.new_scheduler()
    put_result = put_sched.run_job(
        ParallelCollectionRDD(put_data, 2).map_partitions(
            _writer_via(ctx, to_put)
        )
    )
    load_sched = session.new_scheduler()
    load_result = load_sched.run_job(
        ParallelCollectionRDD(load_data, 2).map_partitions(
            _loader_via(ctx, to_cells)
        )
    )
    assert put_result.metrics.get("hbase.wal_syncs") > 0
    assert load_result.metrics.get("hbase.wal_syncs") == 0
    assert load_result.seconds < put_result.seconds


def _writer_via(ctx, to_put):
    def fn(rows, task_ctx):
        connection, conf = ctx._acquire(task_ctx)
        try:
            table = connection.get_table("kv")
            table.put([to_put(r) for r in rows], task_ctx.ledger)
            yield 1
        finally:
            ctx._release(conf)

    return fn


def _loader_via(ctx, to_cells):
    from repro.hbase.cell import Cell
    from repro.hbase.hfile import StoreFile

    def fn(rows, task_ctx):
        cluster = ctx.cluster
        cells = [c for r in rows for c in to_cells(r)]
        by_region = {}
        for cell in cells:
            for location in cluster.region_locations("kv"):
                region = cluster.get_region(location.region_name)
                if region.contains_row(cell.row):
                    by_region.setdefault(location.region_name, []).append(cell)
                    break
        for region_name, group in by_region.items():
            region = cluster.get_region(region_name)
            store_file = StoreFile(sorted(group, key=Cell.sort_key))
            region.stores["f"].files.append(store_file)
            task_ctx.ledger.charge(
                store_file.size_bytes / ctx.session.cost.write_bytes_per_sec,
                "hbase.bulkload_bytes", store_file.size_bytes,
            )
        yield 1

    return fn
