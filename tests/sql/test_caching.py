"""DataFrame.persist(): the executor partition cache at the SQL layer."""

from repro.sql.types import IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
])

ROWS = [(i, "even" if i % 2 == 0 else "odd") for i in range(40)]


def rows_of(result):
    return sorted(tuple(r.values) for r in result.rows)


def make_df(session):
    return session.create_dataframe(ROWS, SCHEMA).filter("k >= 10")


def test_persist_serves_second_run_from_memory(session):
    df = make_df(session).persist()
    assert df.is_cached
    cold = df.run()
    warm = df.run()
    assert rows_of(cold) == rows_of(warm)
    assert cold.metrics.get("engine.cache.misses") > 0
    assert cold.metrics.get("engine.cache.write_bytes") > 0
    assert warm.metrics.get("engine.cache.hits") > 0
    assert warm.metrics.get("engine.cache.misses", 0) == 0
    # the warm run reads exactly the bytes the cold run materialised
    assert warm.metrics.get("engine.cache.read_bytes") == \
        cold.metrics.get("engine.cache.write_bytes")


def test_equivalent_plan_hits_the_same_entry(session):
    """A separately built but structurally identical DataFrame shares the
    cache entry -- fingerprints, not object identity, key the cache."""
    make_df(session).persist().run()
    twin = make_df(session)
    result = twin.run()
    assert result.metrics.get("engine.cache.hits") > 0
    assert rows_of(result) == sorted((i, "even" if i % 2 == 0 else "odd")
                                     for i in range(10, 40))


def test_unpersist_recomputes(session):
    df = make_df(session).persist()
    df.run()
    df.unpersist()
    assert not df.is_cached
    result = df.run()
    assert result.metrics.get("engine.cache.hits", 0) == 0
    assert rows_of(result) == rows_of(df.run())


def test_shutdown_releases_cached_partitions(session):
    """The shuffle-store lifecycle discipline applies to the cache too."""
    df = make_df(session).persist()
    df.run()
    manager = session.cache_manager
    assert manager.stats().current_bytes > 0
    session.shutdown()
    stats = manager.stats()
    assert stats.entries == 0 and stats.current_bytes == 0


def test_limit_never_publishes_partial_partitions(session):
    """An early-closed iterator (LIMIT) must not cache a partial partition."""
    df = make_df(session).persist()
    df.limit(3).run()
    # the limited run may stop partitions early; whatever it published must
    # be complete partitions only, so a full run must still compute the rest
    # and the final answer must be the full row set
    full = df.run()
    assert rows_of(full) == sorted((i, "even" if i % 2 == 0 else "odd")
                                   for i in range(10, 40))


def test_is_cached_tracks_other_handle_unpersist(session):
    a = make_df(session).persist()
    b = make_df(session)
    assert a.is_cached and b.is_cached
    b.unpersist()
    assert not a.is_cached
