"""CacheManager unit tests: publish protocol, eviction, attempt safety."""

import threading

import pytest

from repro.engine.cachemanager import CacheManager


def test_register_is_idempotent_and_unregister_drops_data():
    m = CacheManager(1000)
    m.register("fp", "plan")
    m.register("fp", "plan")
    assert m.is_registered("fp") and m.has_registrations()
    m.expect_partitions("fp", 1)
    assert m.publish("fp", 0, ["a"], 100, "h1")[0]
    assert m.unregister("fp")
    assert not m.unregister("fp")
    assert m.stats().current_bytes == 0
    assert not m.has_registrations()


def test_publish_requires_registration():
    m = CacheManager(1000)
    published, evicted, _bytes = m.publish("ghost", 0, ["a"], 10, "h1")
    assert not published and evicted == 0
    assert m.read_partition("ghost", 0) is None
    # an unregistered read is not a miss: nobody asked to cache this plan
    assert m.stats().misses == 0


def test_publish_is_put_if_absent():
    """A retried attempt: the second publish of a partition is a no-op."""
    m = CacheManager(1000)
    m.register("fp")
    m.expect_partitions("fp", 1)
    assert m.publish("fp", 0, ["winner"], 10, "h1")[0]
    assert not m.publish("fp", 0, ["loser"], 10, "h2")[0]
    cached = m.read_partition("fp", 0)
    assert cached.rows == ("winner",)
    assert cached.host == "h1"
    assert m.stats().current_bytes == 10  # the loser's bytes never counted


def test_read_counts_hits_and_misses():
    m = CacheManager(1000)
    m.register("fp")
    m.expect_partitions("fp", 2)
    assert m.read_partition("fp", 0) is None          # miss
    m.publish("fp", 0, ["a"], 10, "h1")
    assert m.read_partition("fp", 0) is not None      # hit
    stats = m.stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_snapshot_only_when_complete():
    m = CacheManager(1000)
    m.register("fp")
    m.expect_partitions("fp", 2)
    m.publish("fp", 0, ["a"], 10, "h1")
    assert m.snapshot("fp") is None  # one of two partitions published
    m.publish("fp", 1, ["b"], 10, "h2")
    snap = m.snapshot("fp")
    assert snap is not None and sorted(snap) == [0, 1]
    assert snap[1].rows == ("b",)


def test_eviction_keeps_registration_and_recaches():
    """LRU data eviction must not silently undo persist()."""
    m = CacheManager(100)
    m.register("old")
    m.register("new")
    m.expect_partitions("old", 1)
    m.expect_partitions("new", 1)
    m.publish("old", 0, ["x"], 80, "h1")
    published, evicted_entries, evicted_bytes = m.publish(
        "new", 0, ["y"], 80, "h2")
    assert published and evicted_entries == 1 and evicted_bytes == 80
    # old lost its data but is still registered: next run re-materialises
    assert m.is_registered("old")
    assert m.read_partition("old", 0) is None
    assert m.publish("old", 0, ["x"], 80, "h1")[0]
    assert m.stats().evicted_entries >= 1


def test_entry_bigger_than_cache_goes_oversized():
    m = CacheManager(100)
    m.register("huge")
    m.expect_partitions("huge", 2)
    assert m.publish("huge", 0, ["a"], 90, "h1")[0]
    published, _entries, evicted_bytes = m.publish("huge", 1, ["b"], 90, "h1")
    assert not published
    assert evicted_bytes == 180  # its own data was dropped
    assert m.stats().current_bytes == 0
    # oversized entries stop absorbing publishes (no thrash)...
    assert not m.publish("huge", 0, ["a"], 90, "h1")[0]
    assert m.snapshot("huge") is None
    # ...until unpersist + persist resets the flag
    m.unregister("huge")
    m.register("huge")
    m.expect_partitions("huge", 1)
    assert m.publish("huge", 0, ["a"], 90, "h1")[0]


def test_partition_layout_change_drops_stale_data():
    """A region split between runs changes the partition count."""
    m = CacheManager(1000)
    m.register("fp")
    m.expect_partitions("fp", 2)
    m.publish("fp", 0, ["a"], 10, "h1")
    m.expect_partitions("fp", 3)  # layout changed: stale data dropped
    assert m.read_partition("fp", 0) is None
    assert m.stats().current_bytes == 0
    m.publish("fp", 0, ["a2"], 10, "h1")
    assert m.read_partition("fp", 0).rows == ("a2",)


def test_clear_drops_everything():
    m = CacheManager(1000)
    m.register("a")
    m.register("b")
    m.expect_partitions("a", 1)
    m.publish("a", 0, ["x"], 10, "h1")
    assert m.clear() == 2
    assert not m.has_registrations()
    assert m.stats().current_bytes == 0


def test_peek_host_has_no_side_effects():
    m = CacheManager(1000)
    m.register("fp")
    m.expect_partitions("fp", 1)
    m.publish("fp", 0, ["a"], 10, "h1")
    assert m.peek_host("fp", 0) == "h1"
    assert m.peek_host("fp", 1) is None
    assert m.peek_host("ghost", 0) is None
    stats = m.stats()
    assert stats.hits == 0 and stats.misses == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CacheManager(0)


def test_concurrent_publish_single_winner_per_partition():
    """Racing attempts across threads: exactly one publish wins each index."""
    m = CacheManager(1_000_000)
    m.register("fp")
    m.expect_partitions("fp", 16)
    wins = []
    lock = threading.Lock()

    def attempt(attempt_id):
        for index in range(16):
            published, _e, _b = m.publish(
                "fp", index, [f"attempt{attempt_id}"], 10, f"h{attempt_id}")
            if published:
                with lock:
                    wins.append((index, attempt_id))

    threads = [threading.Thread(target=attempt, args=(a,)) for a in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 16  # one winner per partition, never zero or two
    for index in range(16):
        cached = m.read_partition("fp", index)
        winner = dict(wins)[index]
        assert cached.rows == (f"attempt{winner}",)
        assert cached.host == f"h{winner}"
