import pytest

from repro.common.errors import HBaseError, NoSuchTableError, TableExistsError
from repro.hbase.cluster import HBaseCluster


def test_create_table_with_splits(hbase_cluster):
    hbase_cluster.create_table("t", ["f"], split_keys=[b"g", b"p"])
    locations = hbase_cluster.region_locations("t")
    assert len(locations) == 3
    assert [loc.start_row for loc in locations] == [b"", b"g", b"p"]
    assert locations[-1].end_row == b""


def test_create_duplicate_table_rejected(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    with pytest.raises(TableExistsError):
        hbase_cluster.create_table("t", ["f"])


def test_table_needs_families(hbase_cluster):
    with pytest.raises(HBaseError):
        hbase_cluster.create_table("t", [])


def test_regions_spread_over_servers(hbase_cluster):
    hbase_cluster.create_table("t", ["f"], split_keys=[b"b", b"c", b"d", b"e", b"f"])
    owners = {loc.server_id for loc in hbase_cluster.region_locations("t")}
    assert len(owners) == 3  # one region server per host, all used


def test_drop_table(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    hbase_cluster.drop_table("t")
    assert not hbase_cluster.has_table("t")
    with pytest.raises(NoSuchTableError):
        hbase_cluster.region_locations("t")


def test_locate_finds_covering_region(hbase_cluster):
    hbase_cluster.create_table("t", ["f"], split_keys=[b"m"])
    assert hbase_cluster.active_master.locate("t", b"a").start_row == b""
    assert hbase_cluster.active_master.locate("t", b"z").start_row == b"m"


def test_balance_evens_out_regions(hbase_cluster):
    master = hbase_cluster.active_master
    hbase_cluster.create_table("t", ["f"],
                               split_keys=[bytes([i]) for i in range(1, 9)])
    # unbalance on purpose: move everything to one server
    target = next(iter(hbase_cluster.region_servers))
    for name in list(master.assignments):
        master.move_region(name, target)
    moves = master.balance()
    assert moves > 0
    counts = [len(s.regions) for s in hbase_cluster.region_servers.values()]
    assert max(counts) - min(counts) <= 1


def test_balance_then_crash_keeps_unflushed_rows(hbase_cluster):
    """A balance move flushes the region first, so its acknowledged edits
    are not left in a log that the new owner's crash would never replay."""
    from repro.hbase import ConnectionFactory, Get, Put

    cluster = hbase_cluster
    # the first server ends up with the two pads only; dropping them makes
    # balance() move one written, unflushed region onto it
    cluster.create_table("pad1", ["f"])
    cluster.create_table("t", ["f"], split_keys=[b"m"])
    cluster.create_table("pad2", ["f"])
    cluster.create_table("u", ["f"], split_keys=[b"m"])
    conn = ConnectionFactory.create_connection(cluster.configuration())
    written = [(name, row) for name in ("t", "u") for row in (b"a", b"z")]
    for name, row in written:
        conn.get_table(name).put(Put(row).add_column("f", "q", b"v"))
    cluster.drop_table("pad1")
    cluster.drop_table("pad2")
    before = dict(cluster.active_master.assignments)
    assert cluster.run_maintenance()["moves"] == 1
    after = cluster.active_master.assignments
    [moved] = [name for name in after if after[name] != before[name]]
    cluster.kill_region_server(after[moved])
    fresh = ConnectionFactory.create_connection(cluster.configuration())
    for name, row in written:
        assert fresh.get_table(name).get(Get(row)).get_value("f", "q") == b"v"


def test_move_region_to_a_dead_server_is_refused(hbase_cluster):
    hbase_cluster.create_table("t", ["f"])
    [location] = hbase_cluster.region_locations("t")
    other = next(s for s in hbase_cluster.region_servers
                 if s != location.server_id)
    hbase_cluster.kill_region_server(other)
    with pytest.raises(HBaseError):
        hbase_cluster.active_master.move_region(location.region_name, other)
    assert hbase_cluster.region_locations("t") == [location]


def test_split_region_creates_daughters(hbase_cluster, clock):
    from repro.hbase import ConnectionFactory, Put
    from repro.hbase.hbytes import Bytes

    hbase_cluster.create_table("t", ["f"])
    table = ConnectionFactory.create_connection(
        hbase_cluster.configuration()).get_table("t")
    for i in range(40):
        table.put(Put(Bytes.from_int(i)).add_column("f", "q", b"v"))
    hbase_cluster.flush_table("t")
    region_name = hbase_cluster.region_locations("t")[0].region_name
    daughters = hbase_cluster.active_master.split_region(region_name)
    assert daughters is not None and len(daughters) == 2
    assert len(hbase_cluster.region_locations("t")) == 2


def test_master_failover_preserves_state(clock):
    cluster = HBaseCluster("failover", ["h1", "h2"], clock=clock,
                           standby_masters=1)
    cluster.create_table("t", ["f"], split_keys=[b"m"])
    old_master = cluster.active_master
    old_master.fail()
    new_master = cluster.failover_master()
    assert new_master is not old_master
    assert "t" in new_master.tables
    assert len(new_master.region_locations("t")) == 2


def test_standby_master_cannot_do_ddl(clock):
    cluster = HBaseCluster("standby", ["h1"], clock=clock, standby_masters=1)
    standby = cluster.masters[1]
    with pytest.raises(HBaseError):
        standby.create_table("t", ["f"])


def _fill(cluster, table_name, n=60):
    from repro.hbase import ConnectionFactory, Put

    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table(table_name)
    for i in range(n):
        table.put(Put(b"r%03d" % i).add_column("f", "q", b"v"))
    return table


def test_merge_adjacent_regions(hbase_cluster):
    from repro.hbase import Scan

    hbase_cluster.create_table("m", ["f"], split_keys=[b"r030"])
    table = _fill(hbase_cluster, "m")
    master = hbase_cluster.active_master
    left, right = [loc.region_name for loc in hbase_cluster.region_locations("m")]
    merged = master.merge_regions(left, right)
    locations = hbase_cluster.region_locations("m")
    assert [loc.region_name for loc in locations] == [merged]
    assert locations[0].start_row == b"" and locations[0].end_row == b""
    assert len(table.scan(Scan())) == 60


def test_merge_order_insensitive(hbase_cluster):
    hbase_cluster.create_table("m", ["f"], split_keys=[b"r030"])
    _fill(hbase_cluster, "m")
    master = hbase_cluster.active_master
    left, right = [loc.region_name for loc in hbase_cluster.region_locations("m")]
    merged = master.merge_regions(right, left)  # reversed arguments
    assert len(hbase_cluster.region_locations("m")) == 1


def test_merge_non_adjacent_rejected(hbase_cluster):
    hbase_cluster.create_table("m", ["f"], split_keys=[b"r020", b"r040"])
    _fill(hbase_cluster, "m")
    names = [loc.region_name for loc in hbase_cluster.region_locations("m")]
    with pytest.raises(HBaseError):
        hbase_cluster.active_master.merge_regions(names[0], names[2])


def test_merge_different_tables_rejected(hbase_cluster):
    hbase_cluster.create_table("m1", ["f"])
    hbase_cluster.create_table("m2", ["f"])
    r1 = hbase_cluster.region_locations("m1")[0].region_name
    r2 = hbase_cluster.region_locations("m2")[0].region_name
    with pytest.raises(HBaseError):
        hbase_cluster.active_master.merge_regions(r1, r2)


def test_split_then_merge_roundtrip(hbase_cluster):
    from repro.hbase import Scan

    hbase_cluster.create_table("m", ["f"])
    table = _fill(hbase_cluster, "m", n=80)
    hbase_cluster.flush_table("m")
    master = hbase_cluster.active_master
    region_name = hbase_cluster.region_locations("m")[0].region_name
    daughters = master.split_region(region_name)
    assert len(daughters) == 2
    merged = master.merge_regions(daughters[0], daughters[1])
    assert len(hbase_cluster.region_locations("m")) == 1
    assert len(table.scan(Scan())) == 80


def test_region_names_are_a_function_of_the_clusters_own_history(clock):
    """Two clusters with one name and one history name every region alike,
    wherever in the process's life they are built: region names key retry
    jitter, the seeded fault schedule and CDC cursors, so a replay in the
    same process must see the same names."""
    from repro.core.conncache import DEFAULT_CONNECTION_CACHE
    from repro.hbase.cluster import clear_cluster_registry

    def history():
        clear_cluster_registry()
        DEFAULT_CONNECTION_CACHE.clear()
        cluster = HBaseCluster("replayed", ["h1", "h2", "h3"], clock=clock)
        cluster.create_table("m", ["f"], split_keys=[b"r030"])
        cluster.create_table("s", ["f"])
        _fill(cluster, "s", n=80)
        cluster.flush_table("s")
        master = cluster.active_master
        names = [[loc.region_name for loc in cluster.region_locations(t)]
                 for t in ("m", "s")]
        names.append(master.split_region(names[1][0]))
        names.append(master.merge_regions(*names[0]))
        return names

    first = history()
    assert first == history()
    assert first[0] == ["m,,1", f"m,{b'r030'.hex()},2"]
