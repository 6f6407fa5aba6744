from repro.hbase import ConnectionFactory, Put
from repro.hbase.cell import Cell
from repro.hbase.cluster import HBaseCluster
from repro.hbase.wal import WriteAheadLog


def cell(row: bytes) -> Cell:
    return Cell(row, "f", "q", 1, b"v")


def test_append_assigns_increasing_sequence_ids():
    wal = WriteAheadLog()
    s1 = wal.append("r1", [cell(b"a")])
    s2 = wal.append("r1", [cell(b"b")])
    assert s2 > s1


def test_replay_returns_unflushed_cells_in_order():
    wal = WriteAheadLog()
    wal.append("r1", [cell(b"a")])
    wal.append("r2", [cell(b"x")])
    wal.append("r1", [cell(b"b")])
    assert [c.row for c in wal.replay("r1")] == [b"a", b"b"]


def test_flushed_entries_not_replayed():
    wal = WriteAheadLog()
    seq = wal.append("r1", [cell(b"a")])
    wal.append("r1", [cell(b"b")])
    wal.mark_flushed("r1", seq)
    assert [c.row for c in wal.replay("r1")] == [b"b"]


def test_mark_flushed_never_regresses():
    wal = WriteAheadLog()
    s1 = wal.append("r1", [cell(b"a")])
    s2 = wal.append("r1", [cell(b"b")])
    wal.mark_flushed("r1", s2)
    wal.mark_flushed("r1", s1)  # stale, ignored
    assert list(wal.replay("r1")) == []


def test_truncate_drops_flushed_entries():
    wal = WriteAheadLog()
    seq = wal.append("r1", [cell(b"a")])
    wal.append("r2", [cell(b"b")])
    wal.mark_flushed("r1", seq)
    wal.truncate()
    assert len(wal) == 1
    assert [c.row for c in wal.replay("r2")] == [b"b"]


# --- entries_since (the CDC cursor API) edge cases ---------------------


def test_entries_since_cursor_past_end_returns_nothing():
    wal = WriteAheadLog()
    last = wal.append("r1", [cell(b"a")])
    assert wal.entries_since("r1", last) == []
    assert wal.entries_since("r1", last + 100) == []
    assert wal.entries_since("missing-region", 0) == []


def test_entries_since_is_strictly_after_the_cursor():
    wal = WriteAheadLog()
    s1 = wal.append("r1", [cell(b"a")])
    s2 = wal.append("r1", [cell(b"b")])
    tail = wal.entries_since("r1", s1)
    assert [e.sequence_id for e in tail] == [s2]
    assert [c.row for e in tail for c in e.cells] == [b"b"]


def test_entries_since_interleaved_regions_keep_their_own_ordered_tails():
    wal = WriteAheadLog()
    seqs = {"r1": [], "r2": []}
    for i, region in enumerate(["r1", "r2", "r1", "r2", "r2", "r1"]):
        seqs[region].append(wal.append(region, [cell(b"row%d" % i)]))
    for region in ("r1", "r2"):
        tail = wal.entries_since(region, 0)
        assert [e.sequence_id for e in tail] == seqs[region]
        assert all(e.region_name == region for e in tail)
    # advancing one region's cursor leaves the other's tail untouched
    assert [e.sequence_id for e in wal.entries_since("r1", seqs["r1"][1])] \
        == seqs["r1"][2:]
    assert [e.sequence_id for e in wal.entries_since("r2", 0)] == seqs["r2"]


def test_entries_since_ignores_flush_watermark():
    """Flushing moves data to HFiles but must not hide history from CDC."""
    wal = WriteAheadLog()
    seq = wal.append("r1", [cell(b"a")])
    wal.append("r1", [cell(b"b")])
    wal.mark_flushed("r1", seq)
    assert [c.row for c in wal.replay("r1")] == [b"b"]
    assert [c.row for e in wal.entries_since("r1", 0) for c in e.cells] \
        == [b"a", b"b"]


def test_entries_survive_region_split(clock):
    """A split retires the parent region, but what a reader has not read of
    it stays in the log under the parent's name -- through the flushes, the
    split and the truncation -- and is handed over whole; only then does
    the log let it go."""
    cluster = HBaseCluster("walsplit", ["h1", "h2"], clock=clock,
                           flush_threshold=2_000, region_max_bytes=6_000)
    cluster.create_table("big", ["f"])
    [location] = cluster.region_locations("big")
    parent, server_id = location.region_name, location.server_id
    wal = cluster.region_servers[server_id].wal
    wal.attach("tailer")
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("big")
    rows = [b"row%04d" % i for i in range(400)]
    for row in rows:
        table.put(Put(row).add_column("f", "q", b"x" * 40))

    before = wal.entries_since(parent, 0)
    assert before, "expected WAL history for the parent region"

    report = cluster.run_maintenance()
    assert report["splits"] >= 1
    daughters = [loc.region_name for loc in cluster.region_locations("big")]
    assert parent not in daughters and len(daughters) >= 2

    assert list(wal.replay(parent)) == []   # the daughters' files hold it
    assert wal.entries_since(parent, 0) == before
    handed = wal.read("tailer")
    assert [c.row for e in handed if e.region_name == parent
            for c in e.cells] == rows
    wal.truncate()
    assert wal.entries_since(parent, 0) == []


# --- attached readers ---------------------------------------------------


def test_reader_attaches_at_the_end_and_reads_each_entry_once():
    wal = WriteAheadLog()
    wal.append("r1", [cell(b"old")], "t")
    wal.attach("reader")
    assert wal.unread("reader") == [] and wal.read("reader") == []
    wal.append("r1", [cell(b"a")], "t")
    wal.append("r2", [cell(b"b")], "u")
    assert wal.unread("reader") == wal.unread("reader")     # a peek
    first = wal.read("reader")
    assert [(e.table_name, e.region_name, e.cells[0].row) for e in first] \
        == [("t", "r1", b"a"), ("u", "r2", b"b")]
    assert all(e.nbytes == e.cells[0].heap_size() for e in first)
    assert wal.read("reader") == []
    wal.append("r1", [cell(b"c")], "t")
    assert [e.cells[0].row for e in wal.read("reader")] == [b"c"]


def test_truncate_keeps_what_is_unflushed_or_unread():
    wal = WriteAheadLog()
    wal.attach("slow")
    wal.attach("fast")
    s1 = wal.append("r1", [cell(b"a")])
    wal.append("r2", [cell(b"b")])
    wal.mark_flushed("r1", s1)
    wal.read("fast")
    wal.truncate()
    assert len(wal) == 2            # "slow" has read neither
    wal.read("slow")
    wal.truncate()
    assert [c.row for c in wal.replay("r2")] == [b"b"] and len(wal) == 1
    s3 = wal.append("r1", [cell(b"c")])
    wal.mark_flushed("r1", s3)
    wal.detach("slow")
    wal.detach("fast")              # nobody left to wait for
    wal.truncate()
    assert [e.region_name for e in wal.entries_since("r2", 0)] == ["r2"]
    assert len(wal) == 1
    # the tail after a gap is still found by sequence id
    s4 = wal.append("r2", [cell(b"d")])
    assert [e.sequence_id for e in wal.entries_since("r2", s3)] == [s4]
