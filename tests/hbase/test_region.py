from repro.common.errors import HBaseError
import pytest

from repro.hbase.cell import Cell, CellType
from repro.hbase.region import Region, TimeRange


def region(families=("f",), start=b"", end=b"", flush_threshold=10_000_000):
    return Region("t", list(families), start, end, flush_threshold,
                  region_id=1)


def put(r: Region, row: bytes, value: bytes = b"v", ts: int = 1,
        family: str = "f", qualifier: str = "q"):
    r.put_cells([Cell(row, family, qualifier, ts, value)])


def rows_of(r: Region, **kwargs):
    return [row for row, __ in r.scan_rows(**kwargs)]


def test_put_and_scan():
    r = region()
    for row in (b"b", b"a", b"c"):
        put(r, row)
    assert rows_of(r) == [b"a", b"b", b"c"]


def test_row_outside_region_rejected():
    r = region(start=b"b", end=b"d")
    with pytest.raises(HBaseError):
        put(r, b"a")
    with pytest.raises(HBaseError):
        put(r, b"d")


def test_unknown_family_rejected():
    r = region()
    with pytest.raises(HBaseError):
        put(r, b"a", family="nope")


def test_flush_moves_memstore_to_files_and_scan_still_sees_all():
    r = region()
    put(r, b"a")
    r.flush()
    put(r, b"b")
    assert rows_of(r) == [b"a", b"b"]
    assert r.stores["f"].memstore.size_bytes > 0  # b is still in memstore
    assert len(r.stores["f"].files) == 1


def test_newest_version_wins_across_files():
    r = region()
    put(r, b"a", b"old", ts=1)
    r.flush()
    put(r, b"a", b"new", ts=2)
    __, cells = next(iter(r.scan_rows()))
    assert cells[0].value == b"new"
    assert len(cells) == 1  # max_versions defaults to 1


def test_same_timestamp_rewrite_resolves_to_the_later_write():
    """HBase gives the later mutation the higher sequence id and it wins;
    the answer must not depend on where flushes and compactions fell."""
    def visible(r):
        (__, cells), = r.scan_rows(max_versions=10)
        return [c.value for c in cells]

    r = region()
    put(r, b"a", b"A", ts=5)
    put(r, b"a", b"B", ts=5)
    assert visible(r) == [b"B"]              # both in the memstore
    r.flush()
    put(r, b"a", b"C", ts=5)
    assert visible(r) == [b"C"]              # memstore over a file
    r.flush()
    assert visible(r) == [b"C"]              # young file over an old one
    r.compact(major=False)
    assert visible(r) == [b"C"]
    r.compact(major=True)
    assert visible(r) == [b"C"]
    assert len(r.stores["f"].files[0]) == 1  # the rewritten values are gone


def test_max_versions_returns_multiple():
    r = region()
    for ts in (1, 2, 3):
        put(r, b"a", str(ts).encode(), ts=ts)
    __, cells = next(iter(r.scan_rows(max_versions=2)))
    assert [c.value for c in cells] == [b"3", b"2"]


def test_delete_column_hides_older_versions():
    r = region()
    put(r, b"a", ts=5)
    r.put_cells([Cell(b"a", "f", "q", 6, cell_type=CellType.DELETE_COLUMN)])
    assert rows_of(r) == []


def test_delete_family_hides_whole_family():
    r = region(families=("f", "g"))
    put(r, b"a", family="f")
    put(r, b"a", family="g", ts=1)
    r.put_cells([Cell(b"a", "f", "", 9, cell_type=CellType.DELETE_FAMILY)])
    __, cells = next(iter(r.scan_rows()))
    assert {c.family for c in cells} == {"g"}


def test_put_newer_than_delete_is_visible():
    r = region()
    r.put_cells([Cell(b"a", "f", "q", 5, cell_type=CellType.DELETE_COLUMN)])
    put(r, b"a", b"new", ts=6)
    __, cells = next(iter(r.scan_rows()))
    assert cells[0].value == b"new"


def test_time_range_filters_versions():
    r = region()
    put(r, b"a", b"v1", ts=100)
    assert rows_of(r, time_range=TimeRange(0, 100)) == []
    assert rows_of(r, time_range=TimeRange(100, 101)) == [b"a"]


def test_column_selection_restricts_cells():
    r = region(families=("f", "g"))
    put(r, b"a", family="f", qualifier="q1")
    put(r, b"a", family="g", qualifier="q2", ts=1)
    __, cells = next(iter(r.scan_rows(columns={("f", "q1")})))
    assert [(c.family, c.qualifier) for c in cells] == [("f", "q1")]


def test_family_pruning_reduces_io_bytes():
    r = region(families=("f", "g"))
    for i in range(50):
        put(r, bytes([i]), family="f")
        put(r, bytes([i]), family="g", value=b"x" * 50)
    r.flush()
    all_bytes = r.io_bytes_for_range()
    f_only = r.io_bytes_for_range(families={"f"})
    assert 0 < f_only < all_bytes


def test_major_compaction_drops_tombstones():
    r = region()
    put(r, b"a", ts=1)
    r.put_cells([Cell(b"a", "f", "q", 2, cell_type=CellType.DELETE_COLUMN)])
    r.flush()
    r.compact(major=True)
    assert rows_of(r) == []
    assert sum(len(f) for f in r.stores["f"].files) == 0


def test_minor_compaction_merges_files_keeping_cells():
    r = region()
    put(r, b"a")
    r.flush()
    put(r, b"b")
    r.flush()
    assert len(r.stores["f"].files) == 2
    r.compact(major=False)
    assert len(r.stores["f"].files) == 1
    assert rows_of(r) == [b"a", b"b"]


def test_should_flush_threshold():
    r = region(flush_threshold=10)
    assert not r.should_flush()
    put(r, b"a", b"x" * 100)
    assert r.should_flush()


def test_split_partitions_rows():
    r = region()
    for i in range(20):
        put(r, bytes([i]))
    r.flush()
    left, right = r.split(iter((2, 3)).__next__)
    assert (left.region_id, right.region_id) == (2, 3)
    assert left.end_row == right.start_row
    left_rows = rows_of(left)
    right_rows = rows_of(right)
    assert len(left_rows) + len(right_rows) == 20
    assert max(left_rows) < min(right_rows)


def test_split_empty_region_returns_none_and_draws_no_id():
    ids = iter((2, 3))
    assert region().split(ids.__next__) is None
    assert next(ids) == 2


def test_clamp_respects_region_bounds():
    r = region(start=b"b", end=b"f")
    assert r.clamp(b"a", b"z") == (b"b", b"f")
    assert r.clamp(b"c", b"d") == (b"c", b"d")


def test_contains_row():
    r = region(start=b"b", end=b"d")
    assert not r.contains_row(b"a")
    assert r.contains_row(b"b")
    assert r.contains_row(b"c")
    assert not r.contains_row(b"d")


def test_compaction_reports_every_file_it_wrote():
    """``last_new_files`` is what gets an HDFS placement; a new file must
    not pass for an old one because it reuses a freed file's address."""
    families = [f"f{i}" for i in range(8)]
    r = region(families=families)
    for __ in range(2):
        for family in families:
            put(r, b"a", family=family)
        r.flush()
    r.compact(major=True)
    assert len(r.last_new_files) == len(families)
