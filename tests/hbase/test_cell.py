from repro.hbase.cell import Cell, CellType


def compare_cells(a: Cell, b: Cell) -> int:
    """Three-way comparison in KeyValue order, one pair at a time."""
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def make(row=b"r", family="f", qualifier="q", ts=1, value=b"v",
         cell_type=CellType.PUT):
    return Cell(row, family, qualifier, ts, value, cell_type)


def test_sort_rows_ascending():
    assert compare_cells(make(row=b"a"), make(row=b"b")) == -1


def test_sort_families_then_qualifiers():
    assert compare_cells(make(family="a"), make(family="b")) == -1
    assert compare_cells(make(qualifier="a"), make(qualifier="b")) == -1


def test_newest_timestamp_first():
    newer, older = make(ts=10), make(ts=5)
    assert compare_cells(newer, older) == -1


def test_delete_sorts_before_put_at_same_coordinates():
    delete = make(cell_type=CellType.DELETE_COLUMN)
    put = make()
    assert compare_cells(delete, put) == -1


def test_heap_size_counts_payload():
    cell = make(row=b"rr", value=b"vvv")
    assert cell.heap_size() == 2 + 1 + 1 + 3 + 12


def test_delete_family_shadows_everything_older():
    marker = make(ts=10, cell_type=CellType.DELETE_FAMILY, qualifier="")
    assert marker.shadows(make(ts=9))
    assert marker.shadows(make(ts=10, qualifier="other"))
    assert not marker.shadows(make(ts=11))


def test_delete_column_shadows_only_its_column():
    marker = make(ts=10, cell_type=CellType.DELETE_COLUMN)
    assert marker.shadows(make(ts=9))
    assert not marker.shadows(make(ts=9, qualifier="other"))


def test_delete_version_shadows_exact_timestamp():
    marker = make(ts=10, cell_type=CellType.DELETE)
    assert marker.shadows(make(ts=10))
    assert not marker.shadows(make(ts=9))


def test_put_never_shadows():
    assert not make(ts=10).shadows(make(ts=5))


def test_compare_equal():
    assert compare_cells(make(), make()) == 0
