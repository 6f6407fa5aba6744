from hypothesis import given, strategies as st

from repro.hbase.cell import Cell
from repro.hbase.memstore import MemStore


def cell(row: bytes, ts: int = 1) -> Cell:
    return Cell(row, "f", "q", ts, b"v")


def test_add_keeps_sorted_order():
    store = MemStore()
    for row in (b"c", b"a", b"b"):
        store.add_all([cell(row)])
    assert [c.row for c in store.scan()] == [b"a", b"b", b"c"]


def test_bulk_add_equals_individual_adds():
    a, b = MemStore(), MemStore()
    cells = [cell(bytes([x])) for x in (5, 1, 9, 3)]
    for c in cells:
        a.add_all([c])
    b.add_all(cells)
    assert [c.row for c in a.scan()] == [c.row for c in b.scan()]


def test_scan_range_is_half_open():
    store = MemStore()
    store.add_all([cell(b"a"), cell(b"b"), cell(b"c")])
    assert [c.row for c in store.scan(b"a", b"c")] == [b"a", b"b"]


def test_size_tracking():
    store = MemStore()
    store.add_all([cell(b"row")])
    assert store.size_bytes == cell(b"row").heap_size()
    store.clear()
    assert store.size_bytes == 0
    assert len(store) == 0


def test_snapshot_returns_sorted_cells():
    store = MemStore()
    store.add_all([cell(b"b"), cell(b"a")])
    # what a flush writes out: the whole memstore, in KeyValue order
    snapshot = store.scan()
    assert [c.row for c in snapshot] == [b"a", b"b"]


@given(st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=30))
def test_scan_always_sorted(rows):
    store = MemStore()
    store.add_all([cell(r) for r in rows])
    scanned = [c.row for c in store.scan()]
    assert scanned == sorted(rows)


_ops = st.lists(st.one_of(
    st.just("clear"),
    # a small vocabulary: rewrites of one key, at one timestamp or not
    st.lists(st.tuples(st.sampled_from([b"a", b"b", b"c"]), st.sampled_from(["q", "r"]),
                       st.integers(1, 3), st.binary(max_size=3)), max_size=6),
), max_size=12)


@given(_ops)
def test_running_size_is_the_sum_of_what_a_scan_returns(ops):
    store = MemStore()
    for op in ops:
        if op == "clear":
            store.clear()
        else:
            store.add_all([Cell(row, "f", q, ts, v) for row, q, ts, v in op])
        assert store.size_bytes == sum(c.heap_size() for c in store.scan())


@given(st.lists(st.binary(max_size=3), max_size=12),
       st.lists(st.binary(max_size=3), max_size=12))
def test_held_rows_are_the_rows_a_scan_holds(stored, asked):
    store = MemStore()
    store.add_all([cell(row) for row in stored])
    asked = sorted(set(asked))
    assert store.held_rows(asked) == [row for row in asked if row in stored]
