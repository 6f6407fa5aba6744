from hypothesis import given, strategies as st

from repro.hbase.cell import Cell
from repro.hbase.hfile import BloomFilter, StoreFile, row_hash


def cell(row: bytes, ts: int = 1) -> Cell:
    return Cell(row, "f", "q", ts, b"value")


def store_file(cells, **kwargs) -> StoreFile:
    """A store file of loose cells: sorted first, as every builder hands
    a file its cells in KeyValue order."""
    return StoreFile(sorted(cells, key=Cell.sort_key), **kwargs)


def test_store_file_keeps_the_keyvalue_order_it_is_built_in():
    rewritten = Cell(b"b", "f", "q", 1, b"newer")
    sf = StoreFile([cell(b"a"), rewritten, cell(b"b"), cell(b"c")])
    assert [c.row for c in sf.scan()] == [b"a", b"b", b"b", b"c"]
    # of two cells with one sort key, the one handed over first stays first
    assert sf.scan(b"b", b"c")[0] is rewritten


def test_store_file_built_from_a_sorted_run_does_not_sort(monkeypatch):
    cells = sorted((Cell(b"r%03d" % i, "f", q, 1, b"v")
                    for i in range(100) for q in ("a", "b")), key=Cell.sort_key)
    calls = []
    original = Cell.sort_key
    monkeypatch.setattr(Cell, "sort_key",
                        lambda self: calls.append(1) or original(self))
    sf = StoreFile(cells)
    assert calls == []
    assert sf.scan() == cells


def test_scan_range():
    sf = store_file([cell(bytes([i])) for i in range(10)])
    rows = [c.row for c in sf.scan(bytes([3]), bytes([7]))]
    assert rows == [bytes([i]) for i in range(3, 7)]


def test_first_last_row():
    sf = store_file([cell(b"m"), cell(b"a"), cell(b"z")])
    assert sf.first_row == b"a"
    assert sf.last_row == b"z"
    assert StoreFile([]).first_row is None


def test_bloom_has_no_false_negatives():
    rows = [f"row{i}".encode() for i in range(200)]
    sf = store_file([cell(r) for r in rows])
    assert all(sf.might_contain_row(row_hash(r)) for r in rows)


def test_bloom_rejects_most_absent_rows():
    sf = store_file([cell(f"row{i}".encode()) for i in range(200)])
    misses = sum(
        1 for i in range(1000)
        if not sf.might_contain_row(row_hash(f"no{i}".encode()))
    )
    assert misses > 900  # < 10% false positive rate


def test_bloom_bit_layout_is_the_double_hash_of_one_digest():
    """Positions are ``(h1 + i*h2) mod bits`` of one 16-byte blake2b: a
    changed layout would move every false positive, and with it a seek."""
    import hashlib

    bloom = BloomFilter(4)
    bloom.add(row_hash(b"row"))
    digest = hashlib.blake2b(b"row", digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    expected = bytearray(len(bloom._bits))
    for i in range(3):
        pos = (h1 + i * h2) % 64
        expected[pos // 8] |= 1 << (pos % 8)
    assert bloom._bits == expected


def test_scanned_bytes_block_granular():
    cells = [cell(bytes([i])) for i in range(200)]
    sf = store_file(cells, block_cells=64)
    full = sf.scanned_bytes()
    assert full == sf.size_bytes
    narrow = sf.scanned_bytes(bytes([10]), bytes([11]))
    # one block's worth, not the whole file
    assert 0 < narrow < full
    block_bytes = sum(c.heap_size() for c in cells[:64])
    assert narrow == block_bytes


def test_scanned_bytes_empty_range():
    sf = store_file([cell(bytes([i])) for i in range(10)])
    assert sf.scanned_bytes(bytes([200]), None) == 0


@given(st.sets(st.binary(min_size=1, max_size=6), min_size=1, max_size=50))
def test_bloom_filter_property(keys):
    bloom = BloomFilter(len(keys))
    for key in keys:
        bloom.add(row_hash(key))
    assert all(bloom.might_contain(row_hash(k)) for k in keys)
