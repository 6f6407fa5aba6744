from hypothesis import example, given, strategies as st

from repro.hbase.cell import Cell
from repro.hbase.hfile import BloomFilter, StoreFile, row_hash
from tests.hbase.references import (
    count_digests, might_contain, might_contain_row, per_key_bloom,
)


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
    assert all(might_contain_row(sf, row_hash(r)) for r in rows)


def test_bloom_rejects_most_absent_rows():
    sf = store_file([cell(f"row{i}".encode()) for i in range(200)])
    misses = sum(
        1 for i in range(1000)
        if not might_contain_row(sf, row_hash(f"no{i}".encode()))
    )
    assert misses > 900  # < 10% false positive rate


def test_bloom_bit_layout_is_the_double_hash_of_one_digest():
    """Positions are ``(h1 + i*h2) mod bits`` of one 16-byte blake2b: a
    changed layout would move every false positive, and with it a seek."""
    import hashlib

    digest = hashlib.blake2b(b"row", digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    assert row_hash(b"row") == (h1, h2)
    expected = bytearray(8)
    for i in range(3):
        pos = (h1 + i * h2) % 64
        expected[pos // 8] |= 1 << (pos % 8)
    assert BloomFilter([b"row"])._bits == expected
    assert per_key_bloom([b"row"])._bits == expected


def scanned_bytes(sf, start_row=b"", stop_row=None):
    return sum(nbytes for __, nbytes in sf.blocks_for_range(start_row, stop_row))


def test_scanned_bytes_block_granular():
    cells = [cell(bytes([i])) for i in range(200)]
    sf = store_file(cells, block_cells=64)
    full = scanned_bytes(sf)
    assert full == sf.size_bytes
    narrow = scanned_bytes(sf, bytes([10]), bytes([11]))
    # one block's worth, not the whole file
    assert 0 < narrow < full
    block_bytes = sum(c.heap_size() for c in cells[:64])
    assert narrow == block_bytes


def test_scanned_bytes_empty_range():
    sf = store_file([cell(bytes([i])) for i in range(10)])
    assert scanned_bytes(sf, bytes([200]), None) == 0


@given(st.sets(st.binary(min_size=1, max_size=6), max_size=50))
def test_bloom_filter_property(keys):
    bloom = BloomFilter(sorted(keys))
    assert all(might_contain(bloom, row_hash(k)) for k in keys)


# -- the bloom built on first need ---------------------------------------------

#: rows no drawn key of at most four bytes can reach: below and above
#: every key, so outside any file's span
OUTSIDE = [b"", b"\xff" * 5]


@example(keys=set(), probes={b"a"}, picks=[], outside=set(OUTSIDE))
@example(keys={b"m"}, probes=set(), picks=[0], outside=set())
@example(keys={b"m"}, probes={b"a", b"m0"}, picks=[0], outside=set(OUTSIDE))
@given(st.sets(st.binary(min_size=1, max_size=4), max_size=40),
       st.sets(st.binary(min_size=1, max_size=4), max_size=20),
       st.lists(st.integers(0, 39), max_size=20),
       st.sets(st.sampled_from(OUTSIDE)))
def test_admitted_rows_answer_as_the_per_key_bloom(keys, probes, picks, outside):
    """A sorted batch of held rows, absent rows inside the span and rows
    outside it is admitted exactly as asking the per-key bloom row by row
    admits it; the bloom is built only when some row is not held."""
    ordered = sorted(keys)
    held = {ordered[i % len(ordered)] for i in picks} if ordered else set()
    rows = sorted(held | probes | outside)
    hashes = list(map(row_hash, rows))
    sf = store_file([cell(k) for k in ordered])
    reference = per_key_bloom(ordered)
    assert sf.admitted_rows(rows, hashes) == [
        i for i, hashed in enumerate(hashes) if might_contain(reference, hashed)]
    assert (sf._bloom is not None) == any(row not in keys for row in rows)
    assert sf.bloom()._bits == reference._bits


def test_a_file_asked_only_about_rows_it_holds_builds_no_bloom(monkeypatch):
    rows = [b"r%03d" % i for i in range(100)]
    sf = store_file([cell(r) for r in rows])
    hashes = list(map(row_hash, rows))
    digests = count_digests(monkeypatch)
    assert sf.admitted_rows(rows, hashes) == list(range(100))
    assert sf.admitted_rows(rows[::7], hashes[::7]) == list(range(15))
    assert digests == []
    assert sf._bloom is None


def test_the_first_ask_about_an_absent_row_builds_the_bloom_once(monkeypatch):
    rows = [b"r%03d" % i for i in range(100)]
    sf = store_file([cell(r) for r in rows])
    builds = []
    original = BloomFilter.__init__
    monkeypatch.setattr(BloomFilter, "__init__",
                        lambda self, keys: builds.append(1) or original(self, keys))
    with monkeypatch.context() as patch:
        digests = count_digests(patch)
        asked = [b"r000", b"r0005", b"r050"]
        sf.admitted_rows(asked, list(map(row_hash, asked)))
    assert len(builds) == 1
    assert len(digests) == len(asked) + len(rows)
    with monkeypatch.context() as patch:
        digests = count_digests(patch)
        asked = [b"a", b"r0105", b"s"]
        sf.admitted_rows(asked, list(map(row_hash, asked)))
    assert len(builds) == 1
    assert digests == asked
