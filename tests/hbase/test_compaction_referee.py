"""Referee for compaction: the merged-by-row, partly resolved file equals
the file the reference read path would write.

``Store.compact`` merges its files by row and, in a major compaction,
passes the rows only a resolved file holds through untouched.  The referee
is the read path over the same inputs: ``_merge_runs`` of the files
(newest first), then -- for a major compaction -- ``_visible_rows`` at the
compaction's limit, built into a ``StoreFile``.  Hypothesis drives puts,
same-timestamp rewrites, the three delete kinds, flushes, splits, minor
compactions and major compactions at a limit drawn for each; after every
compaction each store's file must equal the referee's cell for cell, with
the same row index, block bytes, size and bloom bits.

The bloom a file builds from its keys in one loop must also set exactly
the bits that adding each key's ``row_hash`` on its own sets.
"""

import itertools

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.hbase.cell import Cell, CellType
from repro.hbase.hfile import BloomFilter, StoreFile
from repro.hbase.region import Region, _merge_runs, _visible_rows
from tests.differential.strategies import ALL_VERSIONS, COLUMNS, FAMILIES
from tests.hbase.references import per_key_bloom

#: more rows than the other referees draw: a resolved file must be able to
#: hold most of a region's rows for its pass-through to be taken
ROWS = [b"r%02d" % i for i in range(12)]
LIMITS = st.sampled_from([1, 2, 3, ALL_VERSIONS])

_rows = st.sampled_from(ROWS)
_columns = st.sampled_from(COLUMNS)


def referee_file(inputs, major, limit):
    """The file the read path makes of ``inputs`` (oldest first), or None."""
    cells = _merge_runs([f.scan() for f in reversed(inputs)])
    if major:
        cells = [cell for __, visible in _visible_rows(cells, None, None, limit)
                 for cell in visible]
    return StoreFile(cells) if cells else None


def assert_same_file(got: StoreFile, expected: StoreFile) -> None:
    assert got.scan() == expected.scan()
    assert got.row_keys == expected.row_keys
    assert got.row_starts == expected.row_starts
    assert got._block_bytes == expected._block_bytes
    assert got.size_bytes == expected.size_bytes
    assert got.bloom()._num_bits == expected.bloom()._num_bits
    assert got.bloom()._bits == expected.bloom()._bits
    assert got.bloom()._bits == per_key_bloom(got.row_keys)._bits


class CompactionReferee(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.region_ids = itertools.count(1)
        self.regions = [Region("t", FAMILIES, flush_threshold=10**9,
                               region_id=next(self.region_ids))]
        self.clock = 0
        #: newest timestamp written per (row, family, qualifier)
        self.newest = {}

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def _apply(self, cell: Cell) -> None:
        region = next(r for r in self.regions if r.contains_row(cell.row))
        region.put_cells([cell])

    # -- mutations ------------------------------------------------------------
    @rule(rows=st.lists(_rows, min_size=1, max_size=len(ROWS), unique=True),
          column=_columns, value=st.binary(min_size=1, max_size=4))
    def put(self, rows, column, value):
        ts = self._tick()
        for row in rows:
            self._apply(Cell(row, *column, ts, value))
            self.newest[(row, *column)] = ts

    @rule(row=_rows, column=_columns, value=st.binary(min_size=1, max_size=4))
    def rewrite_newest_version(self, row, column, value):
        ts = self.newest.get((row, *column))
        if ts is not None:
            self._apply(Cell(row, *column, ts, value))

    @rule(row=_rows, column=_columns)
    def delete_column(self, row, column):
        self._apply(Cell(row, *column, self._tick(),
                         cell_type=CellType.DELETE_COLUMN))

    @rule(row=_rows, column=_columns)
    def delete_newest_version(self, row, column):
        ts = self.newest.get((row, *column))
        if ts is not None:
            self._apply(Cell(row, *column, ts, cell_type=CellType.DELETE))

    @rule(row=_rows, family=st.sampled_from(FAMILIES))
    def delete_family(self, row, family):
        self._apply(Cell(row, family, "", self._tick(),
                         cell_type=CellType.DELETE_FAMILY))

    @rule()
    def flush(self):
        for region in self.regions:
            region.flush()

    @rule(which=st.integers(0, 3))
    def split(self, which):
        index = which % len(self.regions)
        daughters = self.regions[index].split(lambda: next(self.region_ids))
        if daughters is not None:
            self.regions[index:index + 1] = daughters

    # -- compactions, each checked against the referee ----------------------------
    def _compact(self, which, flush_first, major, limit):
        region = self.regions[which % len(self.regions)]
        if flush_first:
            region.flush()
        inputs = {family: list(store.files)
                  for family, store in region.stores.items()}
        region.compact(major, limit)
        for family, store in region.stores.items():
            files = inputs[family]
            if not files or (len(files) == 1 and not major):
                assert store.files == files
                continue
            expected = referee_file(files, major, limit)
            if expected is None:
                assert store.files == []
                continue
            [got] = store.files
            assert_same_file(got, expected)
            assert got.resolved_versions == (limit if major else None)

    @rule(which=st.integers(0, 3), flush_first=st.booleans())
    def minor_compact(self, which, flush_first):
        self._compact(which, flush_first, False, ALL_VERSIONS)

    @rule(which=st.integers(0, 3), flush_first=st.booleans(), limit=LIMITS)
    def major_compact(self, which, flush_first, limit):
        self._compact(which, flush_first, True, limit)


TestCompactionReferee = CompactionReferee.TestCase
TestCompactionReferee.settings = settings(max_examples=200,
                                          stateful_step_count=40,
                                          deadline=None)


@given(st.sets(st.binary(max_size=8), max_size=64))
def test_bloom_builder_sets_the_bits_of_each_key_alone(keys):
    keys = sorted(keys)
    assert BloomFilter(keys)._bits == per_key_bloom(keys)._bits


def test_bloom_builder_on_no_key_and_one_key():
    assert BloomFilter([])._bits == per_key_bloom([])._bits == bytearray(8)
    one = BloomFilter([b"row"])
    assert one._bits == per_key_bloom([b"row"])._bits
    assert bin(int.from_bytes(one._bits, "big")).count("1") in (1, 2, 3)
