"""Referee for the bloom-gated point read and its batch form.

``RegionServer.get`` hashes the row once, asks every store file of the
chosen families for it, charges a seek per file the bloom admits and reads
only those files and the memstore.  The referee is the ungated read of the
same region: ``Region.scan_rows(row, row + b"\\0", ...)`` over every file.
Hypothesis drives puts, same-timestamp rewrites, the three delete kinds,
flushes, minor and major compactions and splits, and now and then draws a
new query (families, columns, version limit, time range); after every step
each region answers a Get of every row -- present, absent, or outside its
bounds -- exactly as the referee does, and bills exactly one seek per
admitted file.

``RegionServer.get_rows`` serves a batch of Gets in one sorted pass.  Its
referee is the same Gets issued one by one: after every step each region
answers a drawn, shuffled batch -- present, absent, out-of-region and
repeated rows, each Get with its own query and maybe a filter -- with the
one-by-one answers, counters and (bit for bit) simulated seconds.
"""

import hashlib
import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.hbase.cell import Cell, CellType
from repro.hbase.client import Get
from repro.hbase.filters import (
    CompareOp, FilterList, FilterListOp, RowFilter, SingleColumnValueFilter,
)
from repro.hbase.hfile import StoreFile, row_hash
from repro.hbase.region import Region, TimeRange
from repro.hbase.regionserver import RegionServer

ROWS = [b"r%d" % i for i in range(6)]
ABSENT = [b"r", b"r00", b"r9", b"s"]
COLUMNS = [("f", "q1"), ("f", "q2"), ("g", "q1")]
ALL_VERSIONS = 10**6
SEEK_S = DEFAULT_COST_MODEL.seek_cost_s

#: one slot per row of a batch: every row, present or not, and four repeats
BATCH_ROWS = ROWS + ABSENT + ROWS[:4]
#: filters that cost one and two cell evaluations per found row
FILTERS = [RowFilter(CompareOp.LESS, b"r3"),
           FilterList(FilterListOp.MUST_PASS_ONE, [
               RowFilter(CompareOp.GREATER, b"r4"),
               SingleColumnValueFilter("f", "q1", CompareOp.GREATER, b"\x80")])]

_rows = st.sampled_from(ROWS)
_columns = st.sampled_from(COLUMNS)
_queries = st.fixed_dictionaries(dict(
    families=st.none() | st.sets(st.sampled_from(["f", "g"]), min_size=1),
    columns=st.none() | st.sets(_columns, min_size=1),
    max_versions=st.sampled_from([1, 2, ALL_VERSIONS]),
    time_range=st.none() | st.builds(
        lambda lo, span: TimeRange(lo, lo + span),
        st.integers(0, 12), st.integers(0, 30))))


def _ungated(region, row, query):
    """The referee: a one-row range read over every store file."""
    return [cells for __, cells in region.scan_rows(
        row, row + b"\x00", query["families"], query["columns"],
        query["time_range"], query["max_versions"])]


def _admitting(region, row, query):
    """The store files of the chosen families whose bloom admits ``row``,
    and how many files were asked."""
    files = [f for family in region._chosen_families(query["families"],
                                                     query["columns"])
             for f in region.stores[family].files]
    return [f for f in files if f.might_contain_row(row_hash(row))], len(files)


def _get(row, query, row_filter=None):
    get = Get(row)
    get.families, get.columns = query["families"], query["columns"]
    get.time_range, get.max_versions = query["time_range"], query["max_versions"]
    get.filter = row_filter
    return get


def _charged_seeks(admitted: int) -> float:
    seconds = 0.0
    for __ in range(admitted):
        seconds += SEEK_S
    return seconds


class PointReadReferee(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = RegionServer("rs1", "node1", DEFAULT_COST_MODEL)
        self.region_ids = itertools.count(1)
        self.server.open_region(Region("t", ["f", "g"], flush_threshold=10**9,
                                       region_id=next(self.region_ids)))
        self.clock = 0
        #: newest timestamp written per (row, family, qualifier)
        self.newest = {}
        self.query = dict(families=None, columns=None, time_range=None,
                          max_versions=1)
        self.batch = [_get(row, self.query) for row in reversed(BATCH_ROWS)]

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def _apply(self, cell: Cell) -> None:
        region = next(r for r in self.server.regions.values()
                      if r.contains_row(cell.row))
        region.put_cells([cell])

    # -- mutations ------------------------------------------------------------
    @rule(row=_rows, column=_columns, value=st.binary(min_size=1, max_size=4))
    def put(self, row, column, value):
        ts = self._tick()
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

    @rule(row=_rows, family=st.sampled_from(["f", "g"]))
    def delete_family(self, row, family):
        self._apply(Cell(row, family, "", self._tick(),
                         cell_type=CellType.DELETE_FAMILY))

    @rule()
    def flush(self):
        for name in list(self.server.regions):
            self.server.flush_region(name)

    @rule(major=st.booleans(), limit=st.sampled_from([1, 2, ALL_VERSIONS]))
    def compact(self, major, limit):
        for name in list(self.server.regions):
            self.server.compact_region(name, major, limit)

    @rule(which=st.integers(0, 3))
    def split(self, which):
        names = sorted(self.server.regions)
        name = names[which % len(names)]
        daughters = self.server.regions[name].split(
            lambda: next(self.region_ids))
        if daughters is None:
            return
        self.server.close_region(name)
        for daughter in daughters:
            self.server.open_region(daughter)

    # -- the query every later step is checked under ---------------------------
    @rule(query=_queries)
    def draw_query(self, query):
        self.query = query

    @rule(queries=st.lists(_queries, min_size=len(BATCH_ROWS),
                           max_size=len(BATCH_ROWS)),
          filters=st.lists(st.none() | st.sampled_from(FILTERS),
                           min_size=len(BATCH_ROWS), max_size=len(BATCH_ROWS)),
          order=st.permutations(range(len(BATCH_ROWS))))
    def draw_batch(self, queries, filters, order):
        self.batch = [_get(BATCH_ROWS[i], queries[i], filters[i]) for i in order]

    # -- the referee -------------------------------------------------------------
    @invariant()
    def gated_get_matches_the_ungated_read(self):
        q = self.query
        for region in list(self.server.regions.values()):
            for row in ROWS + ABSENT:
                ledger = CostLedger()
                got = self.server.get(region.name, row, q["columns"],
                                      q["families"], q["time_range"],
                                      q["max_versions"], ledger)
                expected = _ungated(region, row, q)
                if expected:
                    [cells] = expected
                    assert got == (row, cells, sum(map(Cell.heap_size, cells)))
                else:
                    assert got is None
                admitted, asked = _admitting(region, row, q)
                assert ledger.metrics.get("hbase.seeks") == len(admitted)
                assert ledger.metrics.get("hbase.bloom_probes") == asked
                assert ledger.seconds == _charged_seeks(len(admitted))

    @invariant()
    def a_batch_answers_as_its_gets_one_by_one(self):
        for region in list(self.server.regions.values()):
            batch, alone = CostLedger(), CostLedger()
            answers = self.server.get_rows(region.name, self.batch, batch)
            for get, (cells, nbytes) in zip(self.batch, answers):
                got = self.server.get(region.name, get.row, get.columns,
                                      get.families, get.time_range,
                                      get.max_versions, alone, get.filter)
                assert got == ((get.row, cells, nbytes) if cells else None)
            assert batch.metrics.snapshot() == alone.metrics.snapshot()
            assert batch.seconds == alone.seconds


TestPointReadReferee = PointReadReferee.TestCase
TestPointReadReferee.settings = settings(max_examples=100, deadline=None)


# -- the bloom's false positives and the pinned saving ------------------------------

def _server_with_files(rows_per_file):
    """A region server whose one region holds one store file per list."""
    server = RegionServer("rs1", "node1", DEFAULT_COST_MODEL)
    region = Region("t", ["f"], flush_threshold=10**9, region_id=1)
    server.open_region(region)
    for ts, rows in enumerate(rows_per_file, 1):
        region.put_cells([Cell(row, "f", "q", ts, b"v") for row in rows])
        server.flush_region(region.name)
    return server, region


def test_a_bloom_false_positive_is_charged_its_seek_and_answers_none():
    server, region = _server_with_files([[b"a%d" % i for i in range(6)]])
    [store_file] = region.stores["f"].files
    absent = next(row for row in (b"x%d" % i for i in itertools.count())
                  if store_file.might_contain_row(row_hash(row)))
    ledger = CostLedger()
    assert server.get(region.name, absent, ledger=ledger) is None
    assert ledger.metrics.get("hbase.seeks") == 1
    assert ledger.metrics.get("hbase.bloom_probes") == 1
    assert ledger.seconds == SEEK_S


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_get_of_an_absent_row_hashes_once_and_reads_no_file(monkeypatch):
    for n in (1, 8):
        server, region = _server_with_files(
            [[b"a%d-%d" % (i, j) for j in range(5)] for i in range(n)])
        files = region.stores["f"].files
        absent = next(row for row in (b"x%d" % i for i in itertools.count())
                      if not any(f.might_contain_row(row_hash(row))
                                 for f in files))
        with monkeypatch.context() as patch:
            hashes = _counting(patch, hashlib, "blake2b")
            scans = _counting(patch, StoreFile, "scan")
            ledger = CostLedger()
            assert server.get(region.name, absent, ledger=ledger) is None
        assert (len(hashes), len(scans)) == (1, 0), n
        assert ledger.metrics.get("hbase.bloom_probes") == n
        assert ledger.metrics.get("hbase.seeks") == 0


@pytest.mark.parametrize("files", [1, 8])
def test_a_batch_hashes_each_row_once_and_resolves_its_region_once(
        monkeypatch, files):
    """A batch of n Gets over one region costs n row hashes, one region
    lookup and no range read, however many store files the region has."""
    server, region = _server_with_files(
        [[b"a%d-%d" % (i, j) for j in range(5)] for i in range(files)])
    rows = [b"a0-%d" % j for j in range(5)] + [b"a9-0", b"x"]
    gets = [Get(row) for row in rows]
    with monkeypatch.context() as patch:
        hashes = _counting(patch, hashlib, "blake2b")
        lookups = _counting(patch, RegionServer, "_region")
        scans = _counting(patch, Region, "scan_rows")
        answers = server.get_rows(region.name, gets, CostLedger())
    assert (len(hashes), len(lookups), len(scans)) == (len(rows), 1, 0)
    assert [bool(cells) for cells, __ in answers] == [True] * 5 + [False] * 2
