"""Referee for the bloom-gated point read.

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
"""

import hashlib
import itertools

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.hbase.cell import Cell, CellType
from repro.hbase.hfile import StoreFile, row_hash
from repro.hbase.region import Region, TimeRange
from repro.hbase.regionserver import RegionServer

ROWS = [b"r%d" % i for i in range(6)]
ABSENT = [b"r", b"r00", b"r9", b"s"]
COLUMNS = [("f", "q1"), ("f", "q2"), ("g", "q1")]
ALL_VERSIONS = 10**6
SEEK_S = DEFAULT_COST_MODEL.seek_cost_s

_rows = st.sampled_from(ROWS)
_columns = st.sampled_from(COLUMNS)


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
    @rule(families=st.none() | st.sets(st.sampled_from(["f", "g"]), min_size=1),
          columns=st.none() | st.sets(_columns, min_size=1),
          max_versions=st.sampled_from([1, 2, ALL_VERSIONS]),
          time_range=st.none() | st.tuples(st.integers(0, 12),
                                           st.integers(0, 30)))
    def draw_query(self, families, columns, max_versions, time_range):
        self.query = dict(
            families=families, columns=columns, max_versions=max_versions,
            time_range=None if time_range is None
            else TimeRange(time_range[0], time_range[0] + time_range[1]))

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
