"""Referee for the sliced scan: a row with nothing to resolve is a slice.

``Region.scan_rows`` hands a row out as a slice of its store file's row
index when every chosen family's cells in the range come from one file
whose columns are all asked for, the families agree on their rows and there
is no time range; only the file's dirty rows (a delete marker, or two
adjacent cells of one column) go through the visibility pass.  The referee
is the read that resolves every cell: ``_visible_rows(_merge_runs(runs))``
over the runs of the chosen families.

Hypothesis draws store-file histories -- puts, extra versions,
same-timestamp rewrites, the three delete kinds, flushes, minor and major
compactions (keeping 1-3 versions) over 1-3 families, aligned or not, with
memstore cells left over or flushed -- and reads them with drawn column
subsets, time ranges, version limits and row ranges.  ``Region.scan_rows``
must return the referee's rows, cells and per-row bytes, and
``RegionServer.scan`` (with a filter now and then) the same rows, bytes,
simulated seconds and counters as the same server reading without slices.
Two pinned cases show that the slice path does fire on a flushed,
major-compacted table, so the referee is not the reference checked against
itself.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.hbase import region as region_module
from repro.hbase.cell import Cell, CellType
from repro.hbase.filters import CompareOp, RowFilter, SingleColumnValueFilter
from repro.hbase.region import Region, TimeRange, _merge_runs, _visible_rows
from repro.hbase.regionserver import RegionServer

FAMILIES = ["f", "g", "h"]
QUALIFIERS = ["q1", "q2"]
ROWS = [b"r%d" % i for i in range(8)]
BOUNDS = [b"", *ROWS[1:], b"s"]
FILTERS = [RowFilter(CompareOp.LESS, b"r5"),
           SingleColumnValueFilter("f", "q1", CompareOp.GREATER, b"\x80")]

_values = st.binary(min_size=1, max_size=3)
_puts = st.tuples(st.just("put"), st.sampled_from(ROWS),
                  st.sampled_from(QUALIFIERS), st.integers(0, 2), _values)
_steps = st.one_of(
    _puts, _puts, _puts,
    st.tuples(st.just("rewrite"), st.sampled_from(ROWS),
              st.sampled_from(QUALIFIERS), st.integers(0, 2), _values),
    st.tuples(st.sampled_from([CellType.DELETE, CellType.DELETE_COLUMN,
                               CellType.DELETE_FAMILY]),
              st.sampled_from(ROWS), st.sampled_from(QUALIFIERS),
              st.integers(0, 2)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("minor")),
    st.tuples(st.just("major"), st.integers(1, 3)),
)


@st.composite
def histories(draw):
    """A region built from drawn steps: ``(region, families)``.

    An aligned history writes each put to every family, so multi-family
    reads can slice; an unaligned one writes only the drawn family.
    """
    families = FAMILIES[:draw(st.integers(1, 3))]
    aligned = draw(st.booleans())
    region = Region("t", families, flush_threshold=10**9, region_id=1)
    newest = {}
    for clock, step in enumerate(draw(st.lists(_steps, min_size=4, max_size=30)), 1):
        kind = step[0]
        if kind == "flush":
            region.flush()
        elif kind == "minor":
            region.compact(major=False)
        elif kind == "major":
            region.flush()
            region.compact(major=True, max_versions=step[1])
        else:
            __, row, qualifier, at, *value = step
            written = families if aligned and kind == "put" \
                else [families[at % len(families)]]
            for family in written:
                key = (row, family, qualifier)
                if kind == "put":
                    newest[key] = clock
                    cell = Cell(row, family, qualifier, clock, value[0])
                elif kind == "rewrite":
                    if key not in newest:
                        continue
                    cell = Cell(row, family, qualifier, newest[key], value[0])
                elif kind == CellType.DELETE:
                    if key not in newest:
                        continue
                    cell = Cell(row, family, qualifier, newest[key], cell_type=kind)
                else:
                    cell = Cell(row, family,
                                "" if kind == CellType.DELETE_FAMILY else qualifier,
                                clock, cell_type=kind)
                region.put_cells([cell])
    if draw(st.booleans()):
        region.flush()
        if draw(st.booleans()):
            region.compact(major=True, max_versions=draw(st.integers(1, 3)))
    return region, families


@st.composite
def reads(draw, families):
    columns = [(f, q) for f in families for q in QUALIFIERS]
    lo = draw(st.sampled_from(BOUNDS[:-1]))
    return dict(
        start_row=lo,
        stop_row=draw(st.none() | st.sampled_from([b for b in BOUNDS if b > lo])),
        families=draw(st.none() | st.sets(st.sampled_from(families), min_size=1)),
        columns=draw(st.none() | st.sets(st.sampled_from(columns), min_size=1)),
        time_range=draw(st.none() | st.builds(
            lambda lo, span: TimeRange(lo, lo + span),
            st.integers(0, 20), st.integers(0, 30))),
        max_versions=draw(st.integers(1, 3)),
    )


def matched(region, read):
    """The referee: every cell of the chosen families' runs resolved."""
    lo, hi = region.clamp(read["start_row"], read["stop_row"])
    if hi is not None and lo >= hi:
        return [], []
    runs = [run for family in region._chosen_families(read["families"], read["columns"])
            for run in region.stores[family].runs(lo, hi)]
    rows = list(_visible_rows(_merge_runs(runs), read["columns"],
                              read["time_range"], read["max_versions"]))
    return rows, [sum(cell.heap_size() for cell in cells) for __, cells in rows]


def server_scan(server, region, read, row_filter):
    ledger = CostLedger()
    rows, row_bytes = server.scan(region.name, read["start_row"], read["stop_row"],
                                  read["columns"], read["families"], row_filter,
                                  read["time_range"], read["max_versions"], ledger)
    return rows, row_bytes, repr(ledger.seconds), ledger.metrics.snapshot()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_sliced_scan_answers_as_the_matched_scan(data):
    region, families = data.draw(histories())
    server = RegionServer("rs1", "h1", DEFAULT_COST_MODEL)
    server.open_region(region)
    for __ in range(4):
        read = data.draw(reads(families))
        assert region.scan_rows(**read) == matched(region, read)
        row_filter = data.draw(st.none() | st.sampled_from(FILTERS))
        sliced = server_scan(server, region, read, row_filter)
        with mock.patch.object(Region, "_sliced_rows", return_value=None):
            assert sliced == server_scan(server, region, read, row_filter)


def _counting_visibility(patch):
    calls = []

    def counted(cells, *args):
        calls.append(len(cells))
        return _visible_rows(cells, *args)

    patch.setattr(region_module, "_visible_rows", counted)
    return calls


def _compacted_table(max_versions=1):
    """Two families, every row in both (``f:q1``, ``f:q2``, ``g:q1``),
    flushed and major-compacted."""
    region = Region("t", ["f", "g"], flush_threshold=10**9, region_id=1)
    for ts, row in enumerate(ROWS, 1):
        region.put_cells([Cell(row, "f", "q1", ts, b"a%d" % ts),
                          Cell(row, "f", "q2", ts, b"b%d" % ts),
                          Cell(row, "g", "q1", ts, b"c%d" % ts)])
    region.flush()
    region.compact(major=True, max_versions=max_versions)
    return region


def test_a_compacted_table_is_read_by_the_slice(monkeypatch):
    region = _compacted_table()
    read = dict(start_row=b"r1", stop_row=b"r6", families=None,
                columns={("f", "q1"), ("f", "q2"), ("g", "q1")},
                time_range=None, max_versions=1)
    calls = _counting_visibility(monkeypatch)
    rows, row_bytes = region.scan_rows(**read)
    assert calls == []  # no cell went through the visibility pass
    assert [row for row, __ in rows] == ROWS[1:6]
    monkeypatch.undo()
    assert (rows, row_bytes) == matched(region, read)

    # a time range is resolved cell by cell, as is a column the read
    # leaves out of a file
    calls = _counting_visibility(monkeypatch)
    region.scan_rows(b"r1", b"r6", time_range=TimeRange(0, 100))
    region.scan_rows(b"r1", b"r6", columns={("f", "q1")})
    assert calls == [15, 10]


def test_only_a_dirty_row_goes_through_the_visibility_pass(monkeypatch):
    """A second version of one row survives a major compaction that keeps
    two: that row alone is resolved, and it still answers one version."""
    region = _compacted_table()
    region.put_cells([Cell(b"r3", "f", "q1", 99, b"new")])
    region.flush()
    region.compact(major=True, max_versions=2)
    calls = _counting_visibility(monkeypatch)
    rows, __ = region.scan_rows()
    assert calls == [4]  # r3's two f:q1 versions, its f:q2 and its g:q1
    assert dict(rows)[b"r3"][0].value == b"new"
    monkeypatch.undo()
    assert region.scan_rows() == matched(region, dict(
        start_row=b"", stop_row=None, families=None, columns=None,
        time_range=None, max_versions=1))
