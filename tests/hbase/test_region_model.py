"""Model-based testing: a Region against a reference dict model.

Hypothesis drives random interleavings of puts, same-timestamp rewrites,
deletes (family, column, one version), flushes and compactions over two
column families, and now and then draws a new *query* -- a row sub-range, a
column subset, a version limit, a time range.  After every step both a full
scan and the current query must agree with a trivially-correct in-memory
model, so every query shape is checked before and after whatever flush or
compaction follows it.  Each major compaction draws the version limit it
enforces (1, 2, 3 or all), so a scan after one sees ``min(asked, limit)``
versions and a scan before it whatever was asked, and a file one major
compaction resolved is compacted again at a lower, equal or higher limit.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hbase.cell import Cell, CellType
from repro.hbase.region import Region
from tests.differential.strategies import (
    ALL_VERSIONS,
    FAMILIES,
    cell_columns as _columns,
    cell_queries,
    cell_rows as _rows,
)

FULL_SCAN = dict(start_row=b"", stop_row=None, columns=None,
                 max_versions=1, time_range=None)


class RegionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.region = Region("t", FAMILIES, flush_threshold=10**9,
                             region_id=1)
        #: (row, family, qualifier) -> {timestamp: value}; the last write
        #: to a timestamp is the one that counts
        self.puts = {}
        #: newest tombstone over a column / a row's family; single deleted
        #: versions per column
        self.column_deleted = {}
        self.family_deleted = {}
        self.versions_deleted = {}
        self.clock = 0
        self.query = dict(FULL_SCAN)

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def _write(self, row, column, ts, value):
        family, qualifier = column
        self.region.put_cells([Cell(row, family, qualifier, ts, value)])
        self.puts.setdefault((row, *column), {})[ts] = value

    # -- mutations ------------------------------------------------------------
    @rule(row=_rows, column=_columns, value=st.binary(min_size=1, max_size=4))
    def put(self, row, column, value):
        self._write(row, column, self._tick(), value)

    @rule(row=_rows, column=_columns, value=st.binary(min_size=1, max_size=4))
    def rewrite_newest_version(self, row, column, value):
        """A second write to a timestamp that already holds a value.

        Only where no tombstone reaches that timestamp: a put at or below
        an earlier delete is masked until a major compaction drops the
        marker and visible after it (HBase's documented anomaly), which is
        not the behaviour under test.
        """
        versions = self.puts.get((row, *column))
        if not versions:
            return
        ts = max(versions)
        if ts > self._deleted_through(row, column) \
                and ts not in self.versions_deleted.get((row, *column), ()):
            self._write(row, column, ts, value)

    @rule(row=_rows, column=_columns)
    def delete_column(self, row, column):
        ts = self._tick()
        self.region.put_cells(
            [Cell(row, *column, ts, cell_type=CellType.DELETE_COLUMN)])
        self.column_deleted[(row, *column)] = ts

    @rule(row=_rows, column=_columns)
    def delete_newest_version(self, row, column):
        versions = self.puts.get((row, *column))
        if not versions:
            return
        ts = max(versions)
        self.region.put_cells(
            [Cell(row, *column, ts, cell_type=CellType.DELETE)])
        self.versions_deleted.setdefault((row, *column), set()).add(ts)

    @rule(row=_rows, family=st.sampled_from(FAMILIES))
    def delete_family(self, row, family):
        ts = self._tick()
        self.region.put_cells(
            [Cell(row, family, "", ts, cell_type=CellType.DELETE_FAMILY)])
        self.family_deleted[(row, family)] = ts

    @rule()
    def flush(self):
        self.region.flush()

    @rule()
    def minor_compact(self):
        self.region.compact(major=False)

    @rule(limit=st.sampled_from([1, 2, 3, ALL_VERSIONS]))
    def major_compact(self, limit):
        self.region.compact(major=True, max_versions=limit)
        # what a full-history scan could still see beyond the limit is gone
        for (row, *column), versions in self.puts.items():
            deleted_through = self._deleted_through(row, tuple(column))
            gone = self.versions_deleted.get((row, *column), ())
            live = sorted((ts for ts in versions
                           if ts > deleted_through and ts not in gone),
                          reverse=True)
            for ts in live[limit:]:
                del versions[ts]

    # -- the query every later step is checked under ----------------------------
    @rule(query=cell_queries(start_row=_rows, stop_row=st.none() | _rows))
    def draw_query(self, query):
        self.query = query

    # -- the model -------------------------------------------------------------
    def _deleted_through(self, row, column) -> int:
        return max(self.column_deleted.get((row, *column), 0),
                   self.family_deleted.get((row, column[0]), 0))

    def _expected(self, start_row, stop_row, columns, max_versions, time_range):
        """{row: {(family, qualifier): [values, newest first]}}."""
        visible = {}
        for (row, *column), versions in self.puts.items():
            column = tuple(column)
            if row < start_row or (stop_row is not None and row >= stop_row):
                continue
            if columns is not None and column not in columns:
                continue
            deleted_through = self._deleted_through(row, column)
            gone = self.versions_deleted.get((row, *column), ())
            values = [
                versions[ts] for ts in sorted(versions, reverse=True)
                if ts > deleted_through and ts not in gone
                and (time_range is None or time_range.contains(ts))
            ][:max_versions]
            if values:
                visible.setdefault(row, {})[column] = values
        return visible

    def _scanned(self, **query):
        got = {}
        rows, __ = self.region.scan_rows(**query)
        for row, cells in rows:
            assert row not in got, "a row came back twice"
            for cell in cells:
                got.setdefault(row, {}).setdefault(
                    (cell.family, cell.qualifier), []).append(cell.value)
        return got

    @invariant()
    def scan_matches_model(self):
        for query in (FULL_SCAN, self.query):
            assert self._scanned(**query) == self._expected(**query), query


TestRegionModel = RegionModel.TestCase
TestRegionModel.settings = settings(max_examples=150, stateful_step_count=40,
                                    deadline=None)
