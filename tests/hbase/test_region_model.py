"""Model-based testing: a Region against a reference dict model.

Hypothesis drives random interleavings of puts, deletes, flushes and
compactions; after every step, a full scan of the region must agree with a
trivially-correct in-memory model (newest visible version per column).
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hbase.cell import Cell, CellType
from repro.hbase.region import Region

ROWS = [b"r%d" % i for i in range(6)]
QUALIFIERS = ["q1", "q2"]


class RegionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.region = Region("t", ["f"], flush_threshold=10**9, region_id=1)
        #: (row, qualifier) -> list of (ts, value or DELETE sentinel)
        self.history = {}
        self.clock = 0

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    @rule(row=st.sampled_from(ROWS), qualifier=st.sampled_from(QUALIFIERS),
          value=st.binary(min_size=1, max_size=4))
    def put(self, row, qualifier, value):
        ts = self._tick()
        self.region.put_cells([Cell(row, "f", qualifier, ts, value)])
        self.history.setdefault((row, qualifier), []).append((ts, value))

    @rule(row=st.sampled_from(ROWS), qualifier=st.sampled_from(QUALIFIERS))
    def delete_column(self, row, qualifier):
        ts = self._tick()
        self.region.put_cells(
            [Cell(row, "f", qualifier, ts, cell_type=CellType.DELETE_COLUMN)]
        )
        self.history.setdefault((row, qualifier), []).append((ts, None))

    @rule(row=st.sampled_from(ROWS))
    def delete_family(self, row):
        ts = self._tick()
        self.region.put_cells(
            [Cell(row, "f", "", ts, cell_type=CellType.DELETE_FAMILY)]
        )
        for qualifier in QUALIFIERS:
            self.history.setdefault((row, qualifier), []).append((ts, None))

    @rule()
    def flush(self):
        self.region.flush()

    @rule()
    def minor_compact(self):
        self.region.compact(major=False)

    @rule()
    def major_compact(self):
        self.region.compact(major=True)

    def _expected(self):
        visible = {}
        for (row, qualifier), events in self.history.items():
            __, newest = max(events, key=lambda e: e[0])
            if newest is not None:
                visible.setdefault(row, {})[qualifier] = newest
        return visible

    @invariant()
    def scan_matches_model(self):
        got = {}
        for row, cells in self.region.scan_rows():
            got[row] = {c.qualifier: c.value for c in cells}
        assert got == self._expected()


TestRegionModel = RegionModel.TestCase
TestRegionModel.settings = settings(max_examples=30, stateful_step_count=25,
                                    deadline=None)
