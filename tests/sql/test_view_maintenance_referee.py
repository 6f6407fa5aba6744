"""Referee for incremental view maintenance.

Hypothesis drives batches of base-table writes -- fresh inserts,
overwrites, two writes to one row in one batch, partial-column puts, NULL
arguments, row and column deletes, some at one millisecond and some
apart -- with a flush or a minor or major compaction between batches.
Five views of one table follow the feed, under each row coder:

- count/sum/avg grouped by the leading row-key column (a delete recounts);
- the same grouped by a data column (rows move between groups; a delete
  invalidates);
- a sum grouped by a data column with no count beside it;
- min/max grouped by the leading row-key column (an overwrite recounts);
- a sum of a double column grouped by the leading row-key column.

The referee is a last-writer-wins model of the table aggregated in plain
Python, with SHC's scan semantics: a row that has no cell in any column a
view reads is not in that view.  After every ``run_maintenance`` each view's storage rows, hidden
helper columns included, equal the model's aggregate -- or the view is
invalidated and its table holds exactly the cells it held before the
batch.  An invalidated view is refreshed and must then equal the model.
Double arguments are quarter-integers, so a sum of them is exact in any
order: that shape checks that its overwrites take the recount path, not
rounding.

Every history runs three ways: with the fresh rows the region servers mark
(a row its region held no cell of, folded from the batch's own cells),
with no row marked (every written row read back, the reference path), and
with every bloom admitting every row.  Each run must equal the model, and
the three must leave the view tables equal cell for cell.  A store file
answers the rows it holds by its row index, so the last run must show
that some drawn history asked a bloom at all.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.simclock import SimClock
from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.hbase import ConnectionFactory, Delete, Scan
from repro.hbase.cluster import HBaseCluster
from repro.hbase.hfile import BloomFilter
from repro.hbase.region import Region
from repro.sql.session import SparkSession
from repro.sql.types import DoubleType, IntegerType, StructField, StructType
from tests.differential.strategies import hbase_table

HOSTS = ["node1", "node2", "node3"]
SCHEMA = StructType([StructField("k", IntegerType), StructField("j", IntegerType),
                     StructField("g", IntegerType), StructField("a", IntegerType),
                     StructField("d", DoubleType)])

#: name -> (group column, [(fn, argument, output)]); ``k`` leads the row key
VIEWS = {
    "by_k": ("k", [("count", None, "n"), ("count", "a", "c"),
                   ("sum", "a", "s"), ("avg", "a", "m")]),
    "by_g": ("g", [("count", None, "n"), ("count", "a", "c"),
                   ("sum", "a", "s"), ("avg", "a", "m")]),
    "sum_by_g": ("g", [("sum", "a", "s")]),
    "range_by_k": ("k", [("min", "a", "lo"), ("max", "a", "hi")]),
    "dsum_by_k": ("k", [("sum", "d", "sd")]),
}


_keys = st.tuples(st.integers(0, 2), st.integers(0, 3))
_row = st.fixed_dictionaries({
    "g": st.integers(0, 2),
    "a": st.none() | st.integers(-4, 9),
    "d": st.none() | st.integers(-8, 8).map(lambda n: n / 4),
})
_op = st.one_of(
    st.tuples(st.just("put"), _keys, _row),
    st.tuples(st.just("twice"), _keys, _row, _row),
    st.tuples(st.just("partial"), _keys, st.sampled_from(["g", "a", "d"]), _row),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("delete_column"), _keys, st.sampled_from(["a", "d"])),
)
#: a batch: its writes, each after a clock tick or not, then what the table
#: does before the next batch
_batch = st.tuples(st.lists(st.tuples(_op, st.booleans()), min_size=1, max_size=6),
                   st.sampled_from([None, "flush", "compact", "major"]))


def _view_sql(name):
    group, aggregates = VIEWS[name]
    items = ", ".join(f"{fn}({arg or '*'}) AS {out}" for fn, arg, out in aggregates)
    return f"SELECT {group}, {items} FROM facts GROUP BY {group}"


def _expected(name, model):
    """The view's storage rows, helpers included, aggregated from the model."""
    group, aggregates = VIEWS[name]
    read = {group, *(arg for __, arg, __ in aggregates)} - {"k", None}
    groups = {}
    for (k, __), row in model.items():
        if not read or read & row.keys():
            groups.setdefault(k if group == "k" else row["g"], []).append(row)
    expected = []
    for key, rows in groups.items():
        stored = {group: key, "_rows": len(rows)}
        for fn, arg, out in aggregates:
            values = [r[arg] for r in rows if r.get(arg) is not None] if arg else []
            total = sum(values) if values else None
            if fn == "count":
                stored[out] = len(rows) if arg is None else len(values)
            elif fn == "sum":
                stored[out] = total
            elif fn == "avg":
                stored.update({out: total / len(values) if values else None,
                               f"_sum_{out}": total, f"_cnt_{out}": len(values)})
            else:
                stored[out] = (min if fn == "min" else max)(values) if values else None
        expected.append(stored)
    return expected


def _canon(rows):
    return sorted(repr(sorted(row.items())) for row in rows)


class Harness:
    """One cluster, one base table under ``coder``, and the five views."""

    def __init__(self, coder, initial):
        clock = SimClock()
        self.cluster = HBaseCluster("referee", HOSTS, clock=clock)
        self.session = SparkSession(HOSTS, executors_requested=3, clock=clock)
        self.model = {key: {c: v for c, v in row.items() if v is not None}
                      for key, row in initial.items()}
        rows = [(k, j, row["g"], row["a"], row["d"])
                for (k, j), row in sorted(initial.items())]
        options = hbase_table(self.session, self.cluster, "facts", SCHEMA, rows,
                              ("k", "j"), coder, regions=2)
        self.codec = RowCodec(HBaseTableCatalog.from_json(
            options[HBaseTableCatalog.tableCatalog]))
        connection = ConnectionFactory.create_connection(self.cluster.configuration())
        self.table = connection.get_table(self.codec.catalog.qualified_name)
        for name in VIEWS:
            self.session.sql(f"CREATE MATERIALIZED VIEW {name} AS {_view_sql(name)}").run()
        self.views = {name: connection.get_table("mv_" + name) for name in VIEWS}
        self.check()

    # -- writes --------------------------------------------------------------
    def _put(self, key, values):
        put = self.codec.encode_row({"k": key[0], "j": key[1], **values})
        self.table.put(put)
        row = self.model.setdefault(key, {})
        row.update({c: v for c, v in values.items() if v is not None})

    def _tick(self):
        self.cluster.clock.advance(0.001)

    def apply(self, op):
        kind, key = op[0], op[1]
        row_key = self.codec.encode_key({"k": key[0], "j": key[1]})
        if kind == "put":
            self._put(key, op[2])
        elif kind == "twice":
            self._put(key, op[2])
            self._tick()
            self._put(key, op[3])
        elif kind == "partial":
            column, value = op[2], op[3][op[2]]
            if value is not None:
                # a new row gets its group column: a NULL group is no view row
                fresh = {"g": op[3]["g"]} if key not in self.model else {}
                self._put(key, {**fresh, column: value})
        elif kind == "delete":
            self.table.delete(Delete(row_key))
            self.model.pop(key, None)
        else:
            column = self.codec.catalog.column(op[2])
            self.table.delete(Delete(row_key).add_column(column.family,
                                                         column.qualifier))
            self.model.get(key, {}).pop(op[2], None)
        if kind.startswith("delete"):
            # a tombstone hides every version up to its own timestamp, a
            # put written after it in the same millisecond included
            self._tick()

    def between_batches(self, action):
        name = self.table.name
        if action == "flush":
            self.cluster.flush_table(name)
        elif action is not None:
            self.cluster.compact_table(name, major=action == "major")

    # -- the referee ---------------------------------------------------------
    def _stored(self, name):
        storage = self.session.views.maintainer(name).storage
        return storage.decode_rows(
            [(r.row, r.cells) for r in self.views[name].scan(Scan())])

    def _cells(self, name):
        return [(r.row, [(c.qualifier, c.timestamp, c.value) for c in r.cells])
                for r in self.views[name].scan(Scan())]

    def run_batch(self, ops):
        before = {name: self._cells(name) for name in VIEWS}
        for op, tick in ops:
            if tick:
                self._tick()
            self.apply(op)
        self.cluster.run_maintenance()
        for name in VIEWS:
            if self.session.views.maintainer(name).vdef.invalidated:
                # only a view whose group does not lead the row key gives up
                assert VIEWS[name][0] == "g", name
                assert self._cells(name) == before[name], name
                self.session.sql(f"REFRESH MATERIALIZED VIEW {name}").run()
        self.check()

    def check(self):
        for name in VIEWS:
            assert _canon(self._stored(name)) == _canon(_expected(name, self.model)), name


#: the bloom asks the "blooms_admit_all" runs made, one entry per call
_ADMIT_ALL_ASKS = []


def _admit_all(self, hashes):
    _ADMIT_ALL_ASKS.append(len(hashes))
    return list(range(len(hashes)))


#: how the region servers mark fresh rows: as they do; never, so every
#: written row is read back; and with every bloom admitting every row, so
#: a row is fresh only when no store's span or memstore holds it.  A store
#: file answers the rows it holds by its row index, so only the rows it
#: lacks reach the patched bloom.
MARKS = {
    "marked": {},
    "unmarked": {(Region, "fresh_rows"): lambda self, cells: frozenset()},
    "blooms_admit_all": {(BloomFilter, "admitted"): _admit_all},
}


@pytest.mark.parametrize("coder", ["PrimitiveType", "Phoenix"])
def test_views_equal_the_model_after_every_batch(coder):
    """Each history runs once per way of marking fresh rows: each run
    equals the model, and the three leave the same view cells, timestamps
    included.  Over the drawn histories the admit-all bloom must have been
    asked, or that run would only repeat the marked one."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(initial=st.dictionaries(_keys, _row, max_size=8),
           batches=st.lists(_batch, min_size=1, max_size=4))
    def history(initial, batches):
        cells = {}
        for marks, patches in MARKS.items():
            with pytest.MonkeyPatch.context() as patched:
                for (owner, name), replacement in patches.items():
                    patched.setattr(owner, name, replacement)
                harness = Harness(coder, initial)
                for ops, action in batches:
                    harness.run_batch(ops)
                    harness.between_batches(action)
                cells[marks] = {name: harness._cells(name) for name in VIEWS}
        assert cells["marked"] == cells["unmarked"] == cells["blooms_admit_all"]

    _ADMIT_ALL_ASKS.clear()
    history()
    assert any(_ADMIT_ALL_ASKS)
