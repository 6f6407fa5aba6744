import copy

from hypothesis import given, settings, strategies as st

from repro.hbase.cell import Cell
from repro.hbase.filters import (
    CompareOp,
    Filter,
    FilterList,
    FilterListOp,
    PrefixFilter,
    RowFilter,
    SingleColumnValueFilter,
)


def cells_for(value: bytes, family="f", qualifier="q"):
    return [Cell(b"row", family, qualifier, 1, value)]


def test_compare_op_semantics():
    assert CompareOp.LESS.evaluate(b"a", b"b")
    assert CompareOp.LESS_OR_EQUAL.evaluate(b"a", b"a")
    assert CompareOp.EQUAL.evaluate(b"a", b"a")
    assert CompareOp.NOT_EQUAL.evaluate(b"a", b"b")
    assert CompareOp.GREATER_OR_EQUAL.evaluate(b"b", b"b")
    assert CompareOp.GREATER.evaluate(b"b", b"a")


def test_row_filter():
    f = RowFilter(CompareOp.GREATER_OR_EQUAL, b"m")
    assert f.filter_row(b"z", [])
    assert not f.filter_row(b"a", [])


def test_prefix_filter():
    f = PrefixFilter(b"user-")
    assert f.filter_row(b"user-1", [])
    assert not f.filter_row(b"item-1", [])


def test_scvf_compares_column_value():
    f = SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"x")
    assert f.filter_row(b"r", cells_for(b"x"))
    assert not f.filter_row(b"r", cells_for(b"y"))


def test_scvf_filter_if_missing_true_drops_rows_without_column():
    f = SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"x",
                                filter_if_missing=True)
    assert not f.filter_row(b"r", cells_for(b"x", qualifier="other"))


def test_scvf_filter_if_missing_false_keeps_rows_without_column():
    f = SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"x",
                                filter_if_missing=False)
    assert f.filter_row(b"r", cells_for(b"x", qualifier="other"))


def test_filter_list_and():
    f = FilterList(FilterListOp.MUST_PASS_ALL, [
        SingleColumnValueFilter("f", "q", CompareOp.GREATER, b"a"),
        SingleColumnValueFilter("f", "q", CompareOp.LESS, b"z"),
    ])
    assert f.filter_row(b"r", cells_for(b"m"))
    assert not f.filter_row(b"r", cells_for(b"z"))


def test_filter_list_or():
    f = FilterList(FilterListOp.MUST_PASS_ONE, [
        SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"a"),
        SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"b"),
    ])
    assert f.filter_row(b"r", cells_for(b"b"))
    assert not f.filter_row(b"r", cells_for(b"c"))


def test_filter_list_cost_accumulates():
    inner = SingleColumnValueFilter("f", "q", CompareOp.EQUAL, b"a")
    f = FilterList(FilterListOp.MUST_PASS_ALL, [inner, inner, inner])
    assert f.cells_evaluated() == 3


def test_compare_op_functions_are_the_operators():
    import operator

    assert [op.function for op in CompareOp] == [
        operator.lt, operator.le, operator.eq, operator.ne, operator.ge,
        operator.gt]


# -- referee: a compiled filter is its filter_row ------------------------------

_COLUMNS = [("f", "a"), ("f", "b"), ("g", "a")]
_VALUES = st.binary(max_size=2)
#: now and then a comparator that cannot be ordered against bytes, so that
#: a comparison raises ``TypeError`` on the rows that reach it
_COMPARATORS = _VALUES | st.just(7)


def _leaves():
    column = st.sampled_from(_COLUMNS)
    return st.one_of(
        st.builds(lambda fq, op, value, missing: SingleColumnValueFilter(
                      fq[0], fq[1], op, value, filter_if_missing=missing),
                  column, st.sampled_from(CompareOp), _COMPARATORS,
                  st.booleans()),
        st.builds(RowFilter, st.sampled_from(CompareOp), _COMPARATORS),
        st.builds(PrefixFilter, st.binary(max_size=1)),
    )


_FILTERS = st.recursive(
    _leaves(),
    lambda children: st.builds(FilterList, st.sampled_from(FilterListOp),
                               st.lists(children, min_size=1, max_size=3)),
    max_leaves=8)


@st.composite
def _rows(draw):
    """Rows in KeyValue order: each column absent, or 1-3 versions, newest
    first."""
    rows = []
    for row in sorted(draw(st.sets(st.binary(max_size=2), max_size=8))):
        cells = []
        for family, qualifier in _COLUMNS:
            for ts in range(draw(st.integers(0, 3)), 0, -1):
                cells.append(Cell(row, family, qualifier, ts, draw(_VALUES)))
        rows.append((row, cells))
    return rows


def _outcomes(keep, rows):
    """What ``keep`` answers row by row, up to the row it raises on."""
    answers = []
    for row, cells in rows:
        try:
            answers.append(keep(row, cells))
        except Exception as exc:
            answers.append((type(exc), str(exc)))
            break
    return answers


@settings(max_examples=400, deadline=None)
@given(_FILTERS, _rows())
def test_compiled_filter_is_filter_row(row_filter, rows):
    """Over drawn AND/OR trees of every compare op, row/prefix filters,
    missing columns and ``filter_if_missing`` both ways: a fresh filter's
    ``compile()`` keeps exactly what its ``filter_row`` keeps, row by row,
    and raises on the same row with the same error."""
    fresh = copy.deepcopy(row_filter)
    assert _outcomes(fresh.compile(), rows) \
        == _outcomes(row_filter.filter_row, rows)


def test_a_filter_that_only_has_filter_row_compiles_to_it():
    class Odd(Filter):
        def filter_row(self, row, cells):
            return len(row) % 2 == 1

    keep = FilterList(FilterListOp.MUST_PASS_ONE, [Odd()]).compile()
    assert [keep(row, []) for row in (b"a", b"ab")] == [True, False]
