import json

import pytest

from repro.core.catalog import HBaseTableCatalog
from repro.core.coders import get_coder
from repro.core.keys import RowCodec
from repro.core.pushdown import MAX_PUSHED_IN_VALUES, PushdownCompiler
from repro.hbase.cell import Cell
from repro.hbase.filters import FilterList, SingleColumnValueFilter
from repro.sql import sources as S


def catalog(coder="PrimitiveType"):
    return HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "k1:k2",
        "columns": {
            "k1": {"cf": "rowkey", "col": "k1", "type": "int"},
            "k2": {"cf": "rowkey", "col": "k2", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "int"},
            "s": {"cf": "g", "col": "s", "type": "string"},
        },
    }))


def compiler(coder="PrimitiveType"):
    cat = catalog(coder)
    return PushdownCompiler(RowCodec(cat)), cat, get_coder(coder)


def row_cells(cod, cat, **values):
    cells = []
    for name, value in values.items():
        col = cat.column(name)
        cells.append(Cell(b"r", col.family, col.qualifier, 1,
                          cod.encode(value, col.dtype)))
    return cells


def evaluate(hfilter, cod, cat, **values):
    return hfilter.filter_row(b"r", row_cells(cod, cat, **values))


def test_equality_on_data_column_pushes_scvf():
    comp, cat, cod = compiler()
    result = comp.compile([S.EqualTo("v", 5)])
    assert isinstance(result.hbase_filter, SingleColumnValueFilter)
    assert result.unhandled == []
    assert evaluate(result.hbase_filter, cod, cat, v=5)
    assert not evaluate(result.hbase_filter, cod, cat, v=6)


def test_range_on_data_column_sign_split_is_exact():
    """PrimitiveType ints: v > -3 must not drop positive values."""
    comp, cat, cod = compiler()
    result = comp.compile([S.GreaterThan("v", -3)])
    assert result.hbase_filter is not None
    assert result.unhandled == []
    for value in (-5, -3, -2, -1, 0, 1, 100):
        assert evaluate(result.hbase_filter, cod, cat, v=value) == (value > -3)


def test_range_on_ordered_coder_single_filter():
    comp, cat, cod = compiler("Phoenix")
    result = comp.compile([S.GreaterThanOrEqual("v", 10)])
    assert result.unhandled == []
    for value in (-50, 9, 10, 11):
        assert evaluate(result.hbase_filter, cod, cat, v=value) == (value >= 10)


def test_negation_not_pushed():
    """The paper's rule: NOT IN / != stays in Spark's second layer."""
    comp, __, __c = compiler()
    result = comp.compile([S.Not(S.In("v", (1, 2, 3)))])
    assert result.hbase_filter is None
    assert len(result.unhandled) == 1


def test_small_in_list_pushed_as_or():
    comp, cat, cod = compiler()
    result = comp.compile([S.In("v", (1, 5))])
    assert isinstance(result.hbase_filter, FilterList)
    assert result.unhandled == []
    assert evaluate(result.hbase_filter, cod, cat, v=5)
    assert not evaluate(result.hbase_filter, cod, cat, v=4)


def test_large_in_list_not_pushed():
    comp, __, __c = compiler()
    values = tuple(range(MAX_PUSHED_IN_VALUES + 1))
    result = comp.compile([S.In("v", values)])
    assert result.hbase_filter is None
    assert result.unhandled


def test_first_dim_rowkey_handled_by_pruning_without_filter():
    comp, __, __c = compiler()
    result = comp.compile([S.GreaterThan("k1", 5)])
    assert result.hbase_filter is None  # ranges cover it
    assert result.unhandled == []       # and it is fully handled


def test_second_dim_rowkey_not_handled():
    comp, __, __c = compiler()
    result = comp.compile([S.GreaterThan("k2", 5)])
    assert result.hbase_filter is None
    assert len(result.unhandled) == 1


def test_and_pushes_handled_subset():
    comp, cat, cod = compiler()
    # one translatable side, one negation: push the subset, report unhandled
    flt = S.And(S.EqualTo("v", 1), S.Not(S.EqualTo("s", "x")))
    result = comp.compile([flt])
    assert result.hbase_filter is not None  # the v = 1 half
    assert result.unhandled == [flt]        # engine re-applies the whole AND
    assert evaluate(result.hbase_filter, cod, cat, v=1, s="x")


def test_or_requires_both_sides():
    comp, __, __c = compiler()
    flt = S.Or(S.EqualTo("v", 1), S.Not(S.EqualTo("s", "x")))
    result = comp.compile([flt])
    assert result.hbase_filter is None
    assert result.unhandled == [flt]


def test_or_of_pushable_sides_pushes():
    comp, cat, cod = compiler()
    flt = S.Or(S.EqualTo("v", 1), S.EqualTo("s", "x"))
    result = comp.compile([flt])
    assert isinstance(result.hbase_filter, FilterList)
    assert result.unhandled == []
    assert evaluate(result.hbase_filter, cod, cat, v=2, s="x")
    assert not evaluate(result.hbase_filter, cod, cat, v=2, s="y")


def test_multiple_filters_combined_with_and():
    comp, cat, cod = compiler()
    result = comp.compile([S.EqualTo("v", 1), S.EqualTo("s", "x")])
    assert isinstance(result.hbase_filter, FilterList)
    assert evaluate(result.hbase_filter, cod, cat, v=1, s="x")
    assert not evaluate(result.hbase_filter, cod, cat, v=1, s="y")


def test_is_null_not_pushed():
    comp, __, __c = compiler()
    result = comp.compile([S.IsNull("v")])
    assert result.hbase_filter is None
    assert result.unhandled


def test_avro_only_equality_pushed():
    comp, cat, cod = compiler("Avro")
    eq = comp.compile([S.EqualTo("v", 5)])
    assert eq.hbase_filter is not None and not eq.unhandled
    gt = comp.compile([S.GreaterThan("v", 5)])
    assert gt.hbase_filter is None and gt.unhandled
