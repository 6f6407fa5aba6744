import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CoderError
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseTableCatalog
from repro.core.coders import get_coder
from repro.core.coders import primitive as primitive_module
from repro.core.keys import (
    RowCodec, decode_rowkey, encode_key_dimension, encode_rowkey,
    prefix_successor,
)
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cell import Cell
from repro.hbase.cluster import HBaseCluster
from repro.sql.session import SparkSession
from repro.sql.types import (
    DoubleType, IntegerType, LongType, StringType, StructField, StructType,
)


def composite_catalog(coder="PrimitiveType"):
    return HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "a:b:c",
        "columns": {
            "a": {"cf": "rowkey", "col": "a", "type": "int"},
            "b": {"cf": "rowkey", "col": "b", "type": "string", "length": 6},
            "c": {"cf": "rowkey", "col": "c", "type": "string"},
            "d": {"cf": "f", "col": "d", "type": "double"},
        },
    }))


_ids = itertools.count(1)
_HOSTS = ["node1", "node2", "node3"]
_ANY_TEXT = st.text(max_size=12)  # multi-byte UTF-8 and embedded NUL included


def _padded_text(coder):
    """Strings for a padded dimension: up to 6 chars, so one fills its width.

    Raw UTF-8 (PrimitiveType, Phoenix) is padded with NUL and stripped on
    read, so NUL is the one codepoint it cannot hold; Avro's length prefix
    makes the value self-delimiting and NUL is as good as any other.
    """
    first = 0 if coder == "Avro" else 1
    return st.text(alphabet=st.characters(min_codepoint=first, max_codepoint=127),
                   max_size=6)


@st.composite
def row_formats(draw, key_shapes=("a:b:c",)):
    """(catalog JSON, SQL schema, rows): a generated catalog and data for it.

    A composite key ``a:b:c`` -- an int, a padded string, a variable-width
    terminal string; ``key_shapes`` may name others, among them the
    fixed-width ``e`` (bigint) and ``g`` (double), so that ``a:e:g`` is a
    key PrimitiveType decodes with one ``struct`` call -- under any of the
    three table coders, nullable data columns and one Avro-schema column
    that overrides the table coder.  ``n`` is never NULL, so every row keeps
    a cell and stays visible to a scan.
    """
    coder = draw(st.sampled_from(["PrimitiveType", "Phoenix", "Avro"]))
    avro = coder == "Avro"
    dimensions = {
        # a varint has no native width: Avro needs one declared
        "a": (IntegerType, st.integers(-(2**31), 2**31 - 1),
              {"length": 8} if avro else {}),
        # Avro spends two bytes of the width on the union branch and length
        "b": (StringType, _padded_text(coder), {"length": 8 if avro else 6}),
        "c": (StringType, _ANY_TEXT, {}),
        # a union branch byte and up to ten of varint
        "e": (LongType, st.integers(-(2**63), 2**63 - 1),
              {"length": 11} if avro else {}),
        "g": (DoubleType, st.floats(allow_nan=False),
              {"length": 10} if avro else {}),
    }
    key = [(name, *dimensions[name])
           for name in draw(st.sampled_from(key_shapes)).split(":")]
    data = [
        ("n", LongType, st.integers(-(2**63), 2**63 - 1), {}),
        ("d", DoubleType, st.none() | st.floats(allow_nan=False), {}),
        ("s", StringType, st.none() | _ANY_TEXT, {}),
        ("r", StringType, st.none() | _ANY_TEXT, {"avro": '{"type": "string"}'}),
    ]
    columns = {}
    for name, dtype, __, extra in key:
        columns[name] = {"cf": "rowkey", "col": name, "type": dtype.name, **extra}
    for name, dtype, __, extra in data:
        columns[name] = {"cf": "f", "col": name, **(extra or {"type": dtype.name})}
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": ":".join(name for name, *__ in key),
        "columns": columns,
    })
    rows = draw(st.lists(
        st.tuples(*(values for __, __, values, __ in key + data)),
        min_size=1, max_size=5, unique_by=lambda row: row[:len(key)]))
    schema = StructType([StructField(name, dtype)
                         for name, dtype, __, __ in key + data])
    return catalog, schema, rows


def decode_per_call(codec, columns, row_key, cells):
    """The reference a bound decoder must equal: ``decode_rowkey`` and
    ``coder.decode``, walking the catalog per call -- values and count."""
    catalog = codec.catalog
    newest = {}
    for cell in cells:
        newest.setdefault((cell.family, cell.qualifier), cell.value)
    values, ncells = [], 0
    if any(catalog.column(name).is_rowkey() for name in columns):
        key_values = decode_rowkey(catalog, codec.coder, row_key)
        ncells = len(key_values)
    for name in columns:
        column = catalog.column(name)
        raw = newest.get((column.family, column.qualifier))
        if column.is_rowkey():
            values.append(key_values[name])
        elif raw is None:
            values.append(None)
        else:
            values.append(codec.field_coders[name].decode(raw, column.dtype))
            ncells += 1
    return tuple(values), ncells


def check_codec_roundtrip(catalog_json, schema, rows):
    """Every row survives the codec both ways; returns the cells it counted."""
    catalog = HBaseTableCatalog.from_json(catalog_json)
    codec = RowCodec(catalog)
    names = schema.names
    encode, decode = codec.encoder(names), codec.decoder(names)
    nkeys = len(catalog.row_key)
    # the whole row, the key alone, the data alone, and a reordered mix
    projections = [names, names[:nkeys], names[nkeys:],
                   names[:nkeys - 1:-1] + names[:1]]
    total_cells = 0
    for row in rows:
        key_values = {name: row[names.index(name)] for name in catalog.row_key}
        key = encode_rowkey(catalog, codec.coder, key_values)
        assert decode_rowkey(catalog, codec.coder, key) == key_values
        assert codec.key_prefix(row[:nkeys]) == key
        put, ncells = encode(row)
        assert put.row == codec.encode_key(key_values) == key
        # NULL means no cell; the cell count is the key plus what is there
        assert ncells == nkeys + sum(v is not None for v in row[nkeys:])
        cells = put.to_cells(2)
        # an older version of every cell, listed after it: the newest wins
        stale = [Cell(c.row, c.family, c.qualifier, 1, b"stale") for c in cells]
        assert decode(put.row, cells + stale) == (row, ncells)
        for columns in projections:
            assert codec.decoder(columns)(put.row, cells + stale) \
                == decode_per_call(codec, columns, put.row, cells + stale)
        assert codec.decode_row(put.row, cells) == dict(zip(names, row))
        assert codec.encode_row(dict(zip(names, row))).to_cells(2) == cells
        total_cells += ncells
    return total_cells


#: key shapes that are all fixed-width: one ``struct`` call under PrimitiveType
FIXED_KEYS = ("a:e:g", "g:a", "e")


# 300 examples: each of the three coders gets the default hundred
@settings(max_examples=300, deadline=None)
@given(row_formats(key_shapes=("a:b:c",) + FIXED_KEYS))
def test_composite_roundtrip(case):
    check_codec_roundtrip(*case)


@settings(deadline=None)
@given(row_formats(key_shapes=("a:b:c", "a:b", "a:c", "a", "a:e:g")))
def test_codec_counts_are_what_the_connector_charges(case):
    catalog_json, schema, rows = case
    total_cells = check_codec_roundtrip(*case)
    nkeys = len(HBaseTableCatalog.from_json(catalog_json).row_key)
    clock = SimClock()
    cluster = HBaseCluster(f"codec{next(_ids)}", _HOSTS, clock=clock)
    session = SparkSession(_HOSTS, executors_requested=3, clock=clock)
    options = {HBaseTableCatalog.tableCatalog: catalog_json,
               HBaseTableCatalog.newTable: "2",
               "hbase.zookeeper.quorum": cluster.quorum}
    written = session.create_dataframe(rows, schema).write \
        .format(DEFAULT_FORMAT).options(options).save()
    assert written.metrics.get("shc.cells_encoded") == total_cells
    scanned = session.read.format(DEFAULT_FORMAT).options(options).load() \
        .select(*schema.names).run()
    assert {tuple(r.values)[:nkeys]: tuple(r.values) for r in scanned.rows} \
        == {row[:nkeys]: row for row in rows}
    assert scanned.metrics.get("shc.cells_decoded") == total_cells


_MALFORMED = {
    # coder: (an int cell, a string cell) no value encodes to
    "PrimitiveType": (b"\x00\x00\x01", b"\xff\xfe"),
    "Phoenix": (b"\x80\x00\x01", b"\xff\xfe"),
    # an empty varint; union branch 1, a 2-byte string that is not UTF-8
    "Avro": (b"", b"\x02\x04\xff\xfe"),
}


@pytest.mark.parametrize("coder", sorted(_MALFORMED))
def test_malformed_bytes_are_coder_errors_naming_the_type(coder):
    """What the per-call coders reject, the bound decoder rejects alike."""
    width = {"length": 8} if coder == "Avro" else {}
    catalog = HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "a:c",
        "columns": {
            "a": {"cf": "rowkey", "col": "a", "type": "int", **width},
            "c": {"cf": "rowkey", "col": "c", "type": "string"},
            "i": {"cf": "f", "col": "i", "type": "int"},
            "s": {"cf": "f", "col": "s", "type": "string"},
            "r": {"cf": "f", "col": "r", "avro": '{"type": "string"}'},
        },
    }))
    codec = RowCodec(catalog)
    names = ["a", "c", "i", "s", "r"]
    good = codec.encode_row(dict(zip(names, (7, "x", 1, "y", "z"))))
    bad_int, bad_string = _MALFORMED[coder]
    cases = [
        # (row key, {qualifier: bytes swapped in}, what the error names)
        (good.row, {"i": bad_int}, "int"),
        (good.row, {"s": bad_string}, "string"),
        (good.row, {"r": b"\x10ab"}, "Avro string"),   # 8 announced, 2 there
        (good.row[:2], {}, "int"),                     # the key, cut short
    ]
    for row_key, swapped, named in cases:
        cells = [Cell(c.row, c.family, c.qualifier, c.timestamp,
                      swapped.get(c.qualifier, c.value))
                 for c in good.to_cells(1)]
        for decode in (codec.decoder(names),
                       lambda key, cells: decode_per_call(codec, names, key, cells)):
            with pytest.raises(CoderError, match=named):
                decode(row_key, cells)
    # an all-int key -- one ``struct`` call under PrimitiveType -- cut short
    # or one byte over fails as the per-call path fails, message and all
    codec = RowCodec(HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "a:h",
        "columns": {
            "a": {"cf": "rowkey", "col": "a", "type": "int", **width},
            "h": {"cf": "rowkey", "col": "h", "type": "int"},
            "i": {"cf": "f", "col": "i", "type": "int"},
        },
    })))
    key = codec.encode_key({"a": 7, "h": 9})
    bad_keys = [key[:-1]]
    if coder != "Avro":
        # Avro's reader stops at the value's end: a trailing byte is no error
        bad_keys.append(key + b"\x00")
    for row_key in bad_keys:
        messages = []
        for decode in (codec.decoder(["a", "h", "i"]),
                       lambda key, cells: decode_per_call(
                           codec, ["a", "h", "i"], key, cells)):
            with pytest.raises(CoderError, match="int") as caught:
                decode(row_key, [])
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


def test_an_int_key_is_decoded_by_one_struct_call(monkeypatch):
    """Pinned work: a 3-int key under PrimitiveType calls no per-dimension
    int decoder; the reference path calls one per dimension."""
    calls = {"n": 0}
    to_int = primitive_module._DECODERS[IntegerType]

    def counting(data):
        calls["n"] += 1
        return to_int(data)

    monkeypatch.setitem(primitive_module._DECODERS, IntegerType, counting)
    catalog = HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t",
                  "tableCoder": "PrimitiveType"},
        "rowkey": "a:b:c",
        "columns": {name: {"cf": "rowkey", "col": name, "type": "int"}
                    for name in "abc"},
    }))
    codec = RowCodec(catalog)
    key = codec.encode_key({"a": 1, "b": -2, "c": 3})
    assert codec.decoder(["c", "a", "b"])(key, []) == ((3, 1, -2), 3)
    assert calls["n"] == 0
    assert decode_rowkey(catalog, codec.coder, key) == {"a": 1, "b": -2, "c": 3}
    assert calls["n"] == 3


def test_padding_to_declared_length():
    catalog = composite_catalog()
    coder = get_coder("PrimitiveType")
    part = encode_key_dimension(catalog, coder, "b", "ab")
    assert len(part) == 6
    assert part == b"ab\x00\x00\x00\x00"


def test_overlong_value_rejected():
    catalog = composite_catalog()
    coder = get_coder("PrimitiveType")
    with pytest.raises(CoderError):
        encode_key_dimension(catalog, coder, "b", "toolongvalue")


def test_null_key_dimension_rejected():
    catalog = composite_catalog()
    coder = get_coder("PrimitiveType")
    with pytest.raises(CoderError):
        encode_rowkey(catalog, coder, {"a": 1, "b": None, "c": "x"})


def test_missing_key_dimension_rejected():
    catalog = composite_catalog()
    coder = get_coder("PrimitiveType")
    with pytest.raises(CoderError):
        encode_rowkey(catalog, coder, {"a": 1, "c": "x"})


def test_composite_keys_sort_by_leading_dimension():
    catalog = composite_catalog(coder="Phoenix")
    coder = get_coder("Phoenix")
    k1 = encode_rowkey(catalog, coder, {"a": -5, "b": "zz", "c": "zz"})
    k2 = encode_rowkey(catalog, coder, {"a": 3, "b": "aa", "c": "aa"})
    assert k1 < k2  # Phoenix encoding: numeric order == byte order


def test_prefix_successor_basic():
    assert prefix_successor(b"abc") == b"abd"
    assert prefix_successor(b"a\xff") == b"b"
    assert prefix_successor(b"\xff\xff") is None


@given(st.binary(min_size=1, max_size=6).filter(lambda b: b != b"\xff" * len(b)),
       st.binary(max_size=4))
def test_prefix_successor_bounds_all_extensions(prefix, suffix):
    successor = prefix_successor(prefix)
    assert successor is not None
    assert prefix + suffix < successor
