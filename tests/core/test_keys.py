import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CoderError
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseTableCatalog
from repro.core.coders import get_coder
from repro.core.coders import primitive as primitive_module
from repro.core import keys as keys_module
from repro.core.keys import (
    RowCodec, decode_rowkey, encode_key_dimension, encode_rowkey,
    prefix_successor,
)
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cell import Cell
from repro.hbase.client import Put
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


def row_format(coder, key_shape):
    """(catalog JSON, key columns, data columns) of one :func:`row_formats`
    case; a column is ``(name, dtype, values, extra catalog fields)``."""
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
    key = [(name, *dimensions[name]) for name in key_shape.split(":")]
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
    return catalog, key, data


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
    catalog, key, data = row_format(coder, draw(st.sampled_from(key_shapes)))
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


def decode_one(codec, columns):
    """The page decoder over a page of one row, as ``decode(row_key, cells)``
    giving the row's values and the cells it decoded."""
    decode_page = codec.page_decoder(columns)

    def decode(row_key, cells):
        out, ncells = decode_page([(row_key, cells)])
        return tuple(column[0] for column in out), ncells

    return decode


def check_codec_roundtrip(catalog_json, schema, rows):
    """Every row survives the codec both ways; returns the cells it counted."""
    catalog = HBaseTableCatalog.from_json(catalog_json)
    codec = RowCodec(catalog)
    names = schema.names
    encode, decode = codec.encoder(names), decode_one(codec, names)
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
        # the slot path encodes the row alike, so decode inverts both
        assert encode_per_call(codec, names, row) == encode_bound(encode, row)
        # NULL means no cell; the cell count is the key plus what is there
        assert ncells == nkeys + sum(v is not None for v in row[nkeys:])
        cells = put.to_cells(2)
        # an older version of every cell, listed after it: the newest wins
        stale = [Cell(c.row, c.family, c.qualifier, 1, b"stale") for c in cells]
        assert decode(put.row, cells + stale) == (row, ncells)
        for columns in projections:
            assert decode_one(codec, columns)(put.row, cells + stale) \
                == decode_per_call(codec, columns, put.row, cells + stale)
        assert codec.decode_rows([(put.row, cells)]) == [dict(zip(names, row))]
        assert codec.encode_row(dict(zip(names, row))).to_cells(2) == cells
        total_cells += ncells
    return total_cells


#: key shapes that are all fixed-width: one ``struct`` call under PrimitiveType
FIXED_KEYS = ("a:e:g", "g:a", "e")


# 300 examples: each of the three coders gets the default hundred
@settings(max_examples=300, deadline=None)
@given(row_formats(key_shapes=("a:b:c",) + FIXED_KEYS))
def test_composite_roundtrip(case):
    """``decode(encode(row)) == row`` under all three coders, through the
    bound encoder (one ``struct`` call for a fixed-width PrimitiveType key)
    and the per-call slot path alike."""
    check_codec_roundtrip(*case)


@settings(deadline=None)
@given(row_formats(key_shapes=("a:b:c", "a:b", "a:c", "a", "a:e:g")))
def test_codec_counts_are_what_the_connector_charges(case):
    catalog_json, schema, rows = case
    total_cells = check_codec_roundtrip(*case)
    nkeys = len(HBaseTableCatalog.from_json(catalog_json).row_key)
    clock = SimClock()
    cluster = HBaseCluster("codec", _HOSTS, clock=clock)
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


def row_by_row(decode, page):
    """A one-row decoder over a page, as the page decoder reports it: one
    list per column and the cells summed -- or the first error raised."""
    try:
        decoded = [decode(row_key, cells) for row_key, cells in page]
    except CoderError as exc:
        return CoderError, str(exc)
    width = len(decoded[0][0]) if decoded else 0
    columns = [[values[i] for values, __ in decoded] for i in range(width)]
    return columns, sum(ncells for __, ncells in decoded)


def page_at_once(decode_page, page):
    try:
        return decode_page(page)
    except CoderError as exc:
        return CoderError, str(exc)


@settings(max_examples=300, deadline=None)
@given(row_formats(key_shapes=("a:b:c", "a:e:g", "a", "e", "c")), st.data())
def test_page_decoder_equals_the_row_decoder(case, data):
    """Over drawn pages -- all three coders, single and composite keys,
    rows missing columns, older versions listed after the newest, and now
    and then one malformed key -- decoding a page at once equals decoding
    it row by row with the per-call reference (:func:`decode_per_call`):
    every value, the cells counted, or the same :class:`CoderError`."""
    catalog_json, schema, rows = case
    codec = RowCodec(HBaseTableCatalog.from_json(catalog_json))
    names = schema.names
    encode = codec.encoder(names)
    page = []
    for row in rows:
        cells = encode(row)[0].to_cells(5)
        if data.draw(st.booleans(), label="older versions"):
            cells = sorted(
                cells + [Cell(c.row, c.family, c.qualifier, 4 - v, b"stale%d" % v)
                         for c in cells for v in range(2)],
                key=Cell.sort_key)
        page.append((cells[0].row, cells))
    if data.draw(st.booleans(), label="one malformed key"):
        i = data.draw(st.integers(0, len(page) - 1), label="row")
        row_key, cells = page[i]
        row_key = data.draw(st.sampled_from([row_key[:-1], row_key + b"\x01"]),
                            label="malformed")
        page[i] = (row_key, cells)
    columns = data.draw(st.lists(st.sampled_from(names), max_size=len(names)),
                        label="columns")
    assert page_at_once(codec.page_decoder(columns), page) == row_by_row(
        lambda row_key, cells: decode_per_call(codec, columns, row_key, cells),
        page)
    assert codec.page_decoder(columns)([]) == ([[] for __ in columns], 0)


def encode_per_call(codec, columns, row):
    """The reference a bound encoder must equal: ``encode_rowkey`` and
    ``coder.encode``, walking the catalog per call -- the key, the cells
    and their count, or the type and message of the first error raised."""
    catalog = codec.catalog
    values = dict(zip(columns, row))
    try:
        put = Put(encode_rowkey(catalog, codec.coder, values))
        ncells = len(catalog.row_key)
        for column in catalog.data_columns():
            value = values.get(column.name)
            if value is None:
                continue
            put.add_column(column.family, column.qualifier,
                           codec.field_coders[column.name].encode(
                               value, column.dtype))
            ncells += 1
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return type(exc), str(exc)
    return put.row, put.to_cells(1), ncells


def encode_bound(encode, row):
    """A bound encoder's answer in :func:`encode_per_call`'s terms."""
    try:
        put, ncells = encode(row)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return type(exc), str(exc)
    return put.row, put.to_cells(1), ncells


#: values no encode takes as it stands: out of range for any int type and
#: for an int, a bool, a float where an int goes, NULL, both zeros (the
#: coders canonicalise -0.0), text where a number goes, a huge double
_AWKWARD = (2**63, -(2**63) - 1, 2**31, True, False, 1.5, 3.0, None, -0.0,
            0.0, "x", 1e300, 0)


@settings(max_examples=300, deadline=None)
@given(row_formats(key_shapes=("a:b:c", "a:e:g", "a", "e", "g", "g:a")),
       st.data())
def test_bound_encoder_equals_the_per_call_encoder(case, data):
    """Over drawn rows -- all three coders, an Avro column, a padded key, a
    variable-width last dimension and keys one ``struct`` packs, laid out
    in a drawn column order that may leave a key dimension out, with now
    and then an awkward value in a drawn column -- :meth:`RowCodec.encoder`
    equals :func:`encode_per_call`: the same key, cells and count, or the
    same error; and the codec's by-name ``encode_key`` equals
    ``encode_rowkey``."""
    catalog_json, schema, rows = case
    catalog = HBaseTableCatalog.from_json(catalog_json)
    codec = RowCodec(catalog)
    columns = data.draw(st.permutations(schema.names), label="columns")
    if data.draw(st.booleans(), label="drop a key dimension"):
        columns.remove(data.draw(st.sampled_from(catalog.row_key), label="dropped"))
    encode = codec.encoder(columns)
    by_position = {name: i for i, name in enumerate(schema.names)}
    for row in rows:
        laid_out = [row[by_position[name]] for name in columns]
        if data.draw(st.booleans(), label="awkward"):
            laid_out[data.draw(st.integers(0, len(columns) - 1), label="at")] = \
                data.draw(st.sampled_from(_AWKWARD), label="value")
        expected = encode_per_call(codec, columns, laid_out)
        assert encode_bound(encode, laid_out) == expected
        key_values = dict(zip(columns, laid_out))
        try:
            reference = encode_rowkey(catalog, codec.coder, key_values)
        except Exception as exc:  # noqa: BLE001 - the error is the answer
            reference = type(exc), str(exc)
        try:
            bound = codec.encode_key(key_values)
        except Exception as exc:  # noqa: BLE001 - the error is the answer
            bound = type(exc), str(exc)
        assert bound == reference


#: one well-formed value per column of :func:`row_format`
_PLAIN = {"a": -7, "b": "ab", "c": "xyz", "e": 2**40, "g": -2.5,
          "n": 5, "d": 0.25, "s": "s", "r": "r"}


@pytest.mark.parametrize("coder", ["PrimitiveType", "Phoenix", "Avro"])
def test_every_awkward_value_encodes_as_the_per_call_encoder_does(coder):
    """Each awkward value in each column of each key shape -- a padded key,
    a variable-width last dimension, keys one ``struct`` packs -- and each
    key dimension left out: the bound encoder gives what
    :func:`encode_per_call` gives, bytes or error."""
    for shape in ("a:b:c", "a:e:g", "g:a", "e", "g"):
        catalog_json, key, data = row_format(coder, shape)
        codec = RowCodec(HBaseTableCatalog.from_json(catalog_json))
        names = [name for name, *__ in key + data]
        plain = [_PLAIN[name] for name in names]
        encode = codec.encoder(names)
        for i in range(len(names)):
            for value in _AWKWARD:
                row = plain[:i] + [value] + plain[i + 1:]
                assert encode_bound(encode, row) \
                    == encode_per_call(codec, names, row), (shape, names[i], value)
            if i < len(key):
                short = names[:i] + names[i + 1:]
                row = plain[:i] + plain[i + 1:]
                assert encode_bound(codec.encoder(short), row) \
                    == encode_per_call(codec, short, row)


def test_an_int_key_is_encoded_by_one_struct_call(monkeypatch):
    """Pinned work: a 3-int key under PrimitiveType is packed without the
    per-call path; a value ``struct`` would take but ``encode`` refuses (a
    bool) or that ``struct`` refuses (out of range) takes the per-call path,
    which raises."""
    calls = {"n": 0}

    def counting(*args):
        calls["n"] += 1
        return encode_rowkey(*args)

    monkeypatch.setattr(keys_module, "encode_rowkey", counting)
    catalog = HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t",
                  "tableCoder": "PrimitiveType"},
        "rowkey": "a:b:c",
        "columns": {name: {"cf": "rowkey", "col": name, "type": "int"}
                    for name in "abc"},
    }))
    encode_key = RowCodec(catalog).key_encoder(["c", "a", "b"])
    assert encode_key((3, 1, -2)) == b"\0\0\0\1\xff\xff\xff\xfe\0\0\0\3"
    assert calls["n"] == 0
    for bad, message in ((True, "expects an int, got bool"),
                         (2**31, "out of range for int")):
        with pytest.raises(CoderError, match=message):
            encode_key((3, bad, -2))
    assert calls["n"] == 2


_MALFORMED = {
    # coder: (an int cell, a string cell) no value encodes to
    "PrimitiveType": (b"\x00\x00\x01", b"\xff\xfe"),
    "Phoenix": (b"\x80\x00\x01", b"\xff\xfe"),
    # an empty varint; union branch 1, a 2-byte string that is not UTF-8
    "Avro": (b"", b"\x02\x04\xff\xfe"),
}


@pytest.mark.parametrize("coder", sorted(_MALFORMED))
def test_malformed_bytes_are_coder_errors_naming_the_type(coder):
    """What the per-call coders reject, the page decoder rejects alike."""
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
        for decode in (decode_one(codec, names),
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
        for decode in (decode_one(codec, ["a", "h", "i"]),
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
    assert decode_one(codec, ["c", "a", "b"])(key, []) == ((3, 1, -2), 3)
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
