"""The catalog's row format: composite row keys and :class:`RowCodec`.

A catalog's row key is the concatenation of its key dimensions' encodings.
Every dimension but the last must be fixed-width (a native width or an
explicit catalog ``length``); variable-width values in non-terminal
dimensions are padded with ``0x00`` up to the declared length so the key can
be sliced apart again on read.  :func:`key_layout` states the slicing rules
once; the free functions interpret them per call, and :class:`RowCodec`
binds them to one catalog both ways (an all-fixed-width key to one
``struct`` call, :func:`key_struct`), adds the cell half of a row, and is
what every reader and writer of an HBase row goes through.
"""

from __future__ import annotations

import functools
import operator
import struct
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.common.errors import CoderError, NullKeyError
from repro.core.catalog import HBaseTableCatalog
from repro.core.coders.avro import AvroRecordCoder
from repro.core.coders.base import FieldCoder, get_coder
from repro.hbase.client import Put
from repro.sql.types import DataType


def prefix_successor(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than *every* string with ``prefix``.

    Returns None when no such string exists (prefix is all ``0xff``), which
    callers treat as "unbounded above".
    """
    out = bytearray(prefix)
    while out and out[-1] == 0xFF:
        out.pop()
    if not out:
        return None
    out[-1] += 1
    return bytes(out)


def dimension_width(catalog: HBaseTableCatalog, coder: FieldCoder,
                    column_name: str) -> "Optional[int]":
    """Encoded width of one key dimension under ``coder`` (None = variable)."""
    column = catalog.column(column_name)
    if column.length is not None:
        return column.length
    return coder.encoded_width(column.dtype)


def encode_key_dimension(catalog: HBaseTableCatalog, coder: FieldCoder,
                         column_name: str, value: object) -> bytes:
    """Encode one key dimension, padding to its declared width if needed."""
    column = catalog.column(column_name)
    encoded = coder.encode(value, column.dtype)
    is_last = column_name == catalog.row_key[-1]
    if is_last and column.length is None:
        return encoded
    width = dimension_width(catalog, coder, column_name)
    if width is None:
        raise CoderError(
            f"key dimension {column_name!r} has no fixed width under "
            f"coder {coder.name!r}; declare \"length\" in the catalog"
        )
    if len(encoded) > width:
        raise CoderError(
            f"value for key dimension {column_name!r} encodes to "
            f"{len(encoded)} bytes, over the declared width {width}"
        )
    return encoded.ljust(width, b"\x00")


def encode_rowkey(catalog: HBaseTableCatalog, coder: FieldCoder,
                  values: Dict[str, object]) -> bytes:
    """Build the full composite row key from per-dimension values."""
    parts: List[bytes] = []
    for name in catalog.row_key:
        if name not in values or values[name] is None:
            raise NullKeyError(name)
        parts.append(encode_key_dimension(catalog, coder, name, values[name]))
    return b"".join(parts)


def key_layout(catalog: HBaseTableCatalog, coder: FieldCoder
               ) -> List[Tuple[str, DataType, int, Optional[int], bool]]:
    """Where each key dimension sits: ``(name, dtype, start, stop, strip)``.

    The slicing rules, stated once.  A dimension is as wide as its declared
    ``length``, else its native width under ``coder``; only the last may
    have neither, and then runs to the end of the key (``stop`` None).  A
    declared length means the writer padded the value with ``0x00``:
    ``strip`` says the padding must come off before decoding, which a
    self-delimiting coder does not need.  :func:`decode_rowkey` interprets
    this per call; :meth:`RowCodec.page_decoder` binds it once per scan.
    """
    slots = []
    start = 0
    last = len(catalog.row_key) - 1
    for i, name in enumerate(catalog.row_key):
        column = catalog.column(name)
        if i == last and column.length is None:
            stop = None
        else:
            width = dimension_width(catalog, coder, name)
            if width is None:
                raise CoderError(
                    f"cannot slice variable-width key dimension {name!r}"
                )
            stop = start + width
        strip = column.length is not None \
            and not coder.self_delimiting(column.dtype)
        slots.append((name, column.dtype, start, stop, strip))
        start = stop
    return slots


def decode_rowkey(catalog: HBaseTableCatalog, coder: FieldCoder,
                  key: bytes) -> Dict[str, object]:
    """Slice a composite row key back into per-dimension values."""
    values: Dict[str, object] = {}
    for name, dtype, start, stop, strip in key_layout(catalog, coder):
        chunk = key[start:stop]
        if strip:
            chunk = chunk.rstrip(b"\x00")
        values[name] = coder.decode(chunk, dtype)
    return values


def key_struct(coder: FieldCoder,
               layout: Sequence[Tuple[str, DataType, int, Optional[int], bool]]
               ) -> Optional[struct.Struct]:
    """One ``struct.Struct`` decoding (and, for :meth:`RowCodec.key_encoder`,
    encoding) every dimension of ``layout``, or None.

    Binds when the key has dimensions, each has a
    :meth:`~FieldCoder.struct_code`, none is padded (``strip``), and each
    sliced one is exactly as wide as its code.  A reader unpacks a key with
    ``Struct.unpack`` when the last dimension runs to the end of the key --
    the key must then be exactly as long as the struct, as the last slice
    must be exactly as long as its value -- and with ``Struct.unpack_from``
    otherwise, which, like the slices, ignores bytes past the last
    dimension.  A key it rejects raises ``struct.error``.
    """
    codes = []
    for __, dtype, start, stop, strip in layout:
        code = coder.struct_code(dtype)
        if code is None or strip:
            return None
        if stop is not None and struct.calcsize(">" + code) != stop - start:
            return None
        codes.append(code)
    if not codes:
        return None
    return struct.Struct(">" + "".join(codes))


class RowCodec:
    """One catalog's mapping between an HBase row and a relational row.

    The single owner of the row format (section IV): the composite-key
    layout, "NULL means no cell", "the newest version of a column wins",
    the per-column Avro override of the table coder, and the cell counts
    that ``shc.cells_encoded`` / ``shc.cells_decoded`` /
    ``hbase.server_side_decodes`` charge.  A row costs one cell per non-NULL
    data column plus one per key dimension -- on decode only when a key
    column was asked for, because only then is the key sliced apart.
    """

    def __init__(self, catalog: HBaseTableCatalog,
                 options: Optional[Mapping[str, object]] = None) -> None:
        self.catalog = catalog
        self.coder = get_coder(catalog.table_coder)
        #: per-column coders: an ``"avro": "<ref>"`` column overrides the
        #: table coder; the reference names an option holding the schema
        #: JSON (paper Code 3's ``avroSchema``), inline JSON also works
        self.field_coders: Dict[str, FieldCoder] = {}
        for column in catalog.columns.values():
            if column.avro_schema is None:
                self.field_coders[column.name] = self.coder
            else:
                schema_json = (options or {}).get(column.avro_schema,
                                                  column.avro_schema)
                self.field_coders[column.name] = AvroRecordCoder(str(schema_json))
        self._names = list(catalog.columns)
        self._encode_all = self.encoder(self._names)
        self._encode_key = self.key_encoder(catalog.row_key)

    # -- the key half ------------------------------------------------------
    def encode_key(self, values: Mapping[str, object]) -> bytes:
        return self._encode_key([values.get(name) for name in self.catalog.row_key])

    def decode_key(self, key: bytes) -> Dict[str, object]:
        return decode_rowkey(self.catalog, self.coder, key)

    def key_prefix(self, leading: Sequence[object]) -> bytes:
        """The bytes every key whose leading dimensions equal ``leading``
        starts with: ``[prefix, prefix_successor(prefix))`` scans them all."""
        return b"".join(
            encode_key_dimension(self.catalog, self.coder, name, value)
            for name, value in zip(self.catalog.row_key, leading))

    def key_encoder(self, columns: Sequence[str]) -> Callable[[Sequence], bytes]:
        """Bind the key's encode once: ``encode_key(row)`` for positional
        rows laid out as ``columns``.

        When :func:`key_struct` binds for the layout (every dimension
        unpadded and with a :meth:`~FieldCoder.struct_code`: PrimitiveType's
        fixed-width numerics) a key is one ``Struct.pack`` of the row's
        dimensions -- if each is exactly the type its code stands for (an
        ``int``, never a ``bool``; a ``float``), no float is a zero (the
        coders canonicalise ``-0.0``) and ``struct`` takes every value.  Any
        other row, and every row of any other layout, goes through
        :func:`encode_rowkey` per call: the reference and the one path that
        raises, so NULL, out-of-range or mistyped dimensions are the same
        named :class:`CoderError` either way (``tests/core/test_keys.py``).
        """
        catalog, coder = self.catalog, self.coder
        index = {name: i for i, name in enumerate(columns)}
        # a dimension ``columns`` lacks is left out, so that encode_rowkey
        # rejects the row by naming it
        dims = [(name, index[name]) for name in catalog.row_key if name in index]

        def encode_per_call(row: Sequence) -> bytes:
            return encode_rowkey(catalog, coder, {name: row[i] for name, i in dims})

        if len(dims) < len(catalog.row_key):
            return encode_per_call
        try:
            layout = key_layout(catalog, coder)
        except CoderError:
            return encode_per_call  # encode_rowkey names the unsized dimension
        packed = key_struct(coder, layout)
        if packed is None:
            return encode_per_call
        pack = packed.pack
        kinds = tuple(float if coder.struct_code(dtype) in "fd" else int
                      for __, dtype, *__ in layout)
        floats = float in kinds
        positions = [i for __, i in dims]
        take = operator.itemgetter(*positions)
        single = len(positions) == 1

        def encode_key(row: Sequence) -> bytes:
            values = take(row)
            if single:
                values = (values,)
            # ``0.0 in values`` also matches an integer 0: such a key takes
            # the reference path, which is right, only slower
            if tuple(map(type, values)) == kinds \
                    and not (floats and 0.0 in values):
                try:
                    return pack(*values)
                except (struct.error, OverflowError):
                    pass
            return encode_per_call(row)

        return encode_key

    # -- whole rows, positional (the scan and write hot loops) -------------
    def page_decoder(self, columns: Sequence[str]
                     ) -> Callable[[Sequence], Tuple[List[list], int]]:
        """Bind the decode of ``columns`` once; the returned
        ``decode_page(page)`` turns a list of ``(row_key, cells)`` into one
        list per requested column (a column batch's columns) and the number
        of cells it decoded.  ``cells`` arrive newest first per column; one
        row is a page of one.

        Everything the catalog or a coder can answer is answered here: a
        data column is its ``(family, qualifier)`` and one ``decode(data)``,
        and the whole key is unpacked whenever any of it is asked for.  The
        keys are unpacked in one pass: one ``Struct.iter_unpack`` over the
        joined keys when :func:`key_struct` binds (every dimension unpadded
        and with a :meth:`~FieldCoder.struct_code`) and every key is exactly
        its size; else one ``unpack`` per key, falling back to the
        slot-by-slot loop over :func:`key_layout` when there is no struct or
        it rejects the key -- the one path that raises, so a malformed key
        is the same named :class:`CoderError` either way.  The cells are
        walked once, each row's backwards so that a column's newest cell is
        written last, into one list of raw values per requested ``(family,
        qualifier)``; each data column is then one decode pass.  The
        reference is :func:`decode_rowkey` and ``coder.decode`` per call
        (``tests/core/test_keys.py``).
        """
        catalog = self.catalog
        dimension = {name: i for i, name in enumerate(catalog.row_key)}
        #: (output position, key dimension), one per requested key column
        key_out: List[Tuple[int, int]] = []
        #: one raw list per distinct (family, qualifier) a column asks for
        slots: Dict[Tuple[str, str], int] = {}
        #: (output position, raw list, decode), one per data column
        cell_out: List[Tuple[int, int, Callable]] = []
        for position, name in enumerate(columns):
            column = catalog.column(name)
            if column.is_rowkey():
                key_out.append((position, dimension[name]))
            else:
                slot = slots.setdefault((column.family, column.qualifier),
                                        len(slots))
                cell_out.append((position, slot, self.field_coders[name]
                                 .decoder_for(column.dtype)))
        layout = key_layout(catalog, self.coder) if key_out else []
        key_slots = [(start, stop, strip, self.coder.decoder_for(dtype))
                     for __, dtype, start, stop, strip in layout]
        #: cells a row's key counts: every dimension when any is asked for
        key_cells = len(key_slots)

        def slice_key(row_key: bytes) -> List[object]:
            dimensions = []
            for start, stop, strip, decode_dimension in key_slots:
                chunk = row_key[start:stop]
                if strip:
                    chunk = chunk.rstrip(b"\x00")
                dimensions.append(decode_dimension(chunk))
            return dimensions

        packed = key_struct(self.coder, layout)
        if packed is None:
            unpack_key = slice_key
        elif layout[-1][3] is None:
            unpack_key = packed.unpack
        else:
            unpack_key = packed.unpack_from
        width = len(columns)
        first = operator.itemgetter(0)
        slot_of = slots.get

        def unpack_keys(keys: List[bytes]) -> List[Sequence[object]]:
            if packed is not None and set(map(len, keys)) == {packed.size}:
                return list(packed.iter_unpack(b"".join(keys)))
            dimensions = []
            for row_key in keys:
                try:
                    dimensions.append(unpack_key(row_key))
                except struct.error:
                    dimensions.append(slice_key(row_key))
            return dimensions

        def decode_page(page: Sequence) -> Tuple[List[list], int]:
            nrows = len(page)
            if not nrows:
                return [[] for __ in range(width)], 0
            # every position is a key or a data column: all are filled below
            out: List[list] = [None] * width  # type: ignore[list-item]
            decoded_cells = key_cells * nrows
            if key_out:
                by_dimension = list(zip(*unpack_keys(list(map(first, page)))))
                for position, i in key_out:
                    out[position] = list(by_dimension[i])
            if cell_out:
                raw_columns = [[None] * nrows for __ in slots]
                for r, (__, cells) in enumerate(page):
                    # reversed: a column's newest cell is written last
                    for cell in reversed(cells):
                        j = slot_of((cell.family, cell.qualifier))
                        if j is not None:
                            raw_columns[j][r] = cell.value
                for position, j, decode_cell in cell_out:
                    raws = raw_columns[j]
                    missing = raws.count(None)
                    decoded_cells += nrows - missing
                    out[position] = list(map(decode_cell, raws)) if not missing \
                        else [None if raw is None else decode_cell(raw)
                              for raw in raws]
            return out, decoded_cells

        return decode_page

    def encoder(self, columns: Sequence[str]
                ) -> Callable[[Sequence], Tuple[Put, int]]:
        """The inverse, bound once like :meth:`page_decoder`: ``encode(row)``
        gives the row's :class:`Put` and the number of cells it encoded, for
        rows laid out as ``columns``.  The key is :meth:`key_encoder`'s;
        each data column is its ``(family, qualifier)`` and one
        ``encode(value)`` from :meth:`~FieldCoder.encoder_for`.  The
        reference is :func:`encode_rowkey` and ``coder.encode`` per call
        (``tests/core/test_keys.py``)."""
        catalog = self.catalog
        encode_key = self.key_encoder(columns)
        key_cells = len(catalog.row_key)
        index = {name: i for i, name in enumerate(columns)}
        plan = [(index[c.name], c.family, c.qualifier,
                 self.field_coders[c.name].encoder_for(c.dtype))
                for c in catalog.data_columns() if c.name in index]

        def encode(row: Sequence) -> Tuple[Put, int]:
            put = Put(encode_key(row))
            add = put.add_column
            encoded_cells = key_cells
            for i, family, qualifier, encode_cell in plan:
                value = row[i]
                if value is None:
                    continue  # NULL means "no cell" in HBase
                add(family, qualifier, encode_cell(value))
                encoded_cells += 1
            return put, encoded_cells

        return encode

    # -- whole rows, by column name ----------------------------------------
    @functools.cached_property
    def _decode_all(self) -> Callable[[Sequence], Tuple[List[list], int]]:
        # bound on first use: a key the coder cannot slice apart is an error
        # of the first read, as it is for :func:`decode_rowkey`
        return self.page_decoder(self._names)

    def decode_rows(self, page: Sequence) -> List[Dict[str, object]]:
        """Every catalog column of each ``(row_key, cells)`` in ``page``
        (NULL where a row has no cell), decoded as one page."""
        names = self._names
        return [dict(zip(names, values))
                for values in zip(*self._decode_all(page)[0])]

    def encode_row(self, values: Mapping[str, object]) -> Put:
        """A :class:`Put` of the non-NULL columns ``values`` names."""
        return self._encode_all([values.get(name) for name in self._names])[0]
