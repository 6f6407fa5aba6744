"""The catalog's row format: composite row keys and :class:`RowCodec`.

A catalog's row key is the concatenation of its key dimensions' encodings.
Every dimension but the last must be fixed-width (a native width or an
explicit catalog ``length``); variable-width values in non-terminal
dimensions are padded with ``0x00`` up to the declared length so the key can
be sliced apart again on read.  :func:`key_layout` states the slicing rules
once; the free functions interpret them per call, and :class:`RowCodec`
binds them to one catalog (an all-fixed-width key to one ``struct`` call,
:func:`key_struct`), adds the cell half of a row, and is what every reader
and writer of an HBase row goes through.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import CoderError
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
            raise CoderError(f"row-key dimension {name!r} must not be NULL")
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
    this per call; :meth:`RowCodec.decoder` binds it once per scan.
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
               ) -> Optional[Callable[[bytes], tuple]]:
    """One ``struct`` call decoding every dimension of ``layout``, or None.

    Binds when the key has dimensions, each has a
    :meth:`~FieldCoder.struct_code`, none is padded (``strip``), and each
    sliced one is exactly as wide as its code.  The result is
    ``Struct.unpack`` when the last dimension runs to the end of the key --
    the key must then be exactly as long as the struct, as the last slice
    must be exactly as long as its value -- and ``Struct.unpack_from``
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
    packed = struct.Struct(">" + "".join(codes))
    return packed.unpack if layout[-1][3] is None else packed.unpack_from


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

    @functools.cached_property
    def _decode_all(self) -> Callable[[bytes, Sequence], Tuple[tuple, int]]:
        # bound on first use: a key the coder cannot slice apart is an error
        # of the first read, as it is for :func:`decode_rowkey`
        return self.decoder(self._names)

    # -- the key half ------------------------------------------------------
    def encode_key(self, values: Mapping[str, object]) -> bytes:
        return encode_rowkey(self.catalog, self.coder, values)

    def decode_key(self, key: bytes) -> Dict[str, object]:
        return decode_rowkey(self.catalog, self.coder, key)

    def key_prefix(self, leading: Sequence[object]) -> bytes:
        """The bytes every key whose leading dimensions equal ``leading``
        starts with: ``[prefix, prefix_successor(prefix))`` scans them all."""
        return b"".join(
            encode_key_dimension(self.catalog, self.coder, name, value)
            for name, value in zip(self.catalog.row_key, leading))

    def key_encoder(self, columns: Sequence[str]) -> Callable[[Sequence], bytes]:
        """``encode_key(row)`` for positional rows laid out as ``columns``."""
        catalog, coder = self.catalog, self.coder
        index = {name: i for i, name in enumerate(columns)}
        # a dimension ``columns`` lacks is left out, so that encode_rowkey
        # rejects the row by naming it
        dims = [(name, index[name]) for name in catalog.row_key if name in index]

        def encode_key(row: Sequence) -> bytes:
            return encode_rowkey(catalog, coder, {name: row[i] for name, i in dims})

        return encode_key

    # -- whole rows, positional (the scan and write hot loops) -------------
    def decoder(self, columns: Sequence[str]
                ) -> Callable[[bytes, Sequence], Tuple[tuple, int]]:
        """Bind the plan for ``columns`` once; the returned
        ``decode(row_key, cells)`` gives the positional tuple and the number
        of cells it decoded.  ``cells`` arrive newest first per column.

        Everything the catalog or a coder can answer is answered here: a
        data column is its ``(family, qualifier)`` and one ``decode(data)``,
        and the key is one ``unpack_key(row_key)`` giving every dimension.
        When :func:`key_struct` binds (every dimension unpadded and with a
        :meth:`~FieldCoder.struct_code`), that is one ``struct.Struct``
        call; otherwise, and whenever the struct rejects a key, it is the
        slot-by-slot loop over :func:`key_layout` -- the reference, and the
        one path that raises, so a malformed key is the same named
        :class:`CoderError` either way.  The closure only unpacks, looks up
        and calls.
        """
        catalog = self.catalog
        dimension = {name: i for i, name in enumerate(catalog.row_key)}
        #: (output position, key dimension) / (output position, (family,
        #: qualifier), decode) -- one entry per requested column
        key_out: List[Tuple[int, int]] = []
        cell_out: List[Tuple[int, Tuple[str, str], Callable]] = []
        for position, name in enumerate(columns):
            column = catalog.column(name)
            if column.is_rowkey():
                key_out.append((position, dimension[name]))
            else:
                cell_out.append((position, (column.family, column.qualifier),
                                 self.field_coders[name].decoder_for(column.dtype)))
        # the whole key is unpacked and checked whenever any of it is asked for
        layout = key_layout(catalog, self.coder) if key_out else []
        key_slots = [(start, stop, strip, self.coder.decoder_for(dtype))
                     for __, dtype, start, stop, strip in layout]
        key_cells = len(key_slots)
        blank = [None] * len(columns)

        def slice_key(row_key: bytes) -> List[object]:
            dimensions = []
            for start, stop, strip, decode_dimension in key_slots:
                chunk = row_key[start:stop]
                if strip:
                    chunk = chunk.rstrip(b"\x00")
                dimensions.append(decode_dimension(chunk))
            return dimensions

        unpack_key = key_struct(self.coder, layout) or slice_key

        def decode(row_key: bytes, cells: Sequence) -> Tuple[tuple, int]:
            values = blank[:]
            if key_cells:
                try:
                    dimensions = unpack_key(row_key)
                except struct.error:
                    dimensions = slice_key(row_key)
                for position, i in key_out:
                    values[position] = dimensions[i]
            newest: Dict[Tuple[str, str], bytes] = {}
            for cell in cells:
                newest.setdefault((cell.family, cell.qualifier), cell.value)
            decoded_cells = key_cells
            for position, fq, decode_cell in cell_out:
                raw = newest.get(fq)
                if raw is not None:
                    values[position] = decode_cell(raw)
                    decoded_cells += 1
            return tuple(values), decoded_cells

        return decode

    def encoder(self, columns: Sequence[str]
                ) -> Callable[[Sequence], Tuple[Put, int]]:
        """The inverse: ``encode(row)`` gives the row's :class:`Put` and the
        number of cells it encoded, for rows laid out as ``columns``."""
        catalog = self.catalog
        encode_key = self.key_encoder(columns)
        key_cells = len(catalog.row_key)
        index = {name: i for i, name in enumerate(columns)}
        plan = [(index[c.name], c.family, c.qualifier,
                 self.field_coders[c.name].encode, c.dtype)
                for c in catalog.data_columns() if c.name in index]

        def encode(row: Sequence) -> Tuple[Put, int]:
            put = Put(encode_key(row))
            encoded_cells = key_cells
            for i, family, qualifier, encode_cell, dtype in plan:
                value = row[i]
                if value is None:
                    continue  # NULL means "no cell" in HBase
                put.add_column(family, qualifier, encode_cell(value, dtype))
                encoded_cells += 1
            return put, encoded_cells

        return encode

    # -- whole rows, by column name ----------------------------------------
    def decode_row(self, row_key: bytes, cells: Sequence) -> Dict[str, object]:
        """Every catalog column of one row (NULL where it has no cell)."""
        return dict(zip(self._names, self._decode_all(row_key, cells)[0]))

    def encode_row(self, values: Mapping[str, object]) -> Put:
        """A :class:`Put` of the non-NULL columns ``values`` names."""
        return self._encode_all([values.get(name) for name in self._names])[0]
