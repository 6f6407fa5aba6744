"""The catalog's row format: composite row keys and :class:`RowCodec`.

A catalog's row key is the concatenation of its key dimensions' encodings.
Every dimension but the last must be fixed-width (a native width or an
explicit catalog ``length``); variable-width values in non-terminal
dimensions are padded with ``0x00`` up to the declared length so the key can
be sliced apart again on read.  The free functions are that layout's single
implementation; :class:`RowCodec` binds them to one catalog and adds the
cell half of a row, and is what every reader and writer of an HBase row
goes through.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import CoderError
from repro.core.catalog import HBaseTableCatalog
from repro.core.coders.avro import AvroRecordCoder
from repro.core.coders.base import FieldCoder, get_coder
from repro.hbase.client import Put


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


def decode_rowkey(catalog: HBaseTableCatalog, coder: FieldCoder,
                  key: bytes) -> Dict[str, object]:
    """Slice a composite row key back into per-dimension values."""
    values: Dict[str, object] = {}
    pos = 0
    for i, name in enumerate(catalog.row_key):
        column = catalog.column(name)
        is_last = i == len(catalog.row_key) - 1
        if is_last and column.length is None:
            chunk = key[pos:]
            pos = len(key)
        else:
            width = dimension_width(catalog, coder, name)
            if width is None:
                raise CoderError(
                    f"cannot slice variable-width key dimension {name!r}"
                )
            chunk = key[pos:pos + width]
            pos += width
        padded = column.length is not None or (
            not is_last and coder.encoded_width(column.dtype) is None
        )
        if padded and not coder.self_delimiting(column.dtype):
            chunk = chunk.rstrip(b"\x00")
        values[name] = coder.decode(chunk, column.dtype)
    return values


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
        self._decode_all = self.decoder(self._names)
        self._encode_all = self.encoder(self._names)

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
        """Resolve the plan for ``columns`` once; the returned
        ``decode(row_key, cells)`` gives the positional tuple and the number
        of cells it decoded.  ``cells`` arrive newest first per column."""
        catalog, coder = self.catalog, self.coder
        #: (key_name, (family, qualifier), decode_fn, dtype) -- key columns
        #: carry only key_name, data columns carry the other three
        plan: List[tuple] = []
        for name in columns:
            column = catalog.column(name)
            if column.is_rowkey():
                plan.append((name, None, None, None))
            else:
                plan.append((None, (column.family, column.qualifier),
                             self.field_coders[name].decode, column.dtype))
        key_cells = len(catalog.row_key) \
            if any(key_name is not None for key_name, *__ in plan) else 0

        def decode(row_key: bytes, cells: Sequence) -> Tuple[tuple, int]:
            key_values = decode_rowkey(catalog, coder, row_key) \
                if key_cells else None
            newest: Dict[Tuple[str, str], bytes] = {}
            for cell in cells:
                newest.setdefault((cell.family, cell.qualifier), cell.value)
            decoded_cells = key_cells
            values = []
            for key_name, fq, decode_cell, dtype in plan:
                if key_name is not None:
                    values.append(key_values[key_name])
                else:
                    raw = newest.get(fq)
                    if raw is None:
                        values.append(None)
                    else:
                        values.append(decode_cell(raw, dtype))
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
