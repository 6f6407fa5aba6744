"""The Avro coder: a from-scratch subset of Avro binary encoding.

SHC supports persisting Avro records in HBase cells (section IV.B.2); this
module implements the slice of the Avro specification the connector needs --
schema JSON parsing, zig-zag varint ints/longs, little-endian floats,
length-prefixed strings/bytes, nullable unions and records -- with no
external library.  Cell values are single-field nullable records, so every
value carries record + union framing, which is why Avro costs more CPU and
space than the native coders (Table II) and why nothing about the encoding
is order-preserving (varints reorder magnitudes, strings gain length
prefixes): only equality predicates can be pushed down.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import CoderError
from repro.core.coders.base import FieldCoder
from repro.sql.types import (
    BinaryType,
    BooleanType,
    ByteType,
    DataType,
    DoubleType,
    FloatType,
    IntegerType,
    LongType,
    ShortType,
    StringType,
    TimestampType,
)

# -- low-level Avro primitives ----------------------------------------------------

def zigzag_encode(value: int) -> int:
    """Map a signed int to the unsigned zig-zag domain (Avro spec)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def write_varint(value: int) -> bytes:
    """Little-endian base-128 varint encoding."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode a varint; returns ``(value, next_position)``."""
    shift = 0
    result = 0
    while True:
        if pos >= len(data):
            raise CoderError("truncated Avro varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def write_long(value: int) -> bytes:
    """Avro long: zig-zag then varint."""
    return write_varint(zigzag_encode(value))


def read_long(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode an Avro long; returns ``(value, next_position)``."""
    raw, pos = read_varint(data, pos)
    return zigzag_decode(raw), pos


def write_string(value: str) -> bytes:
    """Avro string: length prefix + UTF-8 payload."""
    payload = value.encode("utf-8")
    return write_long(len(payload)) + payload


def read_string(data: bytes, pos: int) -> Tuple[str, int]:
    """Decode an Avro string; returns ``(value, next_position)``."""
    length, pos = read_long(data, pos)
    if pos + length > len(data):
        raise CoderError("truncated Avro string")
    return data[pos:pos + length].decode("utf-8"), pos + length


def write_bytes(value: bytes) -> bytes:
    """Avro bytes: length prefix + raw payload."""
    return write_long(len(value)) + bytes(value)


def read_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    """Decode Avro bytes; returns ``(value, next_position)``."""
    length, pos = read_long(data, pos)
    if pos + length > len(data):
        raise CoderError("truncated Avro bytes")
    return data[pos:pos + length], pos + length


# -- schemas --------------------------------------------------------------------------

class AvroSchema:
    """A parsed Avro schema (primitives, nullable unions, flat records)."""

    PRIMITIVES = ("null", "boolean", "int", "long", "float", "double",
                  "string", "bytes")

    def __init__(self, kind: str, fields: Optional[List[Tuple[str, "AvroSchema"]]] = None,
                 union: Optional[List["AvroSchema"]] = None, name: str = "") -> None:
        self.kind = kind
        self.fields = fields or []
        self.union = union or []
        self.name = name

    @classmethod
    def parse(cls, text: "str | dict | list") -> "AvroSchema":
        raw = json.loads(text) if isinstance(text, str) else text
        return cls._build(raw)

    @classmethod
    def _build(cls, raw) -> "AvroSchema":
        if isinstance(raw, str):
            if raw not in cls.PRIMITIVES:
                raise CoderError(f"unsupported Avro type {raw!r}")
            return cls(raw)
        if isinstance(raw, list):
            return cls("union", union=[cls._build(r) for r in raw])
        if isinstance(raw, dict):
            kind = raw.get("type")
            if kind == "record":
                fields = [
                    (f["name"], cls._build(f["type"]))
                    for f in raw.get("fields", [])
                ]
                return cls("record", fields=fields, name=raw.get("name", ""))
            if isinstance(kind, (str, list, dict)):
                return cls._build(kind)
        raise CoderError(f"unsupported Avro schema {raw!r}")

    # -- binary encoding --------------------------------------------------------
    def write(self, value: object) -> bytes:
        if self.kind == "null":
            if value is not None:
                raise CoderError("null schema cannot hold a value")
            return b""
        if self.kind == "boolean":
            return b"\x01" if value else b"\x00"
        if self.kind in ("int", "long"):
            return write_long(int(value))
        if self.kind == "float":
            return struct.pack("<f", float(value))
        if self.kind == "double":
            return struct.pack("<d", float(value))
        if self.kind == "string":
            return write_string(str(value))
        if self.kind == "bytes":
            return write_bytes(bytes(value))
        if self.kind == "union":
            for index, branch in enumerate(self.union):
                if branch.accepts(value):
                    return write_long(index) + branch.write(value)
            raise CoderError(f"no union branch accepts {value!r}")
        if self.kind == "record":
            if not isinstance(value, dict):
                raise CoderError("record schema expects a dict")
            out = bytearray()
            for field_name, field_schema in self.fields:
                out.extend(field_schema.write(value.get(field_name)))
            return bytes(out)
        raise CoderError(f"cannot write Avro kind {self.kind!r}")

    def read(self, data: bytes, pos: int = 0) -> Tuple[object, int]:
        if self.kind == "null":
            return None, pos
        if self.kind == "boolean":
            return data[pos] != 0, pos + 1
        if self.kind in ("int", "long"):
            return read_long(data, pos)
        if self.kind == "float":
            return struct.unpack_from("<f", data, pos)[0], pos + 4
        if self.kind == "double":
            return struct.unpack_from("<d", data, pos)[0], pos + 8
        if self.kind == "string":
            return read_string(data, pos)
        if self.kind == "bytes":
            return read_bytes(data, pos)
        if self.kind == "union":
            index, pos = read_long(data, pos)
            if not 0 <= index < len(self.union):
                raise CoderError(f"bad union branch {index}")
            return self.union[index].read(data, pos)
        if self.kind == "record":
            record = {}
            for field_name, field_schema in self.fields:
                record[field_name], pos = field_schema.read(data, pos)
            return record, pos
        raise CoderError(f"cannot read Avro kind {self.kind!r}")

    def accepts(self, value: object) -> bool:
        if self.kind == "null":
            return value is None
        if self.kind == "boolean":
            return isinstance(value, bool)
        if self.kind in ("int", "long"):
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind in ("float", "double"):
            return isinstance(value, float)
        if self.kind == "string":
            return isinstance(value, str)
        if self.kind == "bytes":
            return isinstance(value, (bytes, bytearray))
        if self.kind == "record":
            return isinstance(value, dict)
        if self.kind == "union":
            return any(b.accepts(value) for b in self.union)
        return False


def _checked_read(schema: AvroSchema, label: str) -> Callable[[bytes], object]:
    """``read(data)`` under ``schema``; bytes it cannot hold are a
    :class:`CoderError` naming ``label``, whatever the reader tripped on."""

    def read(data: bytes) -> object:
        try:
            return schema.read(data)[0]
        except (CoderError, IndexError, struct.error, UnicodeDecodeError) as exc:
            raise CoderError(f"malformed Avro {label}: {exc}") from None

    return read


_AVRO_TYPE_FOR = {
    BooleanType: "boolean",
    ByteType: "int",
    ShortType: "int",
    IntegerType: "int",
    LongType: "long",
    TimestampType: "long",
    FloatType: "float",
    DoubleType: "double",
    StringType: "string",
    BinaryType: "bytes",
}


class AvroCoder(FieldCoder):
    """``tableCoder: Avro`` -- every cell is a one-field nullable record."""

    name = "Avro"

    def __init__(self) -> None:
        #: dtype -> ``decode(data)`` over the cell schema, parsed once each
        self._decoders: Dict[DataType, Callable[[bytes], object]] = {}

    def _schema_for(self, dtype: DataType) -> AvroSchema:
        avro_type = _AVRO_TYPE_FOR.get(dtype)
        if avro_type is None:
            raise CoderError(f"Avro cannot encode {dtype}")
        return AvroSchema.parse({
            "type": "record",
            "name": "cell",
            "fields": [{"name": "value", "type": ["null", avro_type]}],
        })

    def encode(self, value: object, dtype: DataType) -> bytes:
        if value is None:
            raise CoderError("cannot encode NULL; HBase omits the cell instead")
        if dtype in (FloatType, DoubleType):
            value = float(value)
            if value == 0.0:
                value = 0.0  # canonicalise -0.0 for injective equality
        return self._schema_for(dtype).write({"value": value})

    def decode(self, data: bytes, dtype: DataType) -> object:
        return self.decoder_for(dtype)(data)

    def decoder_for(self, dtype: DataType) -> Callable[[bytes], object]:
        decode = self._decoders.get(dtype)
        if decode is None:
            read = _checked_read(self._schema_for(dtype), _AVRO_TYPE_FOR[dtype])
            as_int = dtype.python_type is int

            def decode(data: bytes) -> object:
                value = read(data)["value"]
                if as_int and value is not None:
                    return int(value)
                return value

            self._decoders[dtype] = decode
        return decode

    def order_preserving(self, dtype: DataType) -> bool:
        return False  # varints and length prefixes scramble byte order

    def encoded_width(self, dtype: DataType) -> Optional[int]:
        return None  # varint encodings are variable width

    def self_delimiting(self, dtype: DataType) -> bool:
        return True  # the record reader stops at the record's end


class AvroRecordCoder(FieldCoder):
    """Per-column Avro coder bound to a user-declared schema.

    This is the paper's Code 2/3 path: a catalog column carries
    ``"avro": "avroSchema"`` and the schema JSON arrives through the read
    options under that key; the cell then stores the Avro-encoded value of
    *that schema* (a full record, an array, or a primitive), which SHC
    converts to an engine value on scan.
    """

    def __init__(self, schema_json: str) -> None:
        self.schema = AvroSchema.parse(schema_json)
        self.name = f"Avro[{self.schema.name or self.schema.kind}]"
        self._read = _checked_read(self.schema,
                                   self.schema.name or self.schema.kind)

    def encode(self, value: object, dtype: DataType) -> bytes:
        if value is None:
            raise CoderError("cannot encode NULL; HBase omits the cell instead")
        return self.schema.write(value)

    def decode(self, data: bytes, dtype: DataType) -> object:
        return self._read(data)

    def decoder_for(self, dtype: DataType) -> Callable[[bytes], object]:
        return self._read

    def order_preserving(self, dtype: DataType) -> bool:
        return False

    def encoded_width(self, dtype: DataType) -> Optional[int]:
        return None

    def self_delimiting(self, dtype: DataType) -> bool:
        return True

    def sql_type(self) -> DataType:
        """The engine-facing type this schema decodes to."""
        from repro.sql.types import (
            BinaryType as B,
            BooleanType as Bo,
            DoubleType as D,
            FloatType as F,
            LongType as L,
            RecordType,
            StringType as S,
        )

        kind = self.schema.kind
        if kind == "union":
            non_null = [b for b in self.schema.union if b.kind != "null"]
            kind = non_null[0].kind if len(non_null) == 1 else "record"
        return {
            "boolean": Bo, "int": L, "long": L, "float": F, "double": D,
            "string": S, "bytes": B,
        }.get(kind, RecordType)
