"""Byte-array encodings mirroring HBase's ``Bytes`` and ``OrderedBytes``.

HBase stores everything as raw byte arrays and compares them
lexicographically.  Two families of encodings matter for SHC:

- :class:`Bytes` reproduces ``org.apache.hadoop.hbase.util.Bytes``: fixed-width
  big-endian two's-complement integers and raw IEEE-754 floats.  These are
  **not** order-preserving across sign (a negative int's bytes sort *after* a
  positive one's), which is exactly the "order inconsistency between Java
  primitive types and the byte array" the paper's PrimitiveType coder has to
  work around when pushing range predicates down (section IV.B.1).
- :class:`OrderedBytes` reproduces the sign-flip tricks used by Phoenix /
  HBase OrderedBytes so that the byte order matches the numeric order.  The
  Phoenix coder uses these.
"""

from __future__ import annotations

import struct

from repro.common.errors import CoderError

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1
LONG_MIN = -(2**63)
LONG_MAX = 2**63 - 1
SHORT_MIN = -(2**15)
SHORT_MAX = 2**15 - 1
BYTE_MIN = -(2**7)
BYTE_MAX = 2**7 - 1


#: ``struct`` code of each fixed-width primitive, keyed by its SQL type
#: name; big-endian (``>``) standard sizes, so a code's width is its Java
#: width.  The one statement of those widths: :class:`Bytes`'s decoders and
#: the PrimitiveType coder's whole-key ``struct`` are both built from it.
STRUCT_CODES = {
    "tinyint": "b",
    "smallint": "h",
    "int": "i",
    "bigint": "q",
    "float": "f",
    "double": "d",
}


def _unpacker(type_name: str):
    """``decode(data)`` for one fixed-width value, its ``struct`` bound once.

    ``Struct.unpack`` itself enforces the width, so the check costs nothing
    on well-formed input; a wrong width is still a :class:`CoderError`.
    """
    packed = struct.Struct(">" + STRUCT_CODES[type_name])
    unpack, width = packed.unpack, packed.size

    def decode(data: bytes):
        try:
            return unpack(data)[0]
        except struct.error:
            raise CoderError(
                f"{type_name} decoder expects {width} bytes, got {len(data)}"
            ) from None

    return decode


class Bytes:
    """Java-style primitive <-> byte-array conversions (HBase ``Bytes``)."""

    # -- encode -----------------------------------------------------------
    @staticmethod
    def from_bool(value: bool) -> bytes:
        return b"\xff" if value else b"\x00"

    @staticmethod
    def from_byte(value: int) -> bytes:
        _check_range(value, BYTE_MIN, BYTE_MAX, "tinyint")
        return struct.pack(">b", value)

    @staticmethod
    def from_short(value: int) -> bytes:
        _check_range(value, SHORT_MIN, SHORT_MAX, "smallint")
        return struct.pack(">h", value)

    @staticmethod
    def from_int(value: int) -> bytes:
        _check_range(value, INT_MIN, INT_MAX, "int")
        return struct.pack(">i", value)

    @staticmethod
    def from_long(value: int) -> bytes:
        _check_range(value, LONG_MIN, LONG_MAX, "bigint")
        return struct.pack(">q", value)

    @staticmethod
    def from_float(value: float) -> bytes:
        return struct.pack(">f", value)

    @staticmethod
    def from_double(value: float) -> bytes:
        return struct.pack(">d", value)

    @staticmethod
    def from_string(value: str) -> bytes:
        return value.encode("utf-8")

    # -- decode -----------------------------------------------------------
    @staticmethod
    def to_bool(data: bytes) -> bool:
        _check_width(data, 1, "boolean")
        return data != b"\x00"

    to_byte = staticmethod(_unpacker("tinyint"))
    to_short = staticmethod(_unpacker("smallint"))
    to_int = staticmethod(_unpacker("int"))
    to_long = staticmethod(_unpacker("bigint"))
    to_float = staticmethod(_unpacker("float"))
    to_double = staticmethod(_unpacker("double"))

    @staticmethod
    def to_string(data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CoderError(f"string decoder expects UTF-8: {exc}") from None


class OrderedBytes:
    """Order-preserving encodings (Phoenix / HBase ``OrderedBytes`` style).

    Integers get their sign bit flipped so two's complement sorts numerically.
    Doubles use the classic IEEE-754 total-order trick: flip the sign bit of
    non-negative values, flip *all* bits of negative values.
    """

    @staticmethod
    def from_int(value: int) -> bytes:
        _check_range(value, INT_MIN, INT_MAX, "int")
        return struct.pack(">I", (value + 2**31) & 0xFFFFFFFF)

    @staticmethod
    def to_int(data: bytes) -> int:
        _check_width(data, 4, "int")
        return struct.unpack(">I", data)[0] - 2**31

    @staticmethod
    def from_long(value: int) -> bytes:
        _check_range(value, LONG_MIN, LONG_MAX, "bigint")
        return struct.pack(">Q", (value + 2**63) & 0xFFFFFFFFFFFFFFFF)

    @staticmethod
    def to_long(data: bytes) -> int:
        _check_width(data, 8, "bigint")
        return struct.unpack(">Q", data)[0] - 2**63

    @staticmethod
    def from_short(value: int) -> bytes:
        _check_range(value, SHORT_MIN, SHORT_MAX, "smallint")
        return struct.pack(">H", (value + 2**15) & 0xFFFF)

    @staticmethod
    def to_short(data: bytes) -> int:
        _check_width(data, 2, "smallint")
        return struct.unpack(">H", data)[0] - 2**15

    @staticmethod
    def from_byte(value: int) -> bytes:
        _check_range(value, BYTE_MIN, BYTE_MAX, "tinyint")
        return struct.pack(">B", (value + 2**7) & 0xFF)

    @staticmethod
    def to_byte(data: bytes) -> int:
        _check_width(data, 1, "tinyint")
        return struct.unpack(">B", data)[0] - 2**7

    @staticmethod
    def from_double(value: float) -> bytes:
        bits = struct.unpack(">Q", struct.pack(">d", value))[0]
        if bits & (1 << 63):
            bits = ~bits & 0xFFFFFFFFFFFFFFFF
        else:
            bits |= 1 << 63
        return struct.pack(">Q", bits)

    @staticmethod
    def to_double(data: bytes) -> float:
        _check_width(data, 8, "double")
        bits = struct.unpack(">Q", data)[0]
        if bits & (1 << 63):
            bits &= ~(1 << 63) & 0xFFFFFFFFFFFFFFFF
        else:
            bits = ~bits & 0xFFFFFFFFFFFFFFFF
        return struct.unpack(">d", struct.pack(">Q", bits))[0]

    @staticmethod
    def from_float(value: float) -> bytes:
        bits = struct.unpack(">I", struct.pack(">f", value))[0]
        if bits & (1 << 31):
            bits = ~bits & 0xFFFFFFFF
        else:
            bits |= 1 << 31
        return struct.pack(">I", bits)

    @staticmethod
    def to_float(data: bytes) -> float:
        _check_width(data, 4, "float")
        bits = struct.unpack(">I", data)[0]
        if bits & (1 << 31):
            bits &= ~(1 << 31) & 0xFFFFFFFF
        else:
            bits = ~bits & 0xFFFFFFFF
        return struct.unpack(">f", struct.pack(">I", bits))[0]


def increment_bytes(key: bytes) -> bytes:
    """Smallest byte string strictly greater than every key with prefix ``key``.

    Used to turn an inclusive upper bound / prefix into an exclusive scan stop
    row.  Appending ``0x00`` yields the immediate successor in the total
    lexicographic order.
    """
    return key + b"\x00"


def _check_range(value: int, lo: int, hi: int, type_name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CoderError(f"{type_name} encoder expects an int, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise CoderError(f"value {value} out of range for {type_name} [{lo}, {hi}]")


def _check_width(data: bytes, width: int, type_name: str) -> None:
    if len(data) != width:
        raise CoderError(
            f"{type_name} decoder expects {width} bytes, got {len(data)}"
        )
