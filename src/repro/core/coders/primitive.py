"""The PrimitiveType coder: HBase's native Java-primitive byte encoding.

Integers are big-endian two's complement and floats raw IEEE-754 -- neither
is order-preserving across the sign boundary, which is the "order
inconsistency between Java primitive types and the byte array" of section
IV.B.1.  The coder resolves it exactly as the paper describes: range
predicates are *pre-processed* into byte-monotone segments (split at zero)
before they are pushed into HBase, so no data is lost to misordered scans.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.common.errors import CoderError
from repro.core.coders.base import (
    ByteRange,
    EMPTY_PREDICATE,
    FieldCoder,
    _ordered_ranges,
    normalize_bound,
)
from repro.hbase.hbytes import STRUCT_CODES, Bytes
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

_INT_BOUNDS = {
    ByteType: (-(2**7), 2**7 - 1),
    ShortType: (-(2**15), 2**15 - 1),
    IntegerType: (-(2**31), 2**31 - 1),
    LongType: (-(2**63), 2**63 - 1),
    TimestampType: (-(2**63), 2**63 - 1),
}

_FLOAT_INF = {FloatType: float("inf"), DoubleType: float("inf")}

#: dtype -> ``decode(data)``; each keeps the width check ``Bytes`` makes
_DECODERS: Dict[DataType, Callable[[bytes], object]] = {
    StringType: Bytes.to_string,
    BinaryType: bytes,
    BooleanType: Bytes.to_bool,
    ByteType: Bytes.to_byte,
    ShortType: Bytes.to_short,
    IntegerType: Bytes.to_int,
    LongType: Bytes.to_long,
    TimestampType: Bytes.to_long,
    FloatType: Bytes.to_float,
    DoubleType: Bytes.to_double,
}

#: dtype -> its decoder's ``struct`` code, from the table ``Bytes`` builds
#: those decoders from (a timestamp is a bigint of epoch milliseconds)
_STRUCT_CODES: Dict[DataType, str] = {
    dtype: STRUCT_CODES[dtype.name]
    for dtype in (ByteType, ShortType, IntegerType, LongType, FloatType, DoubleType)
}
_STRUCT_CODES[TimestampType] = _STRUCT_CODES[LongType]


class PrimitiveTypeCoder(FieldCoder):
    """``tableCoder: PrimitiveType`` (the default)."""

    name = "PrimitiveType"

    def encode(self, value: object, dtype: DataType) -> bytes:
        if value is None:
            raise CoderError("cannot encode NULL; HBase omits the cell instead")
        if isinstance(value, float) and value == 0.0:
            value = 0.0  # canonicalise -0.0: SQL equality must stay injective
        if dtype is StringType:
            return Bytes.from_string(value)
        if dtype is BinaryType:
            return bytes(value)
        if dtype is BooleanType:
            return Bytes.from_bool(value)
        if dtype is ByteType:
            return Bytes.from_byte(value)
        if dtype is ShortType:
            return Bytes.from_short(value)
        if dtype is IntegerType:
            return Bytes.from_int(value)
        if dtype in (LongType, TimestampType):
            return Bytes.from_long(value)
        if dtype is FloatType:
            return Bytes.from_float(value)
        if dtype is DoubleType:
            return Bytes.from_double(value)
        raise CoderError(f"PrimitiveType cannot encode {dtype}")

    def decode(self, data: bytes, dtype: DataType) -> object:
        return self.decoder_for(dtype)(data)

    def decoder_for(self, dtype: DataType) -> Callable[[bytes], object]:
        decode = _DECODERS.get(dtype)
        if decode is None:
            raise CoderError(f"PrimitiveType cannot decode {dtype}")
        return decode

    def struct_code(self, dtype: DataType) -> Optional[str]:
        return _STRUCT_CODES.get(dtype)

    def order_preserving(self, dtype: DataType) -> bool:
        # UTF-8 preserves code-point order; booleans and raw binary compare
        # fine; every numeric encoding breaks at the sign boundary.
        return dtype in (StringType, BinaryType, BooleanType)

    def byte_ranges(self, op: str, value: object,
                    dtype: DataType) -> Optional[List[ByteRange]]:
        normalized = normalize_bound(op, value, dtype)
        if normalized is None:
            return None
        if normalized is EMPTY_PREDICATE:
            return []
        op, value = normalized
        if op == "=":
            point = self.encode(value, dtype)
            return [ByteRange(point, True, point, True)]
        if self.order_preserving(dtype):
            return _ordered_ranges(op, self.encode(value, dtype))
        if dtype in _INT_BOUNDS:
            return self._int_ranges(op, int(value), dtype)
        if dtype in (FloatType, DoubleType):
            return self._float_ranges(op, float(value), dtype)
        return None

    # -- sign-split machinery ------------------------------------------------
    def _int_ranges(self, op: str, value: int, dtype: DataType) -> List[ByteRange]:
        """Two's-complement byte order: [0..MAX] then [MIN..-1]."""
        lo, hi = _INT_BOUNDS[dtype]
        enc = lambda v: self.encode(v, dtype)  # noqa: E731 - local shorthand
        if op in (">", ">="):
            inclusive = op == ">="
            if value >= 0:
                return [ByteRange(enc(value), inclusive, enc(hi), True)]
            return [
                ByteRange(enc(value), inclusive, enc(-1), True),
                ByteRange(enc(0), True, enc(hi), True),
            ]
        if op in ("<", "<="):
            inclusive = op == "<="
            if value >= 0:
                return [
                    ByteRange(enc(0), True, enc(value), inclusive),
                    ByteRange(enc(lo), True, enc(-1), True),
                ]
            return [ByteRange(enc(lo), True, enc(value), inclusive)]
        raise CoderError(f"unsupported range operator {op!r}")

    def _float_ranges(self, op: str, value: float, dtype: DataType) -> List[ByteRange]:
        """Raw IEEE-754: positives byte-ascend with value, negatives descend."""
        if math.isnan(value):
            return []
        if value == 0.0:
            value = 0.0  # canonicalise -0.0
        inf = _FLOAT_INF[dtype]
        enc = lambda v: self.encode(v, dtype)  # noqa: E731 - local shorthand
        # the smallest byte pattern of the negative half is the raw -0.0
        # image; stored values are canonicalised so nothing sits exactly
        # there, making the inclusive bound safe
        width = 8 if dtype is DoubleType else 4
        neg_floor = b"\x80" + b"\x00" * (width - 1)
        pos_all = ByteRange(enc(0.0), True, enc(inf), True)
        neg_all = ByteRange(neg_floor, True, enc(-inf), True)
        if op in (">", ">="):
            inclusive = op == ">="
            if value >= 0:
                return [ByteRange(enc(value), inclusive, enc(inf), True)]
            # negatives with v' > value sit at *smaller* byte offsets
            return [ByteRange(neg_floor, True, enc(value), inclusive), pos_all]
        if op in ("<", "<="):
            inclusive = op == "<="
            if value >= 0:
                return [ByteRange(enc(0.0), True, enc(value), inclusive), neg_all]
            return [ByteRange(enc(value), inclusive, enc(-inf), True)]
        raise CoderError(f"unsupported range operator {op!r}")
