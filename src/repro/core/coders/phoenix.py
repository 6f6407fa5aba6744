"""The Phoenix coder: Apache Phoenix's order-preserving encodings.

Allows SHC to read tables written by Phoenix and vice versa (section
IV.B.3).  Integers are sign-flipped, floats use the IEEE total-order trick,
so every comparison predicate translates directly into a single byte range.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

from repro.common.errors import CoderError
from repro.core.coders.base import FieldCoder, int_encoder, text_encoder
from repro.hbase.hbytes import Bytes, OrderedBytes
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

#: dtype -> ``decode(data)``; each keeps the width check ``OrderedBytes`` makes
_DECODERS: Dict[DataType, Callable[[bytes], object]] = {
    StringType: Bytes.to_string,
    BinaryType: bytes,
    BooleanType: lambda data: data != b"\x00",
    ByteType: OrderedBytes.to_byte,
    ShortType: OrderedBytes.to_short,
    IntegerType: OrderedBytes.to_int,
    LongType: OrderedBytes.to_long,
    TimestampType: OrderedBytes.to_long,
    FloatType: OrderedBytes.to_float,
    DoubleType: OrderedBytes.to_double,
}

#: dtype -> the unsigned ``struct`` code and the bias that flips its sign
#: bit: ``OrderedBytes`` packs ``value + bias`` for an integer in range
_BIASED: Dict[DataType, Tuple[str, int]] = {
    ByteType: ("B", 2**7),
    ShortType: ("H", 2**15),
    IntegerType: ("I", 2**31),
    LongType: ("Q", 2**63),
    TimestampType: ("Q", 2**63),
}


class PhoenixCoder(FieldCoder):
    """``tableCoder: Phoenix``."""

    name = "Phoenix"

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
            return b"\x01" if value else b"\x00"
        if dtype is ByteType:
            return OrderedBytes.from_byte(value)
        if dtype is ShortType:
            return OrderedBytes.from_short(value)
        if dtype is IntegerType:
            return OrderedBytes.from_int(value)
        if dtype in (LongType, TimestampType):
            return OrderedBytes.from_long(value)
        if dtype is FloatType:
            return OrderedBytes.from_float(value)
        if dtype is DoubleType:
            return OrderedBytes.from_double(value)
        raise CoderError(f"Phoenix cannot encode {dtype}")

    def decode(self, data: bytes, dtype: DataType) -> object:
        return self.decoder_for(dtype)(data)

    def decoder_for(self, dtype: DataType) -> Callable[[bytes], object]:
        decode = _DECODERS.get(dtype)
        if decode is None:
            raise CoderError(f"Phoenix cannot decode {dtype}")
        return decode

    def encoder_for(self, dtype: DataType) -> Callable[[object], bytes]:
        reference = functools.partial(self.encode, dtype=dtype)
        if dtype in _BIASED:
            return int_encoder(*_BIASED[dtype], reference)
        if dtype is StringType:
            return text_encoder(reference)
        return reference

    def order_preserving(self, dtype: DataType) -> bool:
        return True
