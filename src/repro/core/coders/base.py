"""Coder interface and registry."""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import CoderError
from repro.sql.types import BooleanType, DataType

#: sentinel: the predicate is provably empty (e.g. int_col = 1.5)
EMPTY_PREDICATE = object()


def normalize_bound(op: str, value: object, dtype: DataType):
    """Coerce a literal to the column's domain before byte translation.

    Returns ``(op, value)`` with the bound adjusted (a float bound against an
    integer column floors/shifts to the equivalent integer predicate),
    :data:`EMPTY_PREDICATE` when no value can satisfy it, or None when the
    literal's type makes byte translation unsafe (the engine filters instead).
    """
    if isinstance(value, bool):
        return (op, value) if dtype is BooleanType else None
    # the domain is the type's Python type: every integer type (timestamps
    # included) is ``int``, ``float``/``double`` are ``float``
    domain = dtype.python_type
    if domain is int:
        if isinstance(value, float):
            if math.isnan(value) or math.isinf(value):
                return None
            if value.is_integer():
                return op, int(value)
            # int_col <op> 1.5 rewrites to an integer bound
            if op == "=":
                return EMPTY_PREDICATE
            if op in (">", ">="):
                return ">", math.floor(value)
            if op in ("<", "<="):
                return "<=", math.floor(value)
            return None
        return (op, value) if isinstance(value, int) else None
    if domain is float:
        if isinstance(value, int):
            return op, float(value)
        return (op, value) if isinstance(value, float) else None
    if domain is str:
        return (op, value) if isinstance(value, str) else None
    return op, value


@dataclass(frozen=True)
class ByteRange:
    """One byte-space interval ``lo..hi`` with inclusivity flags.

    ``lo=None`` means "from the beginning of the keyspace", ``hi=None`` means
    "to the end".  These are *value-encoding* ranges over a single key
    dimension; the range algebra turns them into full-rowkey scan bounds.
    """

    lo: Optional[bytes]
    lo_inclusive: bool
    hi: Optional[bytes]
    hi_inclusive: bool

    def is_point(self) -> bool:
        return (
            self.lo is not None and self.lo == self.hi
            and self.lo_inclusive and self.hi_inclusive
        )


class FieldCoder:
    """Encodes/decodes one column value; knows its ordering properties."""

    #: registry / catalog name ("tableCoder" value)
    name: str = "abstract"

    def encode(self, value: object, dtype: DataType) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, dtype: DataType) -> object:
        raise NotImplementedError

    def decoder_for(self, dtype: DataType) -> Callable[[bytes], object]:
        """``decode(data)`` with ``dtype`` resolved once.

        What a scan binds per column, so a cell costs one call and no type
        dispatch.  The shipped coders resolve it from a table and define
        :meth:`decode` through it; a custom coder that only writes
        :meth:`decode` gets this wrapper.
        """
        return functools.partial(self.decode, dtype=dtype)

    def encoder_for(self, dtype: DataType) -> Callable[[object], bytes]:
        """``encode(value)`` with ``dtype`` resolved once: the mirror of
        :meth:`decoder_for`, what a writer binds per column.

        Its bytes and its errors are :meth:`encode`'s.  PrimitiveType and
        Phoenix take the common value (an exact ``int`` in range, a
        ``str``, a non-zero PrimitiveType ``float``) straight through
        ``struct`` or ``str.encode`` and hand everything else to
        :meth:`encode`, the one raising path; Avro parses its cell schema
        once and defines :meth:`encode` through this.  A custom coder that
        only writes :meth:`encode` gets this wrapper.
        """
        return functools.partial(self.encode, dtype=dtype)

    def struct_code(self, dtype: DataType) -> Optional[str]:
        """The ``struct`` format code (``>`` byte order, no prefix) whose
        unpacking equals :meth:`decoder_for` on well-formed bytes, or None.

        A coder that answers lets a scan decode a whole all-fixed-width key
        with one ``struct.Struct`` call instead of one call per dimension
        (:meth:`repro.core.keys.RowCodec.decoder`).  None, the default,
        keeps the per-dimension decoders: right for any encoding ``struct``
        cannot express, such as a flipped sign bit or a varint.
        """
        return None

    def order_preserving(self, dtype: DataType) -> bool:
        """True when byte order equals value order for ``dtype``."""
        return False

    def byte_ranges(self, op: str, value: object,
                    dtype: DataType) -> Optional[List[ByteRange]]:
        """Byte intervals equivalent to ``column <op> value``.

        Returns None when the predicate cannot be expressed byte-wise under
        this encoding (the engine then keeps the filter).  Equality always
        works for an injective encoding; inequalities need order preservation
        or an explicit sign-split (PrimitiveType numerics).
        """
        normalized = normalize_bound(op, value, dtype)
        if normalized is None:
            return None
        if normalized is EMPTY_PREDICATE:
            return []
        op, value = normalized
        if op == "=":
            point = self.encode(value, dtype)
            return [ByteRange(point, True, point, True)]
        if not self.order_preserving(dtype):
            return None
        encoded = self.encode(value, dtype)
        return _ordered_ranges(op, encoded)

    def encoded_width(self, dtype: DataType) -> Optional[int]:
        """Fixed encoded width for ``dtype`` under this coder, if any."""
        return dtype.fixed_width

    def self_delimiting(self, dtype: DataType) -> bool:
        """True when the decoder finds its own end (padding can stay)."""
        return False


def int_encoder(code: str, bias: int,
                reference: Callable[[object], bytes]) -> Callable[[object], bytes]:
    """An integer column's bound ``encode(value)``: an exact ``int`` (a
    ``bool`` is not one) that ``struct`` code ``code`` takes as
    ``value + bias`` is packed so; anything else -- out of range, another
    type, NULL -- goes to ``reference``, the coder's ``encode``, which
    raises or answers for it."""
    pack = struct.Struct(">" + code).pack

    def encode(value: object) -> bytes:
        if type(value) is int:
            try:
                return pack(value + bias)
            except struct.error:
                pass
        return reference(value)

    return encode


def text_encoder(reference: Callable[[object], bytes]) -> Callable[[object], bytes]:
    """A string column's bound ``encode(value)``: a ``str`` is its UTF-8,
    anything else goes to ``reference``."""

    def encode(value: object) -> bytes:
        if type(value) is str:
            return value.encode("utf-8")
        return reference(value)

    return encode


def _ordered_ranges(op: str, encoded: bytes) -> List[ByteRange]:
    """Ranges for an order-preserving encoding."""
    if op == ">":
        return [ByteRange(encoded, False, None, False)]
    if op == ">=":
        return [ByteRange(encoded, True, None, False)]
    if op == "<":
        return [ByteRange(None, False, encoded, False)]
    if op == "<=":
        return [ByteRange(None, False, encoded, True)]
    raise CoderError(f"unsupported range operator {op!r}")


_REGISTRY: Dict[str, FieldCoder] = {}


def register_coder(coder: FieldCoder) -> None:
    """Register a coder under its name (custom coders welcome -- section IV.B)."""
    _REGISTRY[coder.name] = coder


def get_coder(name: str) -> FieldCoder:
    """Look a coder up by its catalog name (``tableCoder`` value)."""
    coder = _REGISTRY.get(name)
    if coder is None:
        raise CoderError(f"unknown coder {name!r}; registered: {sorted(_REGISTRY)}")
    return coder
