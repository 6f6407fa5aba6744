"""Shuffle bookkeeping: size estimation, placement and the block store.

Shuffle volume is a first-class paper metric (Figure 5 reports KB shuffled
per query), so a map task sizes each row it buckets through
:func:`estimate_size`, once, and the scheduler charges the write side
against the shuffle bandwidth of the cost model.  The block store keeps
each block's bytes next to its rows: a reduce task's fetch charges those
bytes, and adaptive query execution (docs/adaptive.md) reads them to size
its partitions and split skewed ones.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, Iterable, List, Tuple

_OBJ_OVERHEAD = 16
_crc32 = zlib.crc32


def estimate_size(value: object) -> int:
    """Approximate serialized size of a row/value in bytes.

    Deterministic and cheap; mirrors the flat binary encoding an engine's
    row serializer would produce (fixed 8 bytes for numbers, payload length
    for strings/bytes, recursive for tuples/lists/dicts).

    Called once per row on every shuffle, broadcast and result path, so the
    common shape -- a plain tuple or list of plain scalars -- is sized by
    exact-type checks in one flat loop.  Anything else (subclasses, bytes,
    dicts, Row-likes) takes :func:`_estimate_size_general`, whose byte
    counts the fast path must reproduce exactly.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        total = _OBJ_OVERHEAD
        for v in value:  # type: ignore[attr-defined]
            k = type(v)
            if k is int or k is float:
                total += 8
            elif k is str:
                total += len(v) + 4
            elif v is None or k is bool:
                total += 1
            else:
                total += estimate_size(v)
        return total
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(value) + 4  # type: ignore[arg-type]
    if value is None or kind is bool:
        return 1
    return _estimate_size_general(value)


def _estimate_size_general(value: object) -> int:
    """:func:`estimate_size` by ``isinstance``: the definition of every size."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 4
    if isinstance(value, (bytes, bytearray)):
        return len(value) + 4
    if isinstance(value, (tuple, list)):
        return _OBJ_OVERHEAD + sum(estimate_size(v) for v in value)
    if isinstance(value, dict):
        return _OBJ_OVERHEAD + sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    # Row-like objects expose .values
    values = getattr(value, "values", None)
    if values is not None and not callable(values):
        return estimate_size(values)
    return _OBJ_OVERHEAD


class ShuffleBlockStore:
    """Holds map-task output buckets between the two sides of an exchange.

    The one record of what an exchange wrote: each block keeps its rows and
    the bytes the map task sized them at, so the read side charges and the
    adaptive re-planner (docs/adaptive.md) decide from the same number
    without sizing a row again.  Blocks are indexed by
    ``(shuffle_id, reduce_partition)`` so a fetch touches only its own
    bucket.  A query's tasks run inline on one thread; the lock is for
    callers' threads (docs/engine.md, "Shared state and thread safety").
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (shuffle_id, reduce_partition) -> {map_partition: (rows, bytes)}
        self._buckets: Dict[Tuple[int, int], Dict[int, Tuple[List[object], int]]] = {}

    def put_block(self, shuffle_id: int, map_partition: int,
                  reduce_partition: int, rows: List[object],
                  nbytes: int) -> None:
        """Keep one map task's rows for one reduce partition, and their bytes."""
        with self._lock:
            bucket = self._buckets.setdefault((shuffle_id, reduce_partition), {})
            bucket[map_partition] = (rows, nbytes)

    def blocks_for(self, shuffle_id: int, reduce_partition: int
                   ) -> List[Tuple[int, List[object], int]]:
        """One ``(map_partition, rows, bytes)`` entry per upstream map output.

        Deterministically ordered by map partition; the list is a snapshot,
        so callers may consume it lazily without holding the lock.
        """
        with self._lock:
            bucket = self._buckets.get((shuffle_id, reduce_partition), {})
            return [(m, rows, nbytes) for m, (rows, nbytes) in sorted(bucket.items())]

    def fetch(self, shuffle_id: int, reduce_partition: int) -> Iterable[object]:
        """All rows destined for one reduce partition, across map outputs."""
        for __, rows, __ in self.blocks_for(shuffle_id, reduce_partition):
            yield from rows

    def partition_bytes(self, shuffle_id: int, num_partitions: int) -> List[int]:
        """The bytes each reduce partition of one shuffle was written."""
        return [sum(nbytes for __, __, nbytes in self.blocks_for(shuffle_id, p))
                for p in range(num_partitions)]

    def clear(self, shuffle_id: int) -> None:
        with self._lock:
            doomed = [k for k in self._buckets if k[0] == shuffle_id]
            for key in doomed:
                del self._buckets[key]


def stable_hash(value: object) -> int:
    """Deterministic hash for shuffle partitioning.

    Python's built-in ``hash`` is salted per process for strings, which would
    make shuffle placement (and therefore per-partition metrics) vary between
    runs; this one is stable across processes.

    The partitioning contract is SQL equality: keys that compare equal hash
    equal, so they meet in one reduce partition -- ``1``, ``1.0`` and
    ``True``; ``0.0`` and ``-0.0``; and tuples of such, element by element.

    Called once per row on every exchange, so the common shape -- a str, an
    int, or a plain tuple of them -- is hashed by exact-type checks in one
    flat loop.  Everything else (other scalars, subclasses, a tuple's
    members of other types) takes :func:`_stable_hash_general`, whose
    values the fast path must reproduce exactly.
    """
    kind = type(value)
    if kind is tuple:
        acc = 1
        for item in value:  # type: ignore[attr-defined]
            k = type(item)
            if k is str:
                h = _crc32(item.encode("utf-8"))
            elif k is int:
                h = item & 0x7FFFFFFF
            else:
                h = stable_hash(item)
            acc = (acc * 31 + h) & 0x7FFFFFFF
        return acc
    if kind is str:
        return _crc32(value.encode("utf-8"))  # type: ignore[attr-defined]
    if kind is int:
        return value & 0x7FFFFFFF  # type: ignore[operator]
    return _stable_hash_general(value)


def _stable_hash_general(value: object) -> int:
    """:func:`stable_hash` by ``isinstance``: the definition of every hash.

    A finite integral float hashes as the int it equals (``-0.0`` as 0), so
    numeric keys that compare equal share a partition; any other float
    hashes its ``repr``.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        if value.is_integer():
            return int(value) & 0x7FFFFFFF
        return _crc32(repr(value).encode("utf-8"))
    if isinstance(value, str):
        return _crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return _crc32(value)
    if isinstance(value, tuple):
        acc = 1
        for item in value:
            acc = (acc * 31 + stable_hash(item)) & 0x7FFFFFFF
        return acc
    return _crc32(repr(value).encode("utf-8"))
