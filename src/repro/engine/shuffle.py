"""Shuffle bookkeeping: size estimation, the block store, runtime statistics.

Shuffle volume is a first-class paper metric (Figure 5 reports KB shuffled
per query), so map tasks serialise their output buckets through
:func:`estimate_size` and the scheduler charges both the write and the read
side against the shuffle bandwidth of the cost model.

Adaptive query execution (docs/adaptive.md) additionally collects
:class:`ShuffleRuntimeStats` at map-write time: per-reduce-partition row and
byte counts, per-``(map, reduce)`` block sizes (the split plan for skewed
partitions), and a byte-weighted :class:`KeySketch` of the hottest join
keys.  Collection is opt-in per stage so the non-adaptive path stays
byte-identical.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_OBJ_OVERHEAD = 16


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

    Thread-safe: concurrent map tasks register blocks while reduce tasks of
    an earlier shuffle stream theirs.  Blocks are indexed by
    ``(shuffle_id, reduce_partition)`` so a fetch touches only its own
    bucket instead of scanning every block in the store, and reads take a
    snapshot under the lock so iteration never races a concurrent writer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (shuffle_id, reduce_partition) -> {map_partition: rows}
        self._buckets: Dict[Tuple[int, int], Dict[int, List[object]]] = {}

    def put_block(self, shuffle_id: int, map_partition: int,
                  reduce_partition: int, rows: List[object]) -> None:
        with self._lock:
            bucket = self._buckets.setdefault((shuffle_id, reduce_partition), {})
            bucket[map_partition] = rows

    def blocks_for(self, shuffle_id: int,
                   reduce_partition: int) -> List[Tuple[int, List[object]]]:
        """One ``(map_partition, rows)`` entry per upstream map output.

        Deterministically ordered by map partition; the list is a snapshot,
        so callers may consume it lazily without holding the lock.
        """
        with self._lock:
            bucket = self._buckets.get((shuffle_id, reduce_partition), {})
            return sorted(bucket.items())

    def fetch(self, shuffle_id: int, reduce_partition: int) -> Iterable[object]:
        """All rows destined for one reduce partition, across map outputs."""
        for __, rows in self.blocks_for(shuffle_id, reduce_partition):
            yield from rows

    def clear(self, shuffle_id: int) -> None:
        with self._lock:
            doomed = [k for k in self._buckets if k[0] == shuffle_id]
            for key in doomed:
                del self._buckets[key]


class KeySketch:
    """Byte-weighted heavy-hitter sketch over shuffle keys (space-saving).

    Tracks the approximately-heaviest ``capacity`` keys by serialized bytes.
    When a new key arrives at a full sketch it inherits the weight of the
    lightest tracked key (the classic space-saving overestimate), which is
    exactly what skew diagnosis needs: a genuinely hot key can never be
    missing from the sketch.  Deterministic: eviction ties resolve by
    insertion order, and merges are applied in map-task order.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._weights: Dict[object, float] = {}

    def add(self, key: object, weight: float) -> None:
        """Fold one key occurrence of ``weight`` bytes into the sketch."""
        weights = self._weights
        if key in weights:
            weights[key] += weight
        elif len(weights) < self.capacity:
            weights[key] = weight
        else:
            victim = min(weights, key=weights.__getitem__)
            floor = weights.pop(victim)
            weights[key] = floor + weight

    def merge(self, other: "KeySketch") -> None:
        """Fold another sketch into this one (map-output combination)."""
        for key, weight in other._weights.items():
            self.add(key, weight)

    def top(self, n: Optional[int] = None) -> List[Tuple[object, float]]:
        """Tracked ``(key, bytes)`` pairs, heaviest first (ties by repr)."""
        ranked = sorted(self._weights.items(),
                        key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked if n is None else ranked[:n]


class ShuffleRuntimeStats:
    """What one shuffle's map stage actually wrote, per reduce partition.

    The raw material for adaptive re-optimization (docs/adaptive.md):
    ``partition_bytes``/``partition_rows`` drive broadcast conversion and
    partition coalescing, ``block_bytes[map][reduce]`` is the split plan for
    skewed partitions, and ``sketch`` names the hot keys for EXPLAIN
    ANALYZE's reoptimization events.
    """

    def __init__(self, shuffle_id: int, num_partitions: int) -> None:
        self.shuffle_id = shuffle_id
        self.num_partitions = num_partitions
        self.partition_rows: List[int] = [0] * num_partitions
        self.partition_bytes: List[int] = [0] * num_partitions
        #: per map task, the bytes it wrote to each reduce partition
        self.block_bytes: List[List[int]] = []
        self.sketch = KeySketch()

    def add_map_output(self, reduce_rows: Sequence[int],
                       reduce_bytes: Sequence[int],
                       sketch: "KeySketch") -> None:
        """Fold one map task's per-reduce write counts into the totals."""
        for p in range(self.num_partitions):
            self.partition_rows[p] += reduce_rows[p]
            self.partition_bytes[p] += reduce_bytes[p]
        self.block_bytes.append(list(reduce_bytes))
        self.sketch.merge(sketch)

    @property
    def total_rows(self) -> int:
        """Rows written across every reduce partition."""
        return sum(self.partition_rows)

    @property
    def total_bytes(self) -> int:
        """Bytes written across every reduce partition."""
        return sum(self.partition_bytes)

    def hot_key(self, partition: int) -> Optional[Tuple[object, float]]:
        """The sketch's heaviest key hashing to ``partition``, if any."""
        for key, weight in self.sketch.top():
            if stable_hash(key) % self.num_partitions == partition:
                return key, weight
        return None


def stable_hash(value: object) -> int:
    """Deterministic hash for shuffle partitioning.

    Python's built-in ``hash`` is salted per process for strings, which would
    make shuffle placement (and therefore per-partition metrics) vary between
    runs; this one is stable across processes.
    """
    import zlib

    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        return zlib.crc32(repr(value).encode("utf-8"))
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, tuple):
        acc = 1
        for item in value:
            acc = (acc * 31 + stable_hash(item)) & 0x7FFFFFFF
        return acc
    return zlib.crc32(repr(value).encode("utf-8"))
