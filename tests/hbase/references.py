"""Per-key references for the store file's batch paths.

A store file builds its bloom from all its row keys in one loop, and a Get
asks it a batch of rows at once (``StoreFile.admitted_rows``).  These are
the same rules a key at a time: the positions ``(h1 + i * h2) mod bits``,
``i < 3``, of one :func:`~repro.hbase.hfile.row_hash`.  The bloom tests and
the point-read and compaction referees check the batch paths against them.
:func:`count_digests` counts the blake2b digests the store layer takes.
"""

import functools
import hashlib
from typing import Iterable, List

from repro.hbase import hfile
from repro.hbase.hfile import BloomFilter, RowHash, StoreFile, row_hash


def _positions(bloom: BloomFilter, hashed: RowHash):
    h1, h2 = hashed
    return [(h1 + i * h2) % bloom._num_bits for i in range(3)]


def bloom_add(bloom: BloomFilter, hashed: RowHash) -> None:
    """Set one row's bits."""
    for pos in _positions(bloom, hashed):
        bloom._bits[pos >> 3] |= 1 << (pos & 7)


def might_contain(bloom: BloomFilter, hashed: RowHash) -> bool:
    """False means the row is certainly not among the bloom's keys."""
    return all(bloom._bits[pos >> 3] & (1 << (pos & 7))
               for pos in _positions(bloom, hashed))


def might_contain_row(store_file: StoreFile, hashed: RowHash) -> bool:
    """A store file's bloom asked for one row: False means a Get neither
    seeks nor reads the file."""
    return might_contain(store_file.bloom(), hashed)


def per_key_bloom(keys: Iterable[bytes], bits_per_key: int = 10) -> BloomFilter:
    """A bloom sized as ``BloomFilter(keys)`` is, fed one key at a time."""
    keys = list(keys)
    bloom = BloomFilter([])
    bloom._num_bits = max(64, len(keys) * bits_per_key)
    bloom._bits = bytearray((bloom._num_bits + 7) // 8)
    for key in keys:
        bloom_add(bloom, row_hash(key))
    return bloom


def count_digests(monkeypatch) -> List[bytes]:
    """Record every blake2b digest taken while ``monkeypatch`` is active --
    :func:`row_hash`'s and the bloom builder's bound one alike -- and
    return the list the hashed inputs are appended to."""
    digests: List[bytes] = []
    original = hashlib.blake2b

    def counted(data=b"", **kwargs):
        digests.append(data)
        return original(data, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    monkeypatch.setattr(hfile, "_DIGEST", functools.partial(counted, digest_size=16))
    return digests
