import enum
from typing import NamedTuple

from hypothesis import given, strategies as st

from repro.engine.shuffle import ShuffleBlockStore, estimate_size, stable_hash
from repro.sql.row import Row
from repro.sql.types import IntegerType, StringType, StructField, StructType


def test_estimate_size_primitives():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(5) == 8
    assert estimate_size(1.5) == 8
    assert estimate_size("abcd") == 8
    assert estimate_size(b"abcd") == 8


def test_estimate_size_containers_recursive():
    assert estimate_size((1, 2)) == 16 + 16
    assert estimate_size([1]) == 16 + 8
    assert estimate_size({"a": 1}) == 16 + 5 + 8


@given(st.tuples(st.integers(), st.text(max_size=10), st.floats(allow_nan=False)))
def test_estimate_size_positive(row):
    assert estimate_size(row) > 0


def reference_size(value):
    """``estimate_size`` as first defined: one ``isinstance`` chain, no fast
    path.  Kept here so the optimised function is pinned to these bytes."""
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
        return 16 + sum(reference_size(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(
            reference_size(k) + reference_size(v) for k, v in value.items()
        )
    values = getattr(value, "values", None)
    if values is not None and not callable(values):
        return reference_size(values)
    return 16


class Celsius(float):
    """A scalar subclass: must size like its base, via the fallback."""


class Label(str):
    pass


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Point(NamedTuple):
    x: int
    y: object


class Opaque:
    """Neither a container nor Row-like: sized as bare object overhead."""


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.binary(max_size=8), st.binary(max_size=8).map(bytearray),
    st.floats(allow_nan=False).map(Celsius), st.text(max_size=4).map(Label),
    st.sampled_from([Color.RED, Color.BLUE]), st.builds(Opaque),
)
#: hashable scalars only, for dict keys
KEYS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
SCHEMA = StructType([StructField("a", IntegerType), StructField("b", StringType)])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.tuples(st.integers(), children).map(lambda xy: Point(*xy)),
        st.tuples(children, children).map(lambda ab: Row(ab, SCHEMA)),
    )


@given(st.recursive(SCALARS, containers, max_leaves=25))
def test_estimate_size_fast_path_matches_reference(value):
    assert estimate_size(value) == reference_size(value)


def test_estimate_size_bool_is_not_an_int_and_empties_cost_overhead():
    assert estimate_size((True, 1, 1.0)) == reference_size((True, 1, 1.0)) == 33
    assert estimate_size([False]) == 17
    for empty in ((), [], {}, "", b"", bytearray()):
        assert estimate_size(empty) == reference_size(empty)
    assert estimate_size(Row((1, "ab"), SCHEMA)) == estimate_size((1, "ab")) == 30


@given(st.one_of(st.integers(), st.text(), st.binary(),
                 st.tuples(st.integers(), st.text())))
def test_stable_hash_deterministic_and_nonnegative(value):
    assert stable_hash(value) == stable_hash(value)
    assert stable_hash(value) >= 0


def test_stable_hash_spreads_keys():
    buckets = {stable_hash(f"key{i}") % 8 for i in range(100)}
    assert len(buckets) == 8


def test_block_store_fetch_by_reduce_partition():
    store = ShuffleBlockStore()
    store.put_block(1, 0, 0, ["a"])
    store.put_block(1, 1, 0, ["b"])
    store.put_block(1, 0, 1, ["c"])
    store.put_block(2, 0, 0, ["other"])
    assert sorted(store.fetch(1, 0)) == ["a", "b"]
    assert list(store.fetch(1, 1)) == ["c"]


def test_block_store_clear_by_shuffle():
    store = ShuffleBlockStore()
    store.put_block(1, 0, 0, ["a"])
    store.put_block(2, 0, 0, ["b"])
    store.clear(1)
    assert list(store.fetch(1, 0)) == []
    assert list(store.fetch(2, 0)) == ["b"]
