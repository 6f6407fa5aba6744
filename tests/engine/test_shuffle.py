import enum
import zlib
from operator import itemgetter
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.engine import scheduler as scheduler_module
from repro.engine import shuffle as shuffle_module
from repro.engine.cluster import ComputeCluster
from repro.engine.rdd import ParallelCollectionRDD
from repro.engine.scheduler import TaskContext, TaskScheduler
from repro.engine.shuffle import ShuffleBlockStore, estimate_size, stable_hash
from repro.sql.row import Row
from repro.sql.session import SparkSession
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


def reference_hash(value):
    """``stable_hash`` as first defined: one ``isinstance`` chain, one
    recursive call per tuple member.  Kept here so the flat loop is pinned
    to these values wherever a float is not integral."""
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
            acc = (acc * 31 + reference_hash(item)) & 0x7FFFFFFF
        return acc
    return zlib.crc32(repr(value).encode("utf-8"))


HASH_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats().filter(lambda f: not f.is_integer()),
    st.text(max_size=8), st.binary(max_size=8),
)


@given(st.recursive(HASH_SCALARS,
                    lambda children: st.lists(children, max_size=5).map(tuple),
                    max_leaves=20))
def test_stable_hash_matches_reference(value):
    assert stable_hash(value) == reference_hash(value)


@given(st.integers(-(2**53), 2**53), st.data())
def test_equal_keys_hash_equal(n, data):
    """SQL equality decides placement: ``a == b`` implies equal hashes,
    for a number alone and inside a tuple next to other members."""
    forms = [n, float(n)] + ([-0.0, False] if n == 0 else []) \
        + ([True] if n == 1 else [])
    a, b = data.draw(st.sampled_from(forms)), data.draw(st.sampled_from(forms))
    assert a == b
    assert stable_hash(a) == stable_hash(b)
    rest = data.draw(st.tuples(st.text(max_size=4), st.integers()))
    assert stable_hash((a, *rest)) == stable_hash((b, *rest))
    assert stable_hash((*rest, a)) == stable_hash((*rest, b))
    assert stable_hash((rest, (a,))) == stable_hash((rest, (b,)))


def test_flat_key_takes_no_general_call(monkeypatch):
    calls = {"n": 0}
    general = shuffle_module._stable_hash_general

    def counting(value):
        calls["n"] += 1
        return general(value)

    monkeypatch.setattr(shuffle_module, "_stable_hash_general", counting)
    key = ("web", 7, "catalog")
    assert stable_hash(key) == reference_hash(key)
    assert calls["n"] == 0
    assert stable_hash((1.5, key)) == reference_hash((1.5, key))
    assert calls["n"] == 1  # the float; the nested tuple stays flat


def test_block_store_fetch_by_reduce_partition():
    store = ShuffleBlockStore()
    store.put_block(1, 0, 0, ["a"], 5)
    store.put_block(1, 1, 0, ["b"], 5)
    store.put_block(1, 0, 1, ["c"], 5)
    store.put_block(2, 0, 0, ["other"], 9)
    assert sorted(store.fetch(1, 0)) == ["a", "b"]
    assert list(store.fetch(1, 1)) == ["c"]


def test_block_store_clear_by_shuffle():
    store = ShuffleBlockStore()
    store.put_block(1, 0, 0, ["a"], 5)
    store.put_block(2, 0, 0, ["b"], 5)
    store.clear(1)
    assert list(store.fetch(1, 0)) == []
    assert list(store.fetch(2, 0)) == ["b"]


# -- a shuffle is sized once -----------------------------------------------------

def test_shuffle_rows_are_sized_once_by_the_map_task(monkeypatch):
    """The map task sizes each row once and the block keeps those bytes;
    a fetch charges them and calls ``estimate_size`` no more."""
    calls = {"n": 0}

    def counting(value):
        calls["n"] += 1
        return estimate_size(value)

    monkeypatch.setattr(scheduler_module, "estimate_size", counting)
    rows = [(i, f"row-{i}") for i in range(40)]
    scheduler = TaskScheduler(ComputeCluster(["h1", "h2"]), DEFAULT_COST_MODEL)
    shuffled = ParallelCollectionRDD(rows, 3).partition_by(4, key_fn=itemgetter(0))

    written = scheduler.run_job(shuffled, map_stages_only=True)
    assert calls["n"] == len(rows)
    store = scheduler.block_store
    for p in range(4):
        for __, block, nbytes in store.blocks_for(shuffled.shuffle_id, p):
            assert nbytes == sum(estimate_size(r) for r in block)

    ctx = TaskContext("h1", CostLedger(), scheduler)
    fetched = [r for p in range(4) for r in ctx.fetch_shuffle(shuffled.shuffle_id, p)]
    assert sorted(fetched) == rows
    assert calls["n"] == len(rows)  # the fetch sized nothing again
    assert ctx.ledger.metrics.get("engine.shuffle_read_bytes") == \
        written.metrics.get("engine.shuffle_write_bytes") == \
        sum(estimate_size(r) for r in rows)


FACT = [(i % 16, f"payload-{i:03d}") for i in range(120)]
#: wide enough that the filtered dimension is *estimated* over 1 KB
DIM = [(i, f"dim-name-{i:03d}-" + "z" * 60) for i in range(64)]


@pytest.mark.parametrize("aqe, threshold, sql", [
    (False, 1, "SELECT f.k, d.name FROM fact f JOIN dim d ON f.k = d.k"),
    (False, 1, "SELECT k, count(*) FROM fact GROUP BY k"),
    (True, 1024, "SELECT f.k, d.name FROM fact f "
                 "JOIN (SELECT * FROM dim WHERE k < 3) d ON f.k = d.k"),
], ids=["shuffled-join", "aggregate", "aqe-broadcast-conversion"])
def test_a_fully_read_shuffle_reads_what_it_wrote(aqe, threshold, sql):
    session = SparkSession(["h1", "h2"], conf={
        "sql.aqe.enabled": aqe, "sql.autoBroadcastJoinThreshold": threshold})
    key_schema = StructType([StructField("k", IntegerType),
                             StructField("name", StringType)])
    session.create_dataframe(FACT, key_schema).create_or_replace_temp_view("fact")
    session.create_dataframe(DIM, key_schema).create_or_replace_temp_view("dim")
    result = session.sql(sql).run()
    assert result.rows
    written = result.metrics.get("engine.shuffle_write_bytes")
    assert written > 0
    assert result.metrics.get("engine.shuffle_read_bytes") == written
    conversions = result.metrics.get("engine.aqe.broadcast_conversions")
    assert conversions == (1.0 if aqe else 0.0)
