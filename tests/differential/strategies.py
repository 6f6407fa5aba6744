"""The one home of generated inputs, and of the pinned chaos schedule.

Referees and relations draw from here so that one vocabulary -- cells of a
region, join tables with NULL and duplicate keys, HBase tables written under
each row coder -- is declared once, with the bounds its first referee drew.
"""

import dataclasses
import json
from typing import Tuple

import pytest
from hypothesis import strategies as st

from repro.common.faults import (
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FAULT_SHUFFLE_FETCH,
    FaultInjector,
    crash_region_server,
)
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT, QUORUM_OPTION
from repro.hbase.region import TimeRange
from repro.sql import adaptive
from repro.sql.session import SparkSession
from repro.sql.types import IntegerType, StringType, StructField, StructType

CODERS = ("PrimitiveType", "Phoenix", "Avro")


def rows(result):
    """A result's rows as tuples, in the order they came."""
    return [tuple(r.values) for r in result.rows]


# -- cells of one region ---------------------------------------------------------

ROWS = [b"r%d" % i for i in range(6)]
FAMILIES = ["f", "g"]
COLUMNS = [("f", "q1"), ("f", "q2"), ("g", "q1")]
ALL_VERSIONS = 10**6

cell_rows = st.sampled_from(ROWS)
cell_columns = st.sampled_from(COLUMNS)
version_limits = st.sampled_from([1, 2, ALL_VERSIONS])


def cell_queries(**extra):
    """A read's column subset, version limit and time range, plus whatever
    ``extra`` strategies a referee's reads also take (families, bounds)."""
    return st.fixed_dictionaries(dict(
        columns=st.none() | st.sets(cell_columns, min_size=1),
        max_versions=version_limits,
        time_range=st.none() | st.builds(
            lambda lo, span: TimeRange(lo, lo + span),
            st.integers(0, 12), st.integers(0, 30)),
        **extra))


# -- join inputs: NULL and duplicate keys on both sides --------------------------

keys = st.one_of(st.none(), st.integers(0, 3))
values = st.one_of(st.none(), st.integers(0, 5))
tables = st.lists(st.tuples(keys, values), max_size=9)


# -- an HBase table written through SHC ------------------------------------------

def hbase_table(session, cluster, name, schema, data, key, coder="PrimitiveType",
                regions=1, families=None):
    """Write ``data`` to a new HBase table ``name`` through SHC and register
    it in ``session`` as a temp view of that name; returns the reader
    options.  ``key`` names the row-key columns in order; every other column
    lives in family ``cf`` unless ``families`` maps it elsewhere.  Avro is
    not order-preserving, so its key dimensions declare a fixed length."""
    columns = {}
    for field in schema:
        spec = {"cf": "rowkey" if field.name in key
                else (families or {}).get(field.name, "cf"),
                "col": field.name, "type": field.dtype.name}
        if coder == "Avro" and field.name in key:
            spec["length"] = 10
        columns[field.name] = spec
    options = {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": name, "tableCoder": coder},
            "rowkey": ":".join(key),
            "columns": columns,
        }),
        QUORUM_OPTION: cluster.quorum,
    }
    session.create_dataframe(data, schema).write.format(DEFAULT_FORMAT) \
        .options({**options, HBaseTableCatalog.newTable: str(regions)}).save()
    session.read.format(DEFAULT_FORMAT).options(options).load() \
        .create_or_replace_temp_view(name)
    return options


# -- the pinned chaos schedule ---------------------------------------------------

#: the pinned chaos schedules CI replays (see docs/fault_tolerance.md)
CHAOS_SEEDS = (101, 202, 303)

#: small scanner pages so the injected crash lands *between* result pages
CHAOS_READER_OPTIONS = {HBaseSparkConf.CACHED_ROWS: "40"}
PAGE_ROWS = int(CHAOS_READER_OPTIONS[HBaseSparkConf.CACHED_ROWS])


def chaos_injector(seed):
    """The chaos schedule: one crash, >=5 transient RPCs, one failed fetch."""
    injector = FaultInjector(seed=seed)
    # crash one region server between scan pages, pepper the RPC path with
    # transient failures, and fail one shuffle-block fetch
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    injector.inject(FAULT_RPC, rate=0.3, times=5)
    injector.inject(FAULT_SHUFFLE_FETCH, rate=1.0, times=1)
    return injector


# -- a table for the relations: every layout, coder and split ------------------

@dataclasses.dataclass(frozen=True)
class DrawnTable:
    coder: str
    #: ``("k",)`` or ``("k", "n")``
    key: Tuple[str, ...]
    regions: int
    #: ``(k, [n,] g, v, c)`` per row
    rows: Tuple[tuple, ...]
    #: a predicate on the leading key column, which may prune regions
    where: str

    @property
    def schema(self):
        return StructType([StructField(name, IntegerType) for name in "kngvc"
                           if name != "n" or "n" in self.key])


@st.composite
def drawn_tables(draw, coder, composite):
    """``g`` and ``v`` are the join inputs' NULL-heavy keys and values, ``c``
    a group key that is never NULL.  There is more than one chaos scanner
    page of rows per region, so the pinned crash lands between two pages
    of some region; some row keys are negative, and some equal a ``g``."""
    regions = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(keys, values, st.integers(0, 3)),
                          min_size=regions * PAGE_ROWS + 1,
                          max_size=regions * PAGE_ROWS + 24))
    base = draw(st.integers(-12, 0))
    if composite:
        # three rows share each leading key; ``n`` runs -1, 0, 1 under it
        data = tuple((base + i // 3, i % 3 - 1, *cell)
                     for i, cell in enumerate(cells))
    else:
        data = tuple((base + i, *cell) for i, cell in enumerate(cells))
    op = draw(st.sampled_from(["<", "<=", "=", ">=", "IN", "IN NULL"]))
    bound = draw(st.integers(base - 2, data[-1][0] + 1))
    if op == "IN":
        where = f"k IN ({bound}, {draw(st.integers(base - 2, data[-1][0] + 1))})"
    elif op == "IN NULL":
        # the ranges cannot hold a NULL option: the scan reads every row
        where = f"k IN ({bound}, NULL)"
    else:
        where = f"k {op} {bound}"
    return DrawnTable(coder, ("k", "n") if composite else ("k",), regions,
                      data, where)


# -- a skewed join over local relations ------------------------------------------

FACT_SCHEMA = StructType([
    StructField("fk", IntegerType),
    StructField("payload", StringType),
])
DIM_SCHEMA = StructType([
    StructField("id", IntegerType),
    StructField("name", StringType),
])
SKEW_HOSTS = ["h1", "h2", "h3"]

SKEW_SQL = """
    SELECT f.payload, d.name FROM fact f JOIN dim d ON f.fk = d.id
"""


def make_session(aqe: bool, **extra):
    conf = {"sql.aqe.enabled": aqe}
    conf.update(extra)
    return SparkSession(SKEW_HOSTS, conf=conf)


def fact_rows(n=120, hot_fraction=0.0, hot_key=7, keys=16):
    rows = []
    hot = int(n * hot_fraction)
    for i in range(hot):
        rows.append((hot_key, f"hot-payload-{i:04d}-" + "x" * 40))
    for i in range(n - hot):
        rows.append((i % keys, f"payload-{i:04d}-" + "y" * 40))
    return rows


def dim_rows(keys=16):
    # wide enough that a filtered dimension is still *estimated* (parent//4)
    # over the conversion threshold even though few rows survive the filter
    return [(i, f"dim-name-{i:03d}-" + "z" * 60) for i in range(keys)]


def run_rows(session, sql):
    result = session.sql(sql).run()
    return sorted(tuple(r.values) for r in result.rows), result


def register(session, fact, dim):
    session.create_dataframe(fact, FACT_SCHEMA).create_or_replace_temp_view("fact")
    session.create_dataframe(dim, DIM_SCHEMA).create_or_replace_temp_view("dim")


def skew_conf():
    return {
        "sql.autoBroadcastJoinThreshold": 1,     # isolate the skew rule
        "sql.shuffle.partitions": 8,
        "sql.local.scan.partitions": 8,
    }


@pytest.fixture
def small_skew(monkeypatch):
    """Skew bounds scaled down to few-hundred-row tables."""
    monkeypatch.setattr(adaptive, "SKEW_FACTOR", 2.0)
    monkeypatch.setattr(adaptive, "SKEW_MIN_BYTES", 4 * 1024)
