"""The client's one scan, ``Table.get_scanner``: paged, billed and resumable.

A referee draws split layouts, where the rows are (memstore, flushed, or
major-compacted -- the last two are read by the slice), scanner caching, a
``[start, stop)`` range and at most one fault, and checks the rows against
the rows written (in order, each exactly once) and a clean scan's bill
against its closed form: ``hbase.rpcs`` is the sum over the regions the
range overlaps of ``max(1, ceil(rows_r / caching))``, and the bytes
returned are the rows' summed sizes.  The crash, stale-meta and filter-fallback cases are pinned
beside it, and ``Table.scan`` is checked against SHC's scan RDD.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.common.faults import (
    FAULT_FILTER,
    FAULT_RPC,
    FAULT_SCAN_STREAM,
    FAULT_STALE_META,
    FaultInjector,
    crash_region_server,
    raise_filter_error,
    raise_stale_meta,
)
from repro.common.metrics import CostLedger
from repro.common.simclock import SimClock
from repro.hbase import ConnectionFactory, Put, Scan
from repro.hbase.cluster import HBaseCluster
from repro.hbase.filters import CompareOp, SingleColumnValueFilter
from repro.hbase.hbytes import Bytes

HOSTS = ["h1", "h2", "h3"]
ROWS = 40
KEYS = [b"r%03d" % i for i in range(ROWS)]


#: where the rows are when the scan runs: in the memstore, flushed to one
#: store file per region, or flushed and major-compacted -- the last two
#: are read by the slice (``Region.scan_rows``)
SETTLED = (None, "flush", "major")


def loaded_table(rows=ROWS, split_keys=(), settled=None):
    """A fresh three-server cluster holding rows ``r000``... with ``f:q``
    set to the row's number, split before each of ``split_keys`` and
    ``settled`` as :data:`SETTLED` names."""
    cluster = HBaseCluster("scanner", HOSTS, clock=SimClock())
    cluster.create_table("t", ["f"], split_keys=sorted(split_keys) or None)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    table.put([Put(b"r%03d" % i).add_column("f", "q", Bytes.from_int(i))
               for i in range(rows)])
    if settled is not None:
        cluster.flush_table("t")
    if settled == "major":
        cluster.compact_table("t", major=True)
    return cluster, table


def at_least(threshold):
    return SingleColumnValueFilter("f", "q", CompareOp.GREATER_OR_EQUAL,
                                   Bytes.from_int(threshold))


def scanned(table, scan, injector=None):
    if injector is not None:
        table.cluster.install_fault_injector(injector)
    ledger = CostLedger()
    rows = [(r.row, r.get_value("f", "q"))
            for r in table.get_scanner(scan, ledger)]
    return rows, ledger.metrics


def closed_form_rpcs(locations, rows, caching, start, stop):
    """Σ over the regions ``[start, stop)`` overlaps of the pages their
    rows fill (an empty region still costs one round trip)."""
    total = 0
    for location in locations:
        if stop is not None and location.start_row >= stop:
            continue
        if location.end_row and location.end_row <= start:
            continue
        in_region = sum(1 for row, __ in rows if location.start_row <= row
                        and (not location.end_row or row < location.end_row))
        total += max(1, -(-in_region // caching))
    return total


FAULTS = {
    "crash": lambda k: (FAULT_SCAN_STREAM, dict(after=k,
                                                action=crash_region_server)),
    "stale_meta": lambda k: (FAULT_STALE_META, dict(action=raise_stale_meta)),
    "rpc": lambda k: (FAULT_RPC, {}),
    "filter": lambda k: (FAULT_FILTER, dict(action=raise_filter_error)),
}


@st.composite
def scanner_cases(draw):
    splits = draw(st.lists(st.sampled_from(KEYS[1:]), max_size=4, unique=True))
    caching = draw(st.integers(1, 7))
    lo = draw(st.integers(0, ROWS - 1))
    hi = draw(st.integers(lo + 1, ROWS))
    start = b"" if lo == 0 else KEYS[lo]
    stop = None if hi == ROWS else KEYS[hi]
    fault = draw(st.sampled_from([None, *FAULTS]))
    threshold = draw(st.integers(0, ROWS) if fault == "filter"
                     else st.none() | st.integers(0, ROWS))
    return (splits, caching, start, stop, fault, draw(st.integers(0, 4)),
            threshold, draw(st.sampled_from(SETTLED)))


@settings(max_examples=150, deadline=None)
@given(scanner_cases())
def test_the_scanner_returns_each_row_once_and_bills_its_closed_form(case):
    splits, caching, start, stop, fault, k, threshold, settled = case
    cluster, table = loaded_table(split_keys=splits, settled=settled)
    locations = table.connection.region_locations("t")
    expected = [(key, Bytes.from_int(i)) for i, key in enumerate(KEYS)
                if key >= start and (stop is None or key < stop)
                and (threshold is None or i >= threshold)]

    def scan():
        s = Scan(start, stop).set_caching(caching)
        return s if threshold is None else s.set_filter(at_least(threshold))

    clean, metrics = scanned(table, scan())
    assert clean == expected
    assert metrics.get("hbase.rpcs") == closed_form_rpcs(
        locations, clean, caching, start, stop)
    row_bytes = sum(cell.heap_size() for r in table.scan(scan())
                    for cell in r.cells)
    assert metrics.get("hbase.bytes_returned") == row_bytes
    assert metrics.get("hbase.network_bytes") == row_bytes

    if fault is None:
        return
    point, rule = FAULTS[fault](k)
    injector = FaultInjector(seed=7)
    injector.inject(point, rate=1.0, times=1, **rule)
    got, metrics = scanned(table, scan(), injector)
    assert got == expected  # no row lost, none repeated, still in order
    counter = "shc.filter_fallbacks" if fault == "filter" else "shc.scan_resumes"
    assert metrics.get(counter) == injector.injected(point)


def test_a_crash_mid_region_costs_no_repeated_page():
    """60 rows over three regions in pages of 5, the first region's server
    crashing before its third page: the scan resumes after the tenth row,
    so it makes the clean scan's 12 RPCs and has 10 rows served twice at
    most (restarting from the first row would make 14 and serve 80)."""
    def listed(table):
        ledger = CostLedger()
        rows = table.scan(Scan().set_caching(5), ledger)
        return [(r.row, r.get_value("f", "q")) for r in rows], ledger.metrics

    cluster, table = loaded_table(60, split_keys=[b"r020", b"r040"])
    clean, clean_metrics = listed(table)
    assert (clean_metrics.get("hbase.rpcs"),
            clean_metrics.get("hbase.rows_returned")) == (12, 60)

    first = table.connection.region_locations("t")[0].region_name
    injector = FaultInjector(seed=1)
    injector.inject(FAULT_SCAN_STREAM, key=first, after=2, times=1,
                    action=crash_region_server)
    cluster.install_fault_injector(injector)
    got, metrics = listed(table)
    assert got == clean
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert metrics.get("hbase.rpcs") == 12
    assert metrics.get("hbase.rows_returned") <= 70


def test_mid_scan_crash_resumes_exactly_once():
    cluster, table = loaded_table(60, split_keys=[b"r020", b"r040"])
    expected, __ = scanned(table, Scan().set_caching(5))

    injector = FaultInjector(seed=11)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    got, metrics = scanned(table, Scan().set_caching(5), injector)

    assert got == expected  # no row lost, none duplicated
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert sum(1 for s in cluster.region_servers.values() if not s.alive) == 1
    assert metrics.get("hbase.retries") >= 1
    assert metrics.get("shc.scan_resumes") >= 1
    assert metrics.get("hbase.backoff_s") > 0
    assert metrics.get("faults.injected") == 1


def test_stale_meta_during_scan_relocates():
    cluster, table = loaded_table(60, split_keys=[b"r020", b"r040"])
    expected, __ = scanned(table, Scan().set_caching(5))

    injector = FaultInjector(seed=5)
    injector.inject(FAULT_STALE_META, rate=1.0, times=2,
                    action=raise_stale_meta)
    got, metrics = scanned(table, Scan().set_caching(5), injector)

    assert got == expected
    assert metrics.get("hbase.retries") >= 2
    assert all(s.alive for s in cluster.region_servers.values())


def test_filter_failure_falls_back_to_client_side():
    cluster, table = loaded_table(60, split_keys=[b"r020", b"r040"])
    only_31 = SingleColumnValueFilter("f", "q", CompareOp.EQUAL,
                                      Bytes.from_int(31))
    expected, baseline = scanned(table, Scan().set_filter(only_31))
    assert expected == [(b"r031", Bytes.from_int(31))]
    assert baseline.get("shc.filter_fallbacks") == 0

    injector = FaultInjector(seed=4)
    injector.inject(FAULT_FILTER, rate=1.0, times=1,
                    action=raise_filter_error)
    got, metrics = scanned(table, Scan().set_filter(only_31), injector)

    assert got == expected  # the filter re-applied on the client
    assert injector.injected(FAULT_FILTER) == 1
    assert metrics.get("shc.filter_fallbacks") >= 1


def test_table_scan_and_the_scan_rdd_return_the_same_rows(linked):
    from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
    from repro.core.coders.base import get_coder
    from repro.core.keys import RowCodec, encode_key_dimension
    from repro.core.relation import DEFAULT_FORMAT
    from repro.sql.functions import col
    from repro.sql.types import IntegerType, StringType, StructField, StructType

    cluster, session = linked
    catalog_json = json.dumps({
        "table": {"namespace": "default", "name": "same"},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "string"},
        },
    })
    options = {
        HBaseTableCatalog.tableCatalog: catalog_json,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
        HBaseSparkConf.CACHED_ROWS: "4",
    }
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    session.create_dataframe([(i, f"v{i}") for i in range(60)], schema) \
        .write.format(DEFAULT_FORMAT).options(options).save()

    lo, hi = 7, 52
    shc = session.read.format(DEFAULT_FORMAT).options(options).load() \
        .filter((col("k") >= lo) & (col("k") < hi)).run()

    catalog = HBaseTableCatalog.from_json(catalog_json)
    coder = get_coder(catalog.table_coder)
    codec = RowCodec(catalog)
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table(catalog.qualified_name)
    scan = Scan(encode_key_dimension(catalog, coder, "k", lo),
                encode_key_dimension(catalog, coder, "k", hi)).set_caching(4)
    direct = codec.decode_rows([(r.row, r.cells) for r in table.scan(scan)])

    assert sorted(tuple(r.values) for r in shc.rows) == \
        [(row["k"], row["v"]) for row in direct] == \
        [(i, f"v{i}") for i in range(lo, hi)]


def test_a_closed_scanner_bills_only_the_pages_it_handed_out():
    """A reader that stops early (a LIMIT) closes the scanner: the region it
    was reading bills the one page of its four it handed out, and the bytes
    of that page's rows; the regions it never reached bill nothing."""
    cluster, table = loaded_table(60, split_keys=[b"r020", b"r040"])
    ledger = CostLedger()
    scanner = table.get_scanner(Scan().set_caching(5), ledger)
    assert next(scanner).row == b"r000"
    assert ledger.metrics.get("hbase.rpcs") == 0  # billed when it ends
    scanner.close()
    assert ledger.metrics.get("hbase.rpcs") == 1
    assert ledger.metrics.get("hbase.rows_returned") == 20  # the server's
    region = cluster.get_region(cluster.region_locations("t")[0].region_name)
    page_bytes = sum(region.scan_rows()[1][:5])
    billed = ledger.metrics.get("hbase.local_ipc_bytes") \
        + ledger.metrics.get("hbase.network_bytes")
    assert billed == page_bytes < ledger.metrics.get("hbase.bytes_returned")
