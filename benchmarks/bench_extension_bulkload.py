"""Extension bench: Put-based ingestion vs HFile bulk load.

Not a paper table -- HBase deployments at the paper's scale routinely ingest
via bulk-loaded HFiles instead of Puts; the HBaseContext implements both, so
this bench quantifies the WAL+memstore tax that bulk load avoids.
"""

import itertools

import pytest

from repro.core.hbase_context import HBaseContext
from repro.bench.reporting import format_table
from repro.engine.rdd import ParallelCollectionRDD
from repro.hbase.cell import Cell
from repro.hbase.client import Put
from repro.hbase.cluster import HBaseCluster
from repro.hbase.hbytes import Bytes
from repro.sql.session import SparkSession

from conftest import write_report

HOSTS = ["node1", "node2", "node3", "node4", "node5"]
SIZES = (2_000, 8_000)
_ids = itertools.count(1)
_RESULTS = {}


def ingest(mode: str, rows: int) -> float:
    cluster = HBaseCluster(f"ingest{next(_ids)}", HOSTS)
    session = SparkSession(HOSTS, executors_requested=5, clock=cluster.clock)
    split_keys = [Bytes.from_int(i * rows // 5) for i in range(1, 5)]
    cluster.create_table("ingest", ["f"], split_keys=split_keys)
    ctx = HBaseContext(session, cluster.quorum)
    data = [(Bytes.from_int(i), i) for i in range(rows)]
    rdd = ParallelCollectionRDD(data, 10)
    scheduler = session.new_scheduler()
    if mode == "puts":
        def to_put(pair):
            return Put(pair[0]).add_column("f", "q", Bytes.from_int(pair[1]))

        def work(partition_rows, task_ctx):
            connection, conf = ctx._acquire(task_ctx)
            try:
                table = connection.get_table("ingest")
                table.put([to_put(p) for p in partition_rows], task_ctx.ledger)
                yield 1
            finally:
                ctx._release(conf)

        job = scheduler.run_job(rdd.map_partitions(work))
    else:
        def to_cells(pair):
            return [Cell(pair[0], "f", "q", 1, Bytes.from_int(pair[1]))]

        from repro.hbase.hfile import StoreFile

        def work(partition_rows, task_ctx):
            cells = [c for p in partition_rows for c in to_cells(p)]
            by_region = {}
            for cell in cells:
                for location in cluster.region_locations("ingest"):
                    region = cluster.get_region(location.region_name)
                    if region.contains_row(cell.row):
                        by_region.setdefault(location.region_name, []).append(cell)
                        break
            for region_name, group in by_region.items():
                region = cluster.get_region(region_name)
                store_file = StoreFile(sorted(group, key=Cell.sort_key))
                region.stores["f"].files.append(store_file)
                task_ctx.ledger.charge(
                    store_file.size_bytes / session.cost.write_bytes_per_sec,
                    "hbase.bulkload_bytes", store_file.size_bytes,
                )
            yield 1

        job = scheduler.run_job(rdd.map_partitions(work))
    return job.seconds


@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("mode", ["puts", "bulkload"])
def test_ingestion(benchmark, rows, mode):
    seconds = benchmark.pedantic(lambda: ingest(mode, rows),
                                 iterations=1, rounds=1)
    _RESULTS[(mode, rows)] = seconds
    benchmark.extra_info["simulated_seconds"] = seconds


def test_ingestion_report(benchmark):
    def report():
        headers = ["mode"] + [f"{r} rows" for r in SIZES]
        rows_out = [
            [mode] + [f"{_RESULTS[(mode, r)]:.1f}s" for r in SIZES]
            for mode in ("puts", "bulkload")
        ]
        write_report(
            "extension_bulkload",
            format_table(headers, rows_out,
                         "Extension: Put ingestion vs HFile bulk load"),
        )
        for r in SIZES:
            assert _RESULTS[("bulkload", r)] < _RESULTS[("puts", r)]

    benchmark.pedantic(report, iterations=1, rounds=1)
