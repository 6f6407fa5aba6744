"""Ablation: HDFS short-circuit locality across a region's lifecycle.

Not a paper table -- the HDFS substrate (DESIGN.md module map) makes HBase's
locality lifecycle measurable: flushes write host-local store files; moving
a region to a non-replica host forces remote block reads; the next major
compaction rewrites the files locally and restores scan speed.
"""

import itertools

import pytest

from repro.bench.reporting import format_table
from repro.common.metrics import CostLedger
from repro.hbase import ConnectionFactory, Put
from repro.hbase.cluster import HBaseCluster

from conftest import write_report

HOSTS = [f"node{i}" for i in range(1, 6)]
_ids = itertools.count(1)
_RESULTS = {}


def build_moved_region():
    cluster = HBaseCluster(f"hdfsloc{next(_ids)}", HOSTS, hdfs_replication=3)
    cluster.create_table("t", ["f"])
    table = ConnectionFactory.create_connection(
        cluster.configuration()).get_table("t")
    for i in range(800):
        table.put(Put(b"r%04d" % i).add_column("f", "q", b"x" * 60))
    cluster.flush_table("t")
    master = cluster.active_master
    region_name = cluster.region_locations("t")[0].region_name
    replica_hosts = {
        h for store in cluster.get_region(region_name).stores.values()
        for f in store.files for h in f.hdfs_file.replica_hosts
    }
    target = next(s for s in cluster.region_servers.values()
                  if s.host not in replica_hosts)
    master.move_region(region_name, target.server_id)
    return cluster, target, region_name


def scan_seconds(server, region_name):
    ledger = CostLedger()
    server.scan(region_name, ledger=ledger)
    return ledger.seconds, ledger.metrics.get("hbase.remote_hdfs_bytes", 0)


def test_locality_lifecycle(benchmark):
    def run():
        cluster, server, region_name = build_moved_region()
        after_move, remote_moved = scan_seconds(server, region_name)
        server.compact_region(region_name, major=True)
        after_compaction, remote_compacted = scan_seconds(server, region_name)
        return after_move, remote_moved, after_compaction, remote_compacted

    after_move, remote_moved, after_compaction, remote_compacted = \
        benchmark.pedantic(run, iterations=1, rounds=1)
    _RESULTS.update({
        "after region move": (after_move, remote_moved),
        "after major compaction": (after_compaction, remote_compacted),
    })


def test_locality_lifecycle_report(benchmark):
    def report():
        rows = [
            [phase, f"{seconds:.2f}s", f"{remote / 1024:.0f}KB"]
            for phase, (seconds, remote) in _RESULTS.items()
        ]
        write_report(
            "ablation_hdfs_locality",
            format_table(["phase", "region scan", "remote HDFS bytes"],
                         rows, "Ablation: HDFS locality across a region move"),
        )
        moved = _RESULTS["after region move"]
        compacted = _RESULTS["after major compaction"]
        assert moved[1] > 0 and compacted[1] == 0
        assert compacted[0] < moved[0]

    benchmark.pedantic(report, iterations=1, rounds=1)
