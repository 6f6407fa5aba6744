"""Ablation: the connection cache (section V.B.1).

Reproduces the motivation quote: "we decrease the number of connections
created drastically, and greatly improve its performance in the process" --
by running the same scan workload with and without the cache.
"""

import pytest

from repro.bench.harness import SHC_SYSTEM, SystemUnderTest, run_query
from repro.bench.reporting import format_table
from repro.core.catalog import HBaseSparkConf
from repro.workloads.loader import load_tpcds
from repro.workloads.queries import q39a
from repro.workloads.tpcds_schema import Q39_TABLES

from conftest import FIXED_SIZE_GB, write_report

_RESULTS = {}


@pytest.fixture(scope="module")
def conncache_env():
    """A cluster of its own: the cached configuration's first query must
    find the cluster's connection cache empty, and no other bench's queries
    may find the connections this one leaves behind."""
    return load_tpcds(FIXED_SIZE_GB, Q39_TABLES)


@pytest.mark.parametrize("label,options", [
    ("connection cache on", {}),
    ("connection cache off", {HBaseSparkConf.CONNECTION_CACHE: "false"}),
])
def test_conncache(benchmark, conncache_env, label, options):
    system = SystemUnderTest(label, SHC_SYSTEM.format_name,
                             extra_options=options)

    def run():
        # several queries in a row: exactly the repeated-connection pattern;
        # only the first query of the application may pay connection setups
        last = None
        for __ in range(3):
            last = run_query(conncache_env, system, "q39a", q39a(),
                             fresh_application=False)
        return last

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    _RESULTS[label] = result


def test_conncache_report(benchmark):
    def report():
        on = _RESULTS["connection cache on"]
        off = _RESULTS["connection cache off"]
        rows = [
            [label, f"{r.seconds:.1f}s",
             f"{r.metrics.get('shc.connection_setups', 0):.0f}"]
            for label, r in _RESULTS.items()
        ]
        write_report(
            "ablation_conncache",
            format_table(["configuration", "3rd-run latency", "connections created"],
                         rows, "Ablation: SHC connection cache"),
        )
        assert on.metrics.get("shc.connection_setups", 1) < \
            off.metrics.get("shc.connection_setups", 0)
        assert on.seconds < off.seconds


    benchmark.pedantic(report, iterations=1, rounds=1)