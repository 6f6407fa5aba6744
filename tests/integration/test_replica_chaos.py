"""Replica failover under the pinned chaos seeds (docs/replication.md).

A region-server crash lands *between* scan result pages while region
replicas are enabled.  The master promotes the caught-up secondary, and
the in-flight resumable scan must fail over to it warm: resuming from the
exact successor of the last yielded row (exactly-once -- rows come back
byte-identical to the fault-free run), paying zero retry backoff, and
recording the failover provenance in the replica counters.

The staleness bound is pinned to 0 so routing is primary-only: the crash
fault point keys on the region name, and a region split across replica
hosts would share one fault schedule between concurrent tasks.
"""

import pytest

from repro.common.faults import (
    FAULT_SCAN_STREAM,
    FaultInjector,
    crash_region_server,
)
from repro.workloads import load_tpcds
from tests.differential.strategies import CHAOS_READER_OPTIONS, CHAOS_SEEDS, rows

QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
         "WHERE ss_quantity > 1")

REPLICA_CONF = {"hbase.read.replica": True,
                "hbase.read.replica.staleness": 0}


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_primary_crash_fails_over_warm_and_exactly_once(seed):
    env = load_tpcds(2, ["store_sales"])
    baseline = env.new_session(extra_options=CHAOS_READER_OPTIONS)
    want = rows(baseline.sql(QUERY).run())
    assert want
    baseline.shutdown()

    chaos_env = load_tpcds(2, ["store_sales"])
    chaos_env.cluster.enable_region_replication(replicas=1)
    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    chaos_env.cluster.install_fault_injector(injector)
    session = chaos_env.new_session(conf=REPLICA_CONF,
                                    extra_options=CHAOS_READER_OPTIONS)
    session.install_fault_injector(injector)
    result = session.sql(QUERY).run()
    session.shutdown()

    # the crash really happened and really killed a server
    assert injector.injected(FAULT_SCAN_STREAM) == 1
    assert sum(1 for s in chaos_env.cluster.region_servers.values()
               if not s.alive) == 1

    # exactly-once: byte-identical rows, no loss, no repeats
    assert rows(result) == want

    # warm failover: the resume went to the promoted secondary without
    # ever entering the backoff/retry path
    assert result.metrics.get("hbase.replica.failovers") == 1.0
    assert result.metrics.get("shc.scan_resumes") == 1.0
    assert result.metrics.get("hbase.backoff_s") == 0.0
    assert result.metrics.get("hbase.retries") == 0.0
    assert chaos_env.cluster.metrics.get("hbase.replica.promotions") >= 1.0


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
def test_cold_failover_still_works_when_no_replica_survives(seed):
    """Same crash, no replicas: the seed's retry/backoff path, unchanged."""
    env = load_tpcds(2, ["store_sales"])
    baseline = env.new_session(extra_options=CHAOS_READER_OPTIONS)
    want = rows(baseline.sql(QUERY).run())
    baseline.shutdown()

    chaos_env = load_tpcds(2, ["store_sales"])
    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_SCAN_STREAM, rate=1.0, after=1, times=1,
                    action=crash_region_server)
    chaos_env.cluster.install_fault_injector(injector)
    session = chaos_env.new_session(extra_options=CHAOS_READER_OPTIONS)
    session.install_fault_injector(injector)
    result = session.sql(QUERY).run()
    session.shutdown()

    assert rows(result) == want
    assert result.metrics.get("hbase.retries") >= 1.0
    assert result.metrics.get("hbase.backoff_s") > 0.0
    assert result.metrics.get("hbase.replica.failovers") == 0.0
