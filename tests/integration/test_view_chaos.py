"""CDC-lag chaos: crashes mid-maintenance must not corrupt a view.

For each pinned seed, a batch of base-table writes lands, a seeded-random
region server is crashed *before* the CDC feed ships the batch (so log
splitting, WAL replay and region reassignment all happen with the change
feed mid-flight), and maintenance then pumps; the second crash takes a
server that has just recovered the first one's regions.  Every edit is in
exactly one log and is flushed before it changes hands
(docs/fault_tolerance.md, "Hand-over"), so the base table loses nothing,
the feed delivers nothing twice, and the view must converge byte-identical
to a fresh recomputation, under every seed -- overwrites included, whose
prior versions the maintainer reads back after WAL replay.
"""

import random

import pytest

from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec
from repro.hbase import ConnectionFactory, Scan
from repro.workloads import load_tpcds
from tests.differential.strategies import CHAOS_SEEDS

VIEW_SQL = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
            "sum(inv_quantity_on_hand) AS on_hand, "
            "avg(inv_quantity_on_hand) AS avg_qty "
            "FROM inventory GROUP BY inv_date_sk")


def rows(result):
    return sorted(tuple(r.values) for r in result.rows)


def put_batch(env, rng, count):
    catalog = HBaseTableCatalog.from_json(
        env.reader_options("inventory")["catalog"])
    codec = RowCodec(catalog)
    table = ConnectionFactory.create_connection(
        env.cluster.configuration()).get_table(catalog.qualified_name)
    # days spread over the loaded range, so every region takes writes
    table.put([codec.encode_row({
        "inv_date_sk": rng.randint(2451000, 2452100),
        "inv_item_sk": rng.randint(1, 4000),
        "inv_warehouse_sk": rng.randint(1, 10),
        "inv_quantity_on_hand": rng.randint(1, 999),
    }) for _ in range(count)])


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_view_converges_after_crash_mid_maintenance(seed):
    rng = random.Random(seed)
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {VIEW_SQL}").run()

    # a batch lands, then a seeded-random server dies before the CDC feed
    # ships it: its WAL history must survive log splitting and reassignment
    put_batch(env, rng, rng.randint(20, 40))
    victim = rng.choice(sorted(env.cluster.region_servers))
    recovered = env.cluster.kill_region_server(victim)
    env.cluster.run_maintenance()

    # more writes after recovery, then the crash that used to lose data:
    # the server that recovered the first victim's written region
    put_batch(env, rng, rng.randint(10, 20))
    second = env.cluster.active_master.assignments[
        next(name for name in recovered if name.startswith("inventory,"))]
    env.cluster.kill_region_server(second)
    env.cluster.run_maintenance()

    answered = session.sql(VIEW_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    fresh = env.new_session().sql(VIEW_SQL).run()
    assert rows(answered) == rows(fresh)
    snapshot = env.cluster.metrics.snapshot()
    assert snapshot["sql.view.maintenance_batches"] >= 1
    assert not snapshot.get("sql.view.invalidations")
    session.shutdown()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_overwrites_swap_after_a_crash_mid_maintenance(seed):
    """Overwrites of loaded rows land, then a server dies before the feed
    ships them: the maintainer's multi-get must find each row's prior
    version in what WAL replay and reassignment left behind, and retract
    exactly that."""
    rng = random.Random(seed)
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {VIEW_SQL}").run()
    catalog = HBaseTableCatalog.from_json(
        env.reader_options("inventory")["catalog"])
    codec = RowCodec(catalog)
    table = ConnectionFactory.create_connection(
        env.cluster.configuration()).get_table(catalog.qualified_name)
    loaded = {}
    for values in codec.decode_rows([(r.row, r.cells) for r in table.scan(Scan())]):
        loaded.setdefault(values["inv_date_sk"], values)
    table.put([codec.encode_row({
        **loaded[day], "inv_quantity_on_hand": rng.randint(1, 999),
    }) for day in rng.sample(sorted(loaded), 20)])
    env.cluster.kill_region_server(
        rng.choice(sorted(env.cluster.region_servers)))
    env.cluster.run_maintenance()

    answered = session.sql(VIEW_SQL).run()
    assert [e["action"] for e in answered.view_events] == ["rewrites"]
    assert rows(answered) == rows(env.new_session().sql(VIEW_SQL).run())
    snapshot = env.cluster.metrics.snapshot()
    assert snapshot["sql.view.delta_rows"] == 20
    assert "sql.view.recounts" not in snapshot
    assert not snapshot.get("sql.view.invalidations")
    session.shutdown()


@pytest.mark.parametrize("replicas, crashes", [(1, 1), (0, 2)])
def test_fresh_rows_are_counted_once_and_kept(replicas, crashes):
    """Ten rows on a new day, then their region's owner dies: a promoted
    replica must not feed them to the view twice, and a second crash (of
    the server that recovered them) must not take them from the table."""
    env = load_tpcds(2, ["inventory"])
    cluster = env.cluster
    session = env.new_session()
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {VIEW_SQL}").run()
    if replicas:
        cluster.enable_region_replication(replicas=replicas)
    catalog = HBaseTableCatalog.from_json(
        env.reader_options("inventory")["catalog"])
    codec = RowCodec(catalog)
    puts = [codec.encode_row({
        "inv_date_sk": 2459999, "inv_item_sk": item,
        "inv_warehouse_sk": 1, "inv_quantity_on_hand": 100 + item,
    }) for item in range(1, 11)]
    ConnectionFactory.create_connection(cluster.configuration()) \
        .get_table(catalog.qualified_name).put(puts)
    cluster.run_maintenance()   # the view has them before anything fails

    for _ in range(crashes):
        owner = cluster.active_master.locate(
            catalog.qualified_name, puts[0].row).server_id
        cluster.kill_region_server(owner)
        cluster.run_maintenance()
        answered = session.sql(VIEW_SQL).run()
        assert [e["action"] for e in answered.view_events] == ["rewrites"]
        assert [r for r in rows(answered) if r[0] == 2459999] \
            == [(2459999, 10, 1055, 105.5)]
        assert rows(answered) == rows(env.new_session().sql(VIEW_SQL).run())
    session.shutdown()


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
def test_stale_window_spans_a_crash(seed):
    """A crash inside the lag window must not let the stale view answer."""
    rng = random.Random(seed)
    env = load_tpcds(2, ["inventory"])
    session = env.new_session()
    session.sql(f"CREATE MATERIALIZED VIEW inv_by_date AS {VIEW_SQL}").run()

    put_batch(env, rng, 15)
    env.cluster.kill_region_server(
        rng.choice(sorted(env.cluster.region_servers)))

    stale = session.sql(VIEW_SQL).run()
    assert [e["action"] for e in stale.view_events] == ["rejected_stale"]
    assert rows(stale) == rows(env.new_session().sql(VIEW_SQL).run())

    env.cluster.run_maintenance()
    caught_up = session.sql(VIEW_SQL).run()
    assert [e["action"] for e in caught_up.view_events] == ["rewrites"]
    assert rows(caught_up) == rows(env.new_session().sql(VIEW_SQL).run())
    session.shutdown()
