"""Cross-system validation on the paper's actual workload queries."""

import pytest

from repro.baselines import BASELINE_FORMAT
from repro.workloads import load_tpcds, q38, q39a, q39b
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES


@pytest.fixture(scope="module")
def q39_env():
    return load_tpcds(5, Q39_TABLES)


@pytest.fixture(scope="module")
def q38_env():
    return load_tpcds(5, Q38_TABLES)


def rows(result):
    return [tuple(r.values) for r in result.rows]


def assert_rows_close(a, b):
    """Equality up to float ulps (parallel stddev merge order varies)."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                assert va == pytest.approx(vb, rel=1e-9)
            else:
                assert va == vb


def test_q39a_results_match_between_systems(q39_env):
    shc = q39_env.new_session().sql(q39a()).run()
    base = q39_env.new_session(BASELINE_FORMAT).sql(q39a()).run()
    assert_rows_close(rows(shc), rows(base))
    assert len(shc.rows) > 0


def test_q39b_is_subset_of_q39a(q39_env):
    session = q39_env.new_session()
    a = rows(session.sql(q39a()).run())
    b = rows(session.sql(q39b()).run())
    assert set(b) <= set(a)
    # q39b additionally requires cov1 > 1.5
    assert all(r[4] > 1.5 for r in b)


def test_q39a_cov_predicate_holds(q39_env):
    for row in q39_env.new_session().sql(q39a()).collect():
        assert row.cov1 > 1
        assert row.cov2 > 1
        assert row.d_moy == 1 and row.d_moy2 == 2


def test_q39a_shc_is_faster_and_shuffles_less(q39_env):
    shc = q39_env.new_session().sql(q39a()).run()
    base = q39_env.new_session(BASELINE_FORMAT).sql(q39a()).run()
    assert shc.seconds < base.seconds
    assert shc.shuffle_bytes < base.shuffle_bytes


def test_q38_count_matches(q38_env):
    shc = q38_env.new_session().sql(q38()).run()
    base = q38_env.new_session(BASELINE_FORMAT).sql(q38()).run()
    assert rows(shc) == rows(base)
    assert shc.rows[0][0] > 0


def test_q38_counts_three_channel_customers(q38_env):
    """Recompute q38's answer directly from the generated data."""
    from repro.workloads.tpcds_gen import TpcdsGenerator, date_sk_range_for_year

    gen = TpcdsGenerator(5)
    lo, hi = date_sk_range_for_year(2001)
    dates = {r[0]: r[1] for r in gen.date_dim()}
    customers = {r[0]: (r[3], r[2]) for r in gen.customer()}

    def channel(rows_, cust_idx):
        return {
            (customers[r[cust_idx]][0], customers[r[cust_idx]][1], dates[r[0]])
            for r in rows_ if lo <= r[0] <= hi
        }

    expected = len(
        channel(gen.store_sales(), 2)
        & channel(gen.catalog_sales(), 2)
        & channel(gen.web_sales(), 2)
    )
    got = q38_env.new_session().sql(q38()).collect()[0][0]
    assert got == expected


def test_environment_reader_sessions_share_data(q39_env):
    s1 = q39_env.new_session()
    s2 = q39_env.new_session(BASELINE_FORMAT)
    count1 = s1.sql("select count(*) from inventory").collect()[0][0]
    count2 = s2.sql("select count(*) from inventory").collect()[0][0]
    assert count1 == count2 > 0


def test_write_results_recorded(q39_env):
    assert set(q39_env.write_results) == set(Q39_TABLES)
    for result in q39_env.write_results.values():
        assert result.rows_written > 0
        assert result.seconds > 0
