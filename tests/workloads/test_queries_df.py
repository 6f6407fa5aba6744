"""DataFrame-API q39 must agree with the SQL form."""

import pytest

from repro.workloads import load_tpcds, q39a, q39b
from repro.workloads.queries_df import q39a_dataframe
from repro.workloads.tpcds_schema import Q39_TABLES


@pytest.fixture(scope="module")
def env():
    return load_tpcds(5, Q39_TABLES)


def close(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if isinstance(va, float):
                assert va == pytest.approx(vb, rel=1e-9)
            else:
                assert va == vb


def test_q39a_dataframe_matches_sql(env):
    session = env.new_session()
    via_sql = [tuple(r.values) for r in session.sql(q39a()).collect()]
    via_df = [tuple(r.values) for r in q39a_dataframe(session).collect()]
    close(via_df, via_sql)
    assert via_sql  # non-degenerate


def test_q39b_dataframe_matches_sql(env):
    session = env.new_session()
    via_sql = [tuple(r.values) for r in session.sql(q39b()).collect()]
    via_df = [tuple(r.values)
              for r in q39a_dataframe(session, cov_threshold=1.5).collect()]
    close(via_df, via_sql)
