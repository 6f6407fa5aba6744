"""Shared fixtures: isolated clusters/sessions per test, clean credentials."""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.simclock import SimClock
from repro.core.credentials import DEFAULT_CREDENTIALS_MANAGER
from repro.hbase.cluster import HBaseCluster
from repro.hbase.security import KeytabStore
from repro.sql.session import SparkSession

# tier-1 is a deterministic budget: examples derive from each test's own
# source instead of a fresh seed per run, and no example database carries
# state from one run to the next.  The nightly hypothesis-explore job sets
# HYPOTHESIS_PROFILE=explore to keep searching off the merge path; a state
# machine that leaves its step count to the profile runs ten times as long
# there, so the nightly run is a search and not a replay.
settings.register_profile("tier1", derandomize=True, database=None,
                          stateful_step_count=40)
settings.register_profile("explore", print_blob=True,
                          stateful_step_count=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

_ids = itertools.count(1)

HOSTS = ["node1", "node2", "node3"]


@pytest.fixture(autouse=True)
def _clean_registries():
    """Every test sees empty token and keytab registries, the two stores
    that stay process-wide.  Connections need no cleaning: each cluster
    owns its cache, and the quorum registry keeps no cluster alive."""
    DEFAULT_CREDENTIALS_MANAGER.clear()
    KeytabStore.clear()
    yield
    DEFAULT_CREDENTIALS_MANAGER.clear()
    KeytabStore.clear()


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def hbase_cluster(clock):
    """A three-host HBase cluster."""
    return HBaseCluster(f"test{next(_ids)}", HOSTS, clock=clock)


@pytest.fixture
def session(clock):
    """A three-host compute session sharing the cluster's clock."""
    return SparkSession(HOSTS, executors_requested=3, clock=clock)


@pytest.fixture
def linked(clock):
    """(cluster, session) wired to the same clock -- the common setup."""
    cluster = HBaseCluster(f"test{next(_ids)}", HOSTS, clock=clock)
    return cluster, SparkSession(HOSTS, executors_requested=3, clock=clock)
