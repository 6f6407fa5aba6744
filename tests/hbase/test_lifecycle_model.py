"""Model-based testing: the hand-over rule against a dict and two multisets.

Hypothesis drives random interleavings of puts, flushes, maintenance,
region moves, splits, merges and server crashes over a four-host cluster
with a CDC subscriber attached, with region replicas drawn on or off.  The
rule under test (docs/fault_tolerance.md, "Hand-over") is that a region's
unflushed edits live in the log of the server that serves it and nowhere
else; what it buys is checked after every step: every acknowledged put is
readable -- through a fresh connection and through one as old as the
cluster, whose cached locations every move, split, merge and crash has
left behind -- and the change feed has delivered nothing twice and nothing
that was not written -- and, once maintenance has run a last time,
everything that was.

The step count comes from the loaded profile (``tests/conftest.py``): a
small fixed budget in tier-1, ten times that in the nightly explore job.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.hbase import ConnectionFactory, Get, Put, Scan
from repro.hbase.cluster import HBaseCluster

HOSTS = ["h1", "h2", "h3", "h4"]
ROWS = [b"r%02d" % i for i in range(12)]

_index = st.integers(0, 11)


class LifecycleModel(RuleBasedStateMachine):
    @initialize(replicas=st.booleans())
    def build(self, replicas):
        self.cluster = HBaseCluster("life", HOSTS)
        self.cluster.create_table("t", ["f"], split_keys=[ROWS[4], ROWS[8]])
        if replicas:
            self.cluster.enable_region_replication(replicas=1)
        #: every (row, value) ever acknowledged -- values are never reused --
        #: and every one the feed has handed over
        self.written = Counter()
        self.delivered = Counter()
        self.cluster.enable_cdc().subscribe(
            "model", ["t"],
            lambda table, cells, fresh: self.delivered.update(
                (c.row, c.value) for c in cells))
        self.latest = {}
        #: a client that never reconnects: what it has cached goes stale
        self.veteran = self._table()

    def teardown(self):
        self.cluster.run_maintenance()
        assert self.delivered == self.written

    def _table(self):
        """The table through a connection with nothing cached."""
        return ConnectionFactory.create_connection(
            self.cluster.configuration()).get_table("t")

    def _region(self, index) -> str:
        locations = self.cluster.region_locations("t")
        return locations[index % len(locations)].region_name

    def _live_servers(self):
        return [s.server_id for s in self.cluster.region_servers.values()
                if s.alive]

    # -- the life of a region ---------------------------------------------------
    @rule(row=st.sampled_from(ROWS))
    def put(self, row):
        value = b"v%d" % len(self.written)
        self.cluster.clock.advance(0.001)   # one timestamp per write
        self._table().put(Put(row).add_column("f", "q", value))
        self.written[(row, value)] += 1
        self.latest[row] = value

    @rule()
    def flush_table(self):
        self.cluster.flush_table("t")

    @rule()
    def run_maintenance(self):
        self.cluster.run_maintenance()

    @rule(region=_index, server=_index)
    def move_region(self, region, server):
        live = self._live_servers()
        self.cluster.active_master.move_region(
            self._region(region), live[server % len(live)])

    @rule(region=_index)
    def split_region(self, region):
        self.cluster.active_master.split_region(self._region(region))

    @precondition(lambda self: len(self.cluster.region_locations("t")) > 1)
    @rule(region=_index)
    def merge_regions(self, region):
        locations = self.cluster.region_locations("t")
        left = region % (len(locations) - 1)
        self.cluster.active_master.merge_regions(
            locations[left].region_name, locations[left + 1].region_name)

    @precondition(lambda self: len(self._live_servers()) > 2)
    @rule(server=_index)
    def kill_region_server(self, server):
        live = self._live_servers()
        self.cluster.kill_region_server(live[server % len(live)])

    # -- what the rule buys -------------------------------------------------------
    @invariant()
    def every_acknowledged_put_is_readable(self):
        sampled = ROWS[len(self.written) % len(ROWS)]
        for table in (self._table(), self.veteran):
            served = {r.row: r.get_value("f", "q")
                      for r in table.scan(Scan())}
            assert served == self.latest
            assert table.get(Get(sampled)).get_value("f", "q") \
                == self.latest.get(sampled)

    @invariant()
    def feed_delivers_only_what_was_written_and_only_once(self):
        assert not self.delivered - self.written


TestLifecycleModel = LifecycleModel.TestCase
TestLifecycleModel.settings = settings(max_examples=40, deadline=None)
