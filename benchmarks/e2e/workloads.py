"""The four workloads: what they load, what a cycle runs, how it is judged.

Each workload drives the stack only through its public API
(``repro.workloads.loader`` -> ``repro.sql.session`` -> ``repro.core`` ->
``repro.engine`` -> ``repro.hbase``) and receives nothing but generated
inputs.  Every workload loads the same data set, the generator's canonical
one (``DATA_SEED``, as TPC-DS's dsdgen has one per scale factor); ``seed``
drives what the client sends: the statement parameters, the ingest values
and -- where the statements have no parameters -- a refresh set.  README.md
says why, why each workload exists and what it bypasses.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import Outcome, Step, rows_match

from repro.baselines import BASELINE_FORMAT
from repro.core.conncache import DEFAULT_CONNECTION_CACHE
from repro.core.relation import DEFAULT_FORMAT
from repro.hbase.cluster import clear_cluster_registry
from repro.workloads import queries
from repro.workloads.loader import TpcdsEnvironment, load_tpcds
from repro.workloads.tpcds_gen import (
    DATE_SK_BASE, DAYS_PER_YEAR, NUM_YEARS, TpcdsGenerator,
)
from repro.workloads.tpcds_schema import TABLES

ALL_TABLES = tuple(TABLES)
#: the generator seed of the loaded data set, whatever ``--seed`` is.  Seeding
#: the generator moved the *amount* of work with the seed (sales rows falling
#: in the queried year are binomial: 0.5-0.9 % in simulated seconds between
#: seeds), and the seed may pick which values, never how much work
DATA_SEED = 42

#: every ``sql.*`` feature flag the repo grew, all on (ROADMAP item 3
#: promotes or removes each; unknown conf keys are ignored afterwards)
ALL_FLAGS_CONF = {
    "sql.vectorized.enabled": True,
    "sql.cbo.enabled": True,
    "sql.aqe.enabled": True,
    "sql.view.enabled": True,
}


class Workload:
    """Base: one loaded environment, one session, a fixed statement cycle."""

    name = ""
    why = ""
    #: nominal TPC-DS size (15 GB: the repo's mid-sweep size for its
    #: single-size experiments, and a point on Figure 4's x-axis) and the
    #: tables loaded
    size_gb = 15
    tables: Sequence[str] = ALL_TABLES
    conf: Optional[Dict[str, object]] = None
    #: calibrate between statements too (cycles much longer than the ~50 ms
    #: over which this box's speed shifts)
    calibrate_steps = False
    #: timed cycles per second of ``--seconds``: sized so the timed window
    #: is about that long at the seed commit on the reference box.  Counts,
    #: not durations, are what is fixed -- both sides of a later comparison
    #: do identical work and simulated seconds stay exactly comparable
    cycles_per_second = 1.0
    min_cycles = 16
    #: set-ups per timed run (``setup_s`` is their median): as many as stay
    #: within a few seconds.  A count, not a time budget, because every
    #: set-up also leaves its mark on ``peak_rss_mb``
    setup_repeats = 9
    #: on top of build()'s cold cycle
    warmup_cycles = 1
    #: cycles after which the shape of the statement list repeats
    #: (instrumented legs run whole periods)
    cycle_period = 1
    #: also put the statements through ``serving.QueryServer`` when traced
    serving_probe = False
    #: cycles change nothing, so an instrumented leg may replay the cycles
    #: of another and be compared with it cycle by cycle
    read_only = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.env: Optional[TpcdsEnvironment] = None
        self.session = None
        self.failures: List[str] = []

    # -- set-up ---------------------------------------------------------------
    def build(self) -> None:
        """The program's set-up, timed as ``setup_s``: generate, load,
        compact, open the session, then one cold cycle so lazily built
        state is paid for here and not hidden in the warm-up."""
        self.env = load_tpcds(self.size_gb, self.tables, seed=DATA_SEED)
        self.session = self.env.new_session(conf=self.conf)
        self.prepare_session()
        for step in self.steps(-1):
            self.execute(step)

    def prepare_session(self) -> None:
        """Per-workload set-up statements (ANALYZE, CREATE VIEW)."""

    def teardown(self) -> None:
        """Forget this environment so a rebuilt one does not stack on it."""
        self.session.shutdown()
        DEFAULT_CONNECTION_CACHE.clear()
        clear_cluster_registry()
        self.env = self.session = None

    def prepare_checks(self) -> None:
        """Reference answers; the benchmark's own work, outside ``setup_s``."""

    @property
    def clock(self):
        return self.env.cluster.clock

    def generator(self) -> TpcdsGenerator:
        """The generator of the loaded data set, for expected answers."""
        return TpcdsGenerator(self.size_gb, DATA_SEED)

    def timed_cycles(self, seconds: float) -> int:
        return max(self.min_cycles, round(seconds * self.cycles_per_second))

    # -- the cycle ---------------------------------------------------------------
    def steps(self, index: int) -> List[Step]:
        raise NotImplementedError

    def execute(self, step: Step):
        """Run one step the way a user would; returns the API's own result."""
        if step.kind == "sql":
            return self.session.sql(step.text).run()
        if step.kind == "insert":
            # INSERT runs eagerly inside sql(); the frame holds its summary
            return self.session.sql(step.text)
        if step.kind == "save":
            table, rows = step.payload
            frame = self.session.create_dataframe(rows, TABLES[table].schema())
            return (frame.write.format(DEFAULT_FORMAT)
                    .options(self.env.reader_options(table)).save())
        if step.kind == "compact":
            cluster = self.env.cluster
            for table in step.payload:
                # compaction merges store files only, so flush first or the
                # memstore (where view maintenance writes land) never shrinks
                cluster.flush_table(table)
                cluster.compact_table(table, major=True)
            return None
        raise ValueError(f"unknown step kind {step.kind!r}")

    def outcome(self, step: Step, raw) -> Outcome:
        """Normalise whatever ``execute`` returned for checks and counters."""
        if step.kind == "sql":
            return Outcome(
                rows=[tuple(r.values) for r in raw.rows],
                metrics=dict(raw.metrics.snapshot()),
                stages=list(raw.stages),
                view_events=list(raw.view_events),
            )
        if step.kind == "insert":
            return Outcome(rows=[tuple(r) for r in raw.plan.rows])
        if step.kind == "save":
            return Outcome(rows=[(raw.rows_written,)],
                           metrics=dict(raw.metrics.snapshot()))
        return Outcome(rows=[])

    def note_failure(self, index: int, step: Step, reason: str) -> None:
        self.failures.append(f"cycle {index} {step.label}: {reason}")

    def final_check(self) -> bool:
        """End-of-run consistency check; default: nothing beyond the cycles."""
        return True

    # -- storage accounting --------------------------------------------------
    def user_bytes_written(self, cycles: int) -> int:
        """Bytes of user data ``cycles`` cycles write (0: a read-only cycle)."""
        return 0

    def stored_bytes_per_loaded_byte(self) -> float:
        """Store-file bytes per byte of the user data that was loaded."""
        generator = self.generator()
        user = sum(_user_bytes(row) for table in self.tables
                   for row in generator.rows_for(table))
        stored = sum(self.env.cluster.table_size_bytes(t) for t in self.tables)
        return stored / user

    def _expect(self, expected: Sequence[tuple]) -> Callable[[Outcome], bool]:
        return lambda outcome: rows_match(outcome.rows, expected)


def _user_bytes(row: Sequence[object]) -> int:
    """What the values alone occupy: 4-byte ints, 8-byte doubles, UTF-8."""
    return sum(len(v.encode()) if isinstance(v, str)
               else 8 if isinstance(v, float) else 4 for v in row)


class OlapPaper(Workload):
    """The paper's q39a, q39b, q38 -- Figure 4 -- on the default conf."""

    name = "olap_paper"
    why = ("paper q39a+q39b+q38 at 15 GB, default conf: decode, operators "
           "and shuffle dominate; front end <3%, write path unused")
    calibrate_steps = True
    cycles_per_second = 2.0
    setup_repeats = 3

    _QUERIES = (("q39a", queries.q39a, (0, 1)),
                ("q39b", queries.q39b, (0, 1)),
                ("q38", queries.q38, ()))
    #: the tables the refresh set rewrites, and the share of their rows
    REFRESH_TABLES = ("inventory", "store_sales", "catalog_sales", "web_sales")
    REFRESH_SHARE = 0.01

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected: Dict[str, List[tuple]] = {}

    def prepare_session(self) -> None:
        """The seed's refresh set, written over the loaded fact tables.

        The paper's statements take no parameters, so the data is all the
        seed can reach.  It picks 1 % of each fact table's rows and deals
        their non-key values out among them afresh: same keys, same row
        counts, same bytes, different answers (which customer bought on
        which day, which item was short in which week).
        """
        generator = self.generator()
        for table in self.REFRESH_TABLES:
            rows = generator.rows_for(table)
            key_width = len(TABLES[table].row_key)
            rng = random.Random(f"{self.seed}:refresh:{table}")
            picked = rng.sample(rows, max(2, round(len(rows) * self.REFRESH_SHARE)))
            values = [row[key_width:] for row in picked]
            rng.shuffle(values)
            refreshed = [row[:key_width] + value
                         for row, value in zip(picked, values)]
            self.execute(Step("refresh", "save", payload=(table, refreshed)))
        # settle the stores again, as the loader did after its own writes
        self.execute(Step("settle", "compact", payload=self.REFRESH_TABLES))

    def prepare_checks(self) -> None:
        # the vanilla connector (full scan, no pushdown, no pruning) shares
        # the bytes but none of SHC's read path: an independent referee
        referee = self.env.new_session(BASELINE_FORMAT)
        for label, build_sql, __ in self._QUERIES:
            rows = referee.sql(build_sql()).run().rows
            self.expected[label] = [tuple(r.values) for r in rows]
        referee.shutdown()

    def steps(self, index: int) -> List[Step]:
        return [
            Step(label, "sql", build_sql(),
                 check=self._check(label, order_by))
            for label, build_sql, order_by in self._QUERIES
        ]

    def _check(self, label: str, order_by: Sequence[int]):
        # looked up at check time: build()'s cold cycle runs before the
        # reference answers exist
        return lambda outcome: rows_match(
            outcome.rows, self.expected[label], order_by)


class OlapPaperFlags(OlapPaper):
    """Same data and statements with every ``sql.*`` feature flag on."""

    name = "olap_paper_flags"
    why = ("same data and statements, vectorized+CBO+AQE+views on: batch "
           "operators, CBO planning, AQE barriers; must equal olap_paper "
           "once the flags retire")
    conf = ALL_FLAGS_CONF

    def prepare_session(self) -> None:
        super().prepare_session()
        for table in self.tables:
            self.session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")


class PointLookup(Workload):
    """24 short statements: gets, narrow ranges, BulkGets, two non-key filters."""

    name = "point_lookup"
    why = ("24 short seeded gets/ranges/IN-lists/non-key filters: parse-"
           "to-plan and scheduling dominate, decode and operators idle; a "
           "decode win must not move it")
    #: the four tables its statements read; the rest would only pad set-up
    tables = ("item", "inventory", "customer", "date_dim")
    cycles_per_second = 15.0
    serving_probe = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._items: List[tuple] = []
        self._inventory: Dict[int, List[tuple]] = {}
        self._customers: List[tuple] = []
        self._dates: List[tuple] = []

    def build(self) -> None:
        generator = self.generator()
        self._items = generator.rows_for("item")
        self._customers = generator.rows_for("customer")
        self._dates = generator.rows_for("date_dim")
        self._inventory = {}
        for row in generator.rows_for("inventory"):
            self._inventory.setdefault(row[0], []).append(row)
        super().build()

    def steps(self, index: int) -> List[Step]:
        """Cycle ``index``'s statements and their expected rows.

        Fresh parameters every cycle: what a key costs depends on where it
        sits (a 31-day range inside one store-file block costs 1.76
        simulated s, across a block boundary 1.93), and drawn once per run
        that luck moved a whole run by 1 %; drawn per cycle it averages out
        over the window.  The *shape* never varies: IN keys a third of the
        table apart always sit in three regions, each 31-day range stays
        inside one of date_dim's five.
        """
        rng = random.Random(f"{self.seed}:point_lookup:{index}")
        items, customers, dates = self._items, self._customers, self._dates
        steps: List[Step] = []

        for sk in rng.sample(range(1, len(items) + 1), 8):
            steps.append(Step(
                f"item_get_{sk}", "sql",
                "select i_item_sk, i_item_id, i_category, i_current_price "
                f"from item where i_item_sk = {sk}",
                check=self._expect([(r[0], r[1], r[3], r[5])
                                    for r in items if r[0] == sk])))
        for day in rng.sample(sorted(self._inventory), 4):
            steps.append(Step(
                f"inventory_day_{day}", "sql",
                "select inv_item_sk, inv_warehouse_sk, inv_quantity_on_hand "
                f"from inventory where inv_date_sk = {day}",
                check=self._expect([(r[1], r[2], r[3])
                                    for r in self._inventory[day]])))
        third = len(customers) // 3
        for __ in range(6):
            first = rng.randint(1, third)
            keys = [first, first + third, first + 2 * third]
            steps.append(Step(
                "customer_in_" + "_".join(map(str, keys)), "sql",
                "select c_customer_sk, c_first_name, c_last_name from "
                f"customer where c_customer_sk in ({keys[0]}, {keys[1]}, "
                f"{keys[2]})",
                check=self._expect([(r[0], r[2], r[3])
                                    for r in customers if r[0] in keys])))
        per_region = len(dates) // 5
        for region in rng.sample(range(5), 4):
            lo = DATE_SK_BASE + region * per_region \
                + rng.randint(40, per_region - 80)
            steps.append(Step(
                f"date_range_{lo}", "sql",
                "select d_date_sk, d_date, d_moy from date_dim "
                f"where d_date_sk between {lo} and {lo + 30}",
                check=self._expect([(r[0], r[1], r[3])
                                    for r in dates if lo <= r[0] <= lo + 30])))
        # non-row-key equality: a full scan with a pushed filter today,
        # what a secondary index (ROADMAP item 4) would serve
        probe = rng.choice(customers)
        steps.append(Step(
            "customer_by_id", "sql",
            "select c_customer_sk, c_first_name from customer "
            f"where c_customer_id = '{probe[1]}'",
            check=self._expect([(r[0], r[2])
                                for r in customers if r[1] == probe[1]])))
        probe = rng.choice(customers)
        steps.append(Step(
            "customer_by_name", "sql",
            "select c_customer_sk, c_customer_id from customer "
            f"where c_last_name = '{probe[3]}' and c_first_name = '{probe[2]}'",
            check=self._expect([(r[0], r[1]) for r in customers
                                if r[3] == probe[3] and r[2] == probe[2]])))
        rng.shuffle(steps)
        return steps


DASHBOARD_SQL = (
    "SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
    "sum(inv_quantity_on_hand) AS on_hand, "
    "avg(inv_quantity_on_hand) AS avg_on_hand "
    "FROM inventory GROUP BY inv_date_sk")
VIEW_NAME = "inv_by_date"
VIEW_TABLE = "mv_" + VIEW_NAME


class IngestViews(Workload):
    """Writes beside reads: appends, overwrites, a maintained view, compaction."""

    name = "ingest_views"
    why = ("400-row append + 20-row overwrite + view-answered dashboard, "
           "compaction every 8th cycle: encode, put/WAL/flush, CDC and view "
           "upkeep, which no read workload touches")
    size_gb = 10
    tables = ("inventory", "warehouse")
    conf = {"sql.view.enabled": True}
    cycles_per_second = 10.0
    APPEND_ROWS = 400
    OVERWRITE_ROWS = 20
    COMPACT_EVERY = 8
    cycle_period = COMPACT_EVERY
    read_only = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: last-writer-wins model of the base table: key -> quantity
        self.model: Dict[Tuple[int, int, int], int] = {}
        self._base_days: List[int] = []
        self._items = self._warehouses = 0

    def build(self) -> None:
        generator = self.generator()
        rows = generator.rows_for("inventory")
        self.model = {(r[0], r[1], r[2]): r[3] for r in rows}
        self._base_days = sorted({r[0] for r in rows})
        self._items = generator.num_items
        self._warehouses = generator.num_warehouses
        super().build()

    def prepare_session(self) -> None:
        self.session.sql(
            f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS {DASHBOARD_SQL}")

    def steps(self, index: int) -> List[Step]:
        """Cycle ``index``'s statements; also applies them to the model,
        so every generated cycle must be executed exactly once, in order
        (``-1`` is build()'s cold cycle)."""
        rng = random.Random(f"{self.seed}:ingest:{index}")
        # a fresh snapshot date past the generated range, one per cycle
        day = DATE_SK_BASE + NUM_YEARS * DAYS_PER_YEAR + 1 + index
        appended = [(day, 1 + i // 4, 1 + i % 4, rng.randint(0, 900))
                    for i in range(self.APPEND_ROWS)]
        # one key on each of 20 distinct days: always exactly 20 view
        # groups to recount, whatever the seed
        overwritten = [
            (day_, rng.randint(1, self._items), rng.randint(1, self._warehouses),
             rng.randint(0, 900))
            for day_ in rng.sample(self._base_days, self.OVERWRITE_ROWS)]
        for row in appended + overwritten:
            self.model[row[:3]] = row[3]
        values = ", ".join(str(row) for row in overwritten)
        steps = [
            Step("append", "save", payload=("inventory", appended),
                 check=self._expect([(self.APPEND_ROWS,)])),
            Step("overwrite", "insert",
                 f"INSERT INTO inventory VALUES {values}",
                 check=self._expect([(self.OVERWRITE_ROWS,)])),
            Step("dashboard", "sql", DASHBOARD_SQL,
                 check=self._dashboard_check(self.dashboard_from_model())),
        ]
        if index % self.COMPACT_EVERY == self.COMPACT_EVERY - 1:
            # the repo compacts nothing on its own: without this, store
            # files pile up and cycle cost climbs without bound
            steps.append(Step("compact", "compact",
                              payload=("inventory", VIEW_TABLE)))
        return steps

    def user_bytes_written(self, cycles: int) -> int:
        # four 4-byte ints per inventory row
        return cycles * (self.APPEND_ROWS + self.OVERWRITE_ROWS) * 16

    def dashboard_from_model(self) -> List[tuple]:
        """The dashboard answer, aggregated in plain Python."""
        groups: Dict[int, List[int]] = {}
        for (day, __, __), quantity in self.model.items():
            groups.setdefault(day, []).append(quantity)
        return [(day, len(q), sum(q), sum(q) / len(q))
                for day, q in groups.items()]

    @staticmethod
    def _dashboard_check(expected: List[tuple]):
        def check(outcome: Outcome) -> bool:
            # a silent fall-back to the base plan is a failure here even
            # when the rows are right: the view is what is being measured
            answered_by_view = [e.get("action") for e in outcome.view_events] \
                == ["rewrites"]
            return answered_by_view and rows_match(outcome.rows, expected)
        return check

    def final_check(self) -> bool:
        """View answer, base-plan answer and the model must all agree."""
        expected = self.dashboard_from_model()
        from_view = self.outcome(
            Step("final", "sql"),
            self.session.sql(DASHBOARD_SQL).run())
        plain = self.env.new_session()
        from_base = [tuple(r.values)
                     for r in plain.sql(DASHBOARD_SQL).run().rows]
        plain.shutdown()
        ok = (self._dashboard_check(expected)(from_view)
              and rows_match(from_base, expected))
        if not ok:
            self.failures.append("final: view, base plan and model disagree")
        return ok


WORKLOADS = {w.name: w for w in
             (OlapPaper, OlapPaperFlags, PointLookup, IngestViews)}
