"""The traced pass: spans from outside, the program's counters, direct probes.

Nothing under ``src/`` knows about this file.  Spans wrap the public calls a
statement decomposes into; counters are read off the ``QueryResult`` /
``WriteResult`` registries and ``StageInfo`` records the program already
returns; probes call one layer's public functions on the loaded tables.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    CalibrationKernel, CycleSample, Outcome, Step, normalise, percentile,
)

from repro.common.metrics import CostLedger, MetricsRegistry
from repro.core.catalog import HBaseTableCatalog
from repro.core.coders import get_coder
from repro.core.keys import decode_rowkey, encode_key_dimension, encode_rowkey
from repro.hbase import ConnectionFactory, Get, Put, Scan
from repro.serving import QueryServer, ServingConfig
from repro.sql.functions import count, sum_
from repro.sql.logical import InsertIntoTable
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.types import IntegerType, StructField, StructType
from repro.workloads.queries import Q39_YEAR
from repro.workloads.tpcds_gen import date_sk_range_for_year
from repro.workloads.tpcds_schema import TABLES

# -- spans ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans: name, start, end, parent, cycle.  One client thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.cycle = 0

    def start(self, name: str) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "cycle": self.cycle,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        })
        self._open.append(span_id)
        return span_id

    def finish(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        if self._open.pop() != span_id:
            raise AssertionError("spans must close innermost first")

    # run_cycles' observer protocol: keep the cycle id current
    def on_outcome(self, index: int, step: Step, outcome: Outcome) -> None:
        pass

    def on_cycle_end(self, index: int) -> None:
        self.cycle = index + 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span_id = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(span_id)

    def seconds_by_name(self) -> Dict[int, Dict[str, float]]:
        """Per cycle: total duration of the spans of each name."""
        out: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            per_cycle = out.setdefault(span["cycle"], {})
            per_cycle[span["name"]] = per_cycle.get(span["name"], 0.0) \
                + span["end"] - span["start"]
        return out

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> its duration minus what its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def to_json(self) -> List[Dict[str, object]]:
        own = self.self_seconds()
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [{
            "id": s["id"], "name": s["name"], "cycle": s["cycle"],
            "parent": s["parent"],
            "start_ms": (s["start"] - origin) * 1000.0,
            "end_ms": (s["end"] - origin) * 1000.0,
            "self_ms": own[s["id"]] * 1000.0,
        } for s in self.spans]


def execute_stepwise(workload, step: Step, recorder: SpanRecorder):
    """``Workload.execute`` taken apart at the layer boundaries.

    For a query this is ``SparkSession.execute_plan`` spelled out with the
    same public calls in the same order, each inside a span; the rows and
    simulated seconds must therefore equal the one-call path's (the caller
    checks).  INSERT keeps its single ``execute_plan`` call (the write job
    has no public seams); writes and compactions get one span each.
    """
    session = workload.session
    span_id = recorder.start("stmt." + step.kind)
    try:
        if step.kind == "save":
            return recorder.call("core.save", workload.execute, step)
        if step.kind == "compact":
            return recorder.call("hbase.compact", workload.execute, step)
        plan = recorder.call("sql.parse", parse, step.text)
        analyzed = recorder.call("sql.analyze", session.analyze, plan)
        if isinstance(plan, InsertIntoTable):
            return recorder.call("sql.execute", session.execute_plan, analyzed)
        stats = session.cbo_stats()
        views = session.view_rewrite_context()
        plan_metrics = MetricsRegistry() \
            if stats is not None or views is not None else None
        if views is not None:
            views.metrics = plan_metrics
        optimized = recorder.call(
            "sql.optimize", optimize, analyzed, conf=session.conf,
            stats=stats, metrics=plan_metrics, views=views)
        planner = Planner(session.conf, cache=session.cache_manager,
                          stats=stats, metrics=plan_metrics)
        physical = recorder.call("sql.plan", planner.plan_query, optimized)
        result = recorder.call("sql.execute", session.execute_physical,
                               physical, extra_metrics=plan_metrics)
        if views is not None:
            result.view_events = views.events
        return result
    finally:
        recorder.finish(span_id)


def stepwise_outcome(workload, step: Step, raw) -> Outcome:
    """Like ``Workload.outcome`` for what ``execute_stepwise`` returns."""
    if step.kind == "insert":
        # execute_plan hands back the QueryResult sql() would have wrapped
        return Outcome(rows=[tuple(r.values) for r in raw.rows],
                       metrics=dict(raw.metrics.snapshot()),
                       stages=list(raw.stages))
    return workload.outcome(step, raw)


SPAN_METRICS = {
    "sql.parse": "sql.parse_norm_ms",
    "sql.analyze": "sql.analyze_norm_ms",
    "sql.optimize": "sql.optimize_norm_ms",
    "sql.plan": "sql.plan_norm_ms",
    "sql.execute": "sql.execute_norm_ms",
    "core.save": "core.save_norm_ms",
    "hbase.compact": "hbase.compact_norm_ms",
}
_FRONTEND_SPANS = ("sql.parse", "sql.analyze", "sql.optimize", "sql.plan")


def span_metrics(recorder: SpanRecorder,
                 samples: Sequence[CycleSample]) -> Dict[str, float]:
    """Per-cycle calibrated time of each span name.

    Medians over the traced cycles, except compaction: it runs every 8th
    cycle, so its per-cycle cost is the mean (the median would be zero).
    """
    by_cycle = recorder.seconds_by_name()
    calib = {s.index: s.calib_s for s in samples}
    series: Dict[str, List[float]] = {name: [] for name in SPAN_METRICS}
    for index, passes in calib.items():
        totals = by_cycle.get(index, {})
        for name in SPAN_METRICS:
            series[name].append(normalise(totals.get(name, 0.0), passes))
    out = {}
    for name, metric in SPAN_METRICS.items():
        values = series[name]
        out[metric] = statistics.fmean(values) if name == "hbase.compact" \
            else statistics.median(values)
    frontend = sum(out[SPAN_METRICS[name]] for name in _FRONTEND_SPANS)
    statements = frontend + out["sql.execute_norm_ms"] + out["core.save_norm_ms"]
    out["sql.frontend_share"] = frontend / statements if statements else 0.0
    return out


# -- the program's own counters ------------------------------------------------------


class CounterCollector:
    """Sums what the program reports about itself over a pass of cycles."""

    def __init__(self, workload) -> None:
        self._workload = workload
        self._cluster = workload.env.cluster
        self._sums: Dict[str, float] = {}
        self._peak_stage_bytes = 0.0
        self._stage_s = {"shuffle-map": 0.0, "result": 0.0}
        self._answer_rows = 0
        self._store_files_max = 0
        self._cycles = 0
        self._cluster_before = dict(self._cluster.metrics.snapshot())
        self._stored_before = self._stored_bytes()

    def _stored_bytes(self) -> int:
        tables = self._cluster.active_master.tables
        return sum(self._cluster.table_size_bytes(t) for t in tables)

    def on_outcome(self, index: int, step: Step, outcome: Outcome) -> None:
        for name, value in outcome.metrics.items():
            if name.startswith("peak."):
                if name == "peak.engine.peak_stage_bytes":
                    self._peak_stage_bytes = max(self._peak_stage_bytes, value)
                continue
            self._sums[name] = self._sums.get(name, 0.0) + value
        for stage in outcome.stages:
            self._stage_s[stage.kind] = self._stage_s.get(stage.kind, 0.0) \
                + stage.duration_s
        if step.kind == "sql":
            self._answer_rows += len(outcome.rows)

    def on_cycle_end(self, index: int) -> None:
        self._cycles += 1
        cluster = self._cluster
        for table in cluster.active_master.tables:
            for location in cluster.region_locations(table):
                region = cluster.get_region(location.region_name)
                for store in region.stores.values():
                    self._store_files_max = max(self._store_files_max,
                                                len(store.files))

    def metrics(self) -> Dict[str, float]:
        """Per-cycle means of the counters, plus the ratios built on them."""
        cycles = max(1, self._cycles)
        total = dict(self._sums)
        # maintenance (CDC shipping, view upkeep, connection set-ups) bills
        # the cluster's registry, not any statement's
        for name, value in self._cluster.metrics.snapshot().items():
            delta = value - self._cluster_before.get(name, 0.0)
            if delta and not name.startswith("peak."):
                total[name] = total.get(name, 0.0) + delta

        def per_cycle(name: str) -> float:
            return total.get(name, 0.0) / cycles

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        visited = total.get("hbase.rows_visited", 0.0)
        returned = total.get("hbase.rows_returned", 0.0)
        cache_hits = total.get("hbase.blockcache.hits", 0.0)
        cache_total = cache_hits + total.get("hbase.blockcache.misses", 0.0)
        pruned = total.get("shc.regions_pruned", 0.0)
        scanned = total.get("shc.regions_scanned", 0.0)
        user_bytes = self._workload.user_bytes_written(cycles)
        out = {
            "hbase.rpcs": per_cycle("hbase.rpcs"),
            "hbase.rows_visited": per_cycle("hbase.rows_visited"),
            "hbase.rows_returned": per_cycle("hbase.rows_returned"),
            "hbase.bytes_scanned": per_cycle("hbase.bytes_scanned"),
            "hbase.bytes_returned": per_cycle("hbase.bytes_returned"),
            # a Get returns a row no scanner visited, and the program counts
            # no Gets: where they outnumber what the scans drop, the two
            # counters are not of a kind and the ratio does not apply
            "hbase.filter_pass_ratio": ratio(returned, visited)
            if returned <= visited else 0.0,
            "hbase.blockcache_hit_ratio": ratio(cache_hits, cache_total),
            "hbase.bytes_written": per_cycle("hbase.bytes_written"),
            "hbase.wal_syncs": per_cycle("hbase.wal_syncs"),
            "hbase.flushes": per_cycle("hbase.flushes"),
            "hbase.store_files_max": float(self._store_files_max),
            "hbase.store_bytes_per_user_byte": ratio(
                self._stored_bytes() - self._stored_before, user_bytes)
            if user_bytes else self._workload.stored_bytes_per_loaded_byte(),
            "hbase.cdc.entries_shipped": per_cycle("hbase.cdc.entries_shipped"),
            "shc.regions_scanned": per_cycle("shc.regions_scanned"),
            "core.prune_ratio": ratio(pruned, pruned + scanned),
            "shc.filters_pushed": per_cycle("shc.filters_pushed"),
            "shc.filters_residual": per_cycle("shc.filters_residual"),
            "shc.cells_decoded": per_cycle("shc.cells_decoded"),
            "shc.cells_encoded": per_cycle("shc.cells_encoded"),
            "shc.connection_setups": per_cycle("shc.connection_setups"),
            "core.scan_usefulness": ratio(self._answer_rows, returned),
            "engine.tasks": per_cycle("engine.tasks"),
            "engine.locality_ratio": ratio(
                total.get("engine.local_tasks", 0.0),
                total.get("engine.tasks", 0.0)),
            "engine.shuffle_write_kb": per_cycle("engine.shuffle_write_bytes") / 1024.0,
            "engine.rows_processed": per_cycle("engine.rows_processed"),
            "engine.peak_stage_mb": self._peak_stage_bytes / (1024.0 * 1024.0),
            "engine.sim_shuffle_map_stage_s": self._stage_s["shuffle-map"] / cycles,
            "engine.sim_result_stage_s": self._stage_s["result"] / cycles,
            "engine.aqe.stages_materialized": per_cycle("engine.aqe.stages_materialized"),
            "engine.vectorized.rows": per_cycle("engine.vectorized.rows"),
            "sql.cbo.reorders_applied": per_cycle("sql.cbo.reorders_applied"),
            "sql.cbo.semijoins_applied": per_cycle("sql.cbo.semijoins_applied"),
            "sql.view.rewrites": per_cycle("sql.view.rewrites"),
            "sql.view.delta_rows": per_cycle("sql.view.delta_rows"),
            "sql.view.recounts": per_cycle("sql.view.recounts"),
        }
        return out


# -- direct probes of one layer's public functions -----------------------------------

PROBE_REPEATS = 7
PROBE_PUT_ROWS = 500
PROBE_GET_KEYS = 64
PROBE_TABLE = "e2e_probe_put"


def _timed_norm(kernel: CalibrationKernel, fn: Callable[[], object],
                prepare: Optional[Callable[[int], object]] = None) -> float:
    """Median calibrated milliseconds of ``fn`` over ``PROBE_REPEATS`` runs.

    ``prepare(repeat)`` runs, untimed, before each of them.
    """
    values = []
    point = kernel.point()
    for repeat in range(PROBE_REPEATS):
        if prepare is not None:
            prepare(repeat)
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        after = kernel.point()
        values.append(normalise(wall, point + after))
        point = after
    return statistics.median(values)


def run_probes(workload, kernel: CalibrationKernel) -> Dict[str, float]:
    """Time single layers on the loaded ``inventory`` table (every workload
    loads it), each against its public API and nothing above it."""
    env = workload.env
    cluster = env.cluster
    catalog = HBaseTableCatalog.from_json(env.catalog_for("inventory"))
    coder = get_coder(catalog.table_coder)
    connection = ConnectionFactory.create_connection(cluster.configuration())
    table = connection.get_table(catalog.qualified_name)
    data_columns = catalog.data_columns()

    # hbase: scan the q39 year range, raw Results, no decode
    lo, hi = date_sk_range_for_year(Q39_YEAR)
    first = catalog.row_key[0]
    scan = Scan(encode_key_dimension(catalog, coder, first, lo),
                encode_key_dimension(catalog, coder, first, hi + 1))
    results = table.scan(scan, CostLedger())
    scan_ms = _timed_norm(kernel, lambda: table.scan(scan, CostLedger()))

    # core: what scan_rdd does per row, on those same Results
    def decode_all() -> int:
        cells = 0
        for result in results:
            decode_rowkey(catalog, coder, result.row)
            for column in data_columns:
                value = result.get_value(column.family, column.qualifier)
                if value is not None:
                    coder.decode(value, column.dtype)
                    cells += 1
        return cells
    decode_ms = _timed_norm(kernel, decode_all)

    rows = workload.generator().rows_for("inventory")
    names = [name for name, __ in TABLES["inventory"].columns]
    sample = rows[:len(results)]

    def encode_all() -> List[Put]:
        puts = []
        for row in sample:
            values = dict(zip(names, row))
            put = Put(encode_rowkey(catalog, coder, values))
            for column in data_columns:
                put.add_column(column.family, column.qualifier,
                               coder.encode(values[column.name], column.dtype))
            puts.append(put)
        return puts
    encode_ms = _timed_norm(kernel, encode_all)
    encoded = encode_all()

    # hbase: point gets and a batched put, client API only
    step = max(1, len(sample) // PROBE_GET_KEYS)
    gets = [Get(put.row) for put in encoded[::step][:PROBE_GET_KEYS]]
    get_ms = _timed_norm(
        kernel, lambda: [table.get(g, CostLedger()) for g in gets])
    if not cluster.has_table(PROBE_TABLE):
        cluster.create_table(PROBE_TABLE, catalog.families())
    scratch = connection.get_table(PROBE_TABLE)
    puts = encoded[:PROBE_PUT_ROWS]
    put_ms = _timed_norm(kernel, lambda: scratch.put(puts, CostLedger()))

    out = {
        "hbase.scan_norm_us_per_row": scan_ms * 1000.0 / len(results),
        "hbase.get_norm_us": get_ms * 1000.0 / len(gets),
        "hbase.put_norm_us_per_row": put_ms * 1000.0 / len(puts),
        "core.decode_norm_us_per_row": decode_ms * 1000.0 / len(results),
        "core.encode_norm_us_per_row": encode_ms * 1000.0 / len(sample),
        "hbase.cdc_pump_norm_ms": _probe_cdc_pump(workload, kernel, table,
                                                  catalog, coder),
        "engine.local_agg_norm_ms": _probe_local_agg(workload, kernel),
    }
    connection.close()
    return out


def _probe_cdc_pump(workload, kernel, table, catalog, coder) -> float:
    """Client puts the CDC feed must ship, then ``run_maintenance()``.

    Zero where no CDC stream exists (every workload but ``ingest_views``).
    The puts rewrite existing keys with the value they already hold, so the
    view recounts those groups and the table's contents do not change.
    """
    cluster = workload.env.cluster
    if cluster.cdc is None:
        return 0.0
    column = catalog.column("inv_quantity_on_hand")
    keys = sorted(workload.model)

    def put_changes(repeat: int) -> None:
        puts = []
        for key in keys[repeat::len(keys) // 20][:20]:
            row = encode_rowkey(catalog, coder, dict(zip(catalog.row_key, key)))
            puts.append(Put(row).add_column(
                column.family, column.qualifier,
                coder.encode(workload.model[key], column.dtype)))
        table.put(puts, CostLedger())
    return _timed_norm(kernel, cluster.run_maintenance, prepare=put_changes)


def _probe_local_agg(workload, kernel) -> float:
    """A group-by over driver-local rows: operators and shuffle, no HBase."""
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", IntegerType)])
    rows = [(i % 97, i) for i in range(20_000)]
    session = workload.session

    def aggregate():
        frame = session.create_dataframe(rows, schema)
        return frame.group_by("k").agg(sum_("v"), count("v")).run()
    if len(aggregate().rows) != 97:
        raise AssertionError("local aggregation probe returned wrong groups")
    return _timed_norm(kernel, aggregate)


# -- serving probe --------------------------------------------------------------------

SERVING_TENANTS = ("alpha", "beta", "gamma")
SERVING_SLOTS_PER_QUERY = 2
SERVING_CYCLES = 4
SERVING_LOAD = 2.0
ZERO_SERVING = {
    "serving.sim_latency_s_p50": 0.0, "serving.sim_latency_s_p99": 0.0,
    "serving.goodput_ratio": 0.0, "serving.shed_share": 0.0,
    "serving.queue_wait_s": 0.0,
}


def run_serving_probe(workload) -> Tuple[Dict[str, float], int]:
    """A fixed burst through ``QueryServer`` at 2x capacity, simulated time.

    Returns the metrics and the number of queries they were read off.

    Capacity is measured first, the way the front door will run queries: on
    a leased two-slot bulkhead.  No wall-clock number comes out of this --
    the served path hands each query across threads, and that hand-off
    alone moved its wall time 3x between identical runs.
    """
    session = workload.session
    statements = [step.text for step in workload.steps(0)]
    lease = session.cluster.slots()[:SERVING_SLOTS_PER_QUERY]
    seconds = [session.execute_plan(session.sql(text).plan, slots=lease).seconds
               for text in statements]
    concurrent = len(session.cluster.slots()) // SERVING_SLOTS_PER_QUERY
    capacity_qps = concurrent / statistics.fmean(seconds)

    server = QueryServer(session, config=ServingConfig(
        max_queue_depth=8, slots_per_query=SERVING_SLOTS_PER_QUERY))
    server.register_tenant("alpha", weight=2.0, reserved_slots=2)
    server.register_tenant("beta", weight=1.0)
    server.register_tenant("gamma", weight=1.0)
    interarrival = 1.0 / (capacity_qps * SERVING_LOAD)
    burst = statements * SERVING_CYCLES
    tickets = [
        server.submit(text, tenant=SERVING_TENANTS[i % len(SERVING_TENANTS)],
                      at=i * interarrival)
        for i, text in enumerate(burst)
    ]
    server.drain()
    done = [t for t in tickets if t.status == "completed"]
    shed = [t for t in tickets if t.status == "shed"]
    if len(done) + len(shed) != len(tickets) or not done:
        raise AssertionError("serving probe: queries failed outright")
    horizon = max(t.finish_s for t in tickets)
    latencies = [t.latency_s for t in done]
    return {
        "serving.sim_latency_s_p50": percentile(latencies, 50),
        "serving.sim_latency_s_p99": percentile(latencies, 99),
        "serving.goodput_ratio": len(done) / horizon / capacity_qps,
        "serving.shed_share": len(shed) / len(tickets),
        "serving.queue_wait_s": server.metrics.get("serving.queue_wait_s"),
    }, len(tickets)
