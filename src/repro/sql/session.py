"""The SparkSession-like entry point tying the SQL layer to the engine.

A session owns a compute cluster (hosts + executors granted by the YARN-like
resource manager), the temp-view catalog and the session configuration.
Every way of running a statement -- ``execute_plan``, ``DataFrame.explain``,
``submit_sql`` (Table I's "Thread pool" row), the serving front door, the
write paths -- plans through ``plan_query`` and executes through
``execute_physical``, on the calling thread, so what is explained is what
runs and a rerun reproduces it.  Text arrives through ``sql`` and its
bounded cache of optimized plans (docs/caching.md, "Plan cache").
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.cost import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import AnalysisError
from repro.common.metrics import MetricsRegistry
from repro.common.simclock import SimClock
from repro.common.tracing import NOOP_SPAN, Span
from repro.engine.cluster import ComputeCluster, YarnResourceManager
from repro.engine.scheduler import StageInfo, TaskScheduler
from repro.sql.analyzer import Analyzer, Catalog
from repro.sql.cbo import estimator_for, statistics_decide
from repro.sql.dataframe import DataFrame
from repro.sql.fingerprint import (
    BoundPlan, CachedPlan, PlanCache, bind_plan, bind_slots, statement_shape,
)
from repro.sql.logical import (
    AnalyzeTable, CreateMaterializedView, DropMaterializedView, DropView,
    ExplainStatement, InsertIntoTable, Join, LocalRelation, LogicalPlan,
    LogicalRelation, RefreshMaterializedView, ShowMaterializedViews,
    ShowTables, UnresolvedRelation,
)
from repro.sql.optimizer import optimize
from repro.sql.parser import Parser, bind_parameters, tokenize
from repro.sql.physical import ExecContext, PhysicalPlan
from repro.sql.planner import Planner
from repro.sql.row import Row
from repro.sql.sources import lookup_provider
from repro.sql.stats import StatsStore, stats_key
from repro.sql.types import StructType, type_from_name


@dataclass
class PlannedQuery:
    """What ``SparkSession.plan_query`` made of one analyzed logical plan."""

    optimized: LogicalPlan
    physical: PhysicalPlan
    #: planning-time CBO/view counters (reorders, estimates, rewrites) that
    #: ride into the query's registry; None when the plan's tables have no
    #: statistics and the session no views
    metrics: Optional[MetricsRegistry] = None
    #: materialized-view rewrite decisions, in match order
    view_events: List[Dict[str, object]] = field(default_factory=list)
    #: the plan cache's verdict for EXPLAIN ("hit, 1 slots; optimized
    #: afresh (statistics)"); None for a frame not made by ``sql()``
    plan_cache: Optional[str] = None


@dataclass
class QueryResult:
    """Rows plus the simulated cost of producing them."""

    rows: List[Row]
    schema: StructType
    seconds: float
    metrics: MetricsRegistry
    stages: List[StageInfo] = field(default_factory=list)
    wall_clock_s: float = 0.0
    #: per-operator facts keyed by PhysicalPlan.op_id (always on); an
    #: operator's numbers are ``metrics.for_op(op_id)``
    operator_stats: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: root Span of the query trace, or None when tracing was disabled
    trace: Optional[Span] = None
    #: what each AdaptiveJoinExec decided at its stage barriers, in decision
    #: order; empty when the plan has none (static planning, the default)
    reopt_events: List[Dict[str, object]] = field(default_factory=list)
    #: front-door admission record stamped by the serving layer (tenant,
    #: queue wait, breaker state, leased slots); None for direct runs --
    #: see docs/serving.md and the EXPLAIN ANALYZE serving section
    serving: Optional[Dict[str, object]] = None
    #: materialized-view rewrite decisions, in match order; empty when no view was considered -- see docs/views.md and
    #: the EXPLAIN ANALYZE "Materialized Views" section
    view_events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def shuffle_bytes(self) -> float:
        return self.metrics.get("engine.shuffle_write_bytes")

    @property
    def peak_memory_bytes(self) -> float:
        return self.metrics.peak("engine.peak_stage_bytes")


@dataclass
class WriteResult:
    """Outcome of a DataFrame write."""

    rows_written: int
    seconds: float
    metrics: MetricsRegistry


DEFAULT_CONF: Dict[str, object] = {
    "sql.shuffle.partitions": 8,
    # per-query span-tree tracing (docs/observability.md); off by default so
    # the hot path runs against the no-op recorder
    "tracing.enabled": False,
    "sql.autoBroadcastJoinThreshold": 128 * 1024,
    # join planning (docs/adaptive.md): False is the paper's static Spark 2
    # planning, which fixes every join strategy from size estimates; True
    # plans a non-broadcast equi-join as an AdaptiveJoinExec, which settles
    # its strategy from measured shuffle sizes.  An option, not a default:
    # each wins somewhere, and the paper's SparkSQL baseline is the static one
    "sql.aqe.enabled": False,
    # partitions for driver-local (VALUES / createDataFrame) scans
    "sql.local.scan.partitions": 2,
    # materialized views (docs/views.md): CREATE MATERIALIZED VIEW is the
    # opt-in -- a session that never creates a view plans and costs exactly
    # as if the feature did not exist.  This is the maximum CDC lag
    # (simulated seconds of unshipped WAL tail) a view may carry and still
    # answer queries; 0.0 = only fully caught-up views
    "sql.view.staleness": 0.0,
}


#: keys (statement shapes and their plans) the plan cache holds, LRU
PLAN_CACHE_CAPACITY = 256


class SparkSession:
    """One application context."""

    def __init__(
        self,
        hosts: Sequence[str],
        executors_requested: int = 5,
        cores_per_executor: int = 2,
        cost_model: Optional[CostModel] = None,
        clock: Optional[SimClock] = None,
        conf: Optional[Dict[str, object]] = None,
        resource_manager: Optional[YarnResourceManager] = None,
    ) -> None:
        self.cost = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.clock = clock if clock is not None else SimClock()
        self.conf: Dict[str, object] = dict(DEFAULT_CONF)
        if conf:
            self.conf.update(conf)
        self.cluster = ComputeCluster(
            hosts, executors_requested, cores_per_executor, resource_manager
        )
        self.catalog = Catalog()
        self._analyzer = Analyzer(self.catalog)
        #: ANALYZE statistics catalog (docs/optimizer.md): what ANALYZE TABLE
        #: collected or a query hydrated from a table's persisted attribute
        self.stats = StatsStore()
        #: optional FaultInjector for engine-side fault points; None = off
        self.faults = None
        #: always None; ROADMAP item 1(b) deletes it with benchmarks/e2e
        self.cache_manager = None
        #: lazy ViewManager (docs/views.md); stays None until the first
        #: view statement, so view-free sessions never touch the module
        self._view_manager = None
        #: session-level counters (``sql.plancache.*``), in no query's ledger
        self.metrics = MetricsRegistry()
        #: the plan cache, and the (temp-view generation, conf contents) its
        #: plans were made under: they die when either moves
        self._plan_cache = self._plan_cache_stamp = None

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.common.faults.FaultInjector` (None removes it).

        Covers the engine fault point (shuffle fetches) of schedulers
        created *after* the call; substrate faults are installed
        separately via ``HBaseCluster.install_fault_injector``.
        """
        self.faults = injector

    # -- plan plumbing ------------------------------------------------------------
    def analyze(self, plan: LogicalPlan) -> LogicalPlan:
        return self._analyzer.analyze(plan)

    def new_scheduler(self, trace=NOOP_SPAN, slots=None,
                      queued_s: float = 0.0) -> TaskScheduler:
        return TaskScheduler(
            self.cluster, self.cost,
            trace=trace,
            slots=slots,
            queued_s=queued_s,
            faults=self.faults,
        )

    # -- data ingestion --------------------------------------------------------------
    def create_dataframe(self, data: Sequence[tuple], schema: StructType):
        return DataFrame(self, LocalRelation(schema, data))

    createDataFrame = create_dataframe

    @property
    def read(self) -> "DataFrameReader":
        return DataFrameReader(self)

    def table(self, name: str):
        return DataFrame(self, UnresolvedRelation(name))

    # -- SQL ---------------------------------------------------------------------------
    def sql(self, text: str, params: Sequence[object] = ()):
        """The DataFrame of one statement; ``params`` fill its ``?`` tokens.

        Lexed once; a SELECT is looked up in the plan cache by shape
        (docs/caching.md, "Plan cache").  A hit parses and analyzes nothing;
        a miss parses with bind slots, analyzes, optimizes without cost and
        stores.  ``plan_query`` alone decides whether the cached
        optimization is reused.  Commands are never cached."""
        tokens = tokenize(text)
        if params or "?" in text:
            bind_parameters(tokens, params)
        if tokens[0].kind == "keyword" and tokens[0].text != "select":
            return self._command(tokens, text)
        if (self.catalog.generation, self.conf) != self._plan_cache_stamp:
            self._plan_cache = PlanCache(PLAN_CACHE_CAPACITY, self.metrics)
            self._plan_cache_stamp = (self.catalog.generation, dict(self.conf))
        cache, metrics = self._plan_cache, self.metrics
        shape = statement_shape(tokens)
        pinned = cache.get(shape)
        values = [t.value for t in tokens]
        if pinned is not None:
            entry = cache.get((shape, pinned, tuple([values[i] for i in pinned])))
            if entry is not None:
                metrics.incr("sql.plancache.hits")
                return DataFrame(self, BoundPlan(entry, values, "hit"))
        analyzed = self.analyze(Parser(tokens, slots=True).parse_query())
        metrics.incr("sql.plancache.misses")
        optimized = optimize(analyzed)  # plan_query's call: no views, no cost
        # a slot no rule read or dropped is a parameter; the others' values
        # join the key, at every position ever pinned for this shape
        slots = {s.index for s in bind_slots(optimized) if not s.read}
        pinned = tuple(sorted(set(pinned or ()).union(
            i for i, v in enumerate(values) if v is not None and i not in slots)))
        summary = f"{len(slots)} slots"
        if pinned:
            metrics.incr("sql.plancache.pinned")
            summary += "; pinned: " + ", ".join(dict.fromkeys(  # named by
                next(t.text.upper() for t in tokens[i::-1]  # the keyword before
                     if t.kind == "keyword") for i in pinned))
        entry = CachedPlan(analyzed, optimized, summary, bool(
            analyzed.collect_nodes(lambda n: isinstance(n, Join))))
        cache.put(shape, pinned)
        cache.put((shape, pinned, tuple([values[i] for i in pinned])), entry)
        return DataFrame(self, BoundPlan(entry, values, "miss"))

    def _command(self, tokens, text: str):
        """A statement that is not a SELECT: parsed and run as is."""
        self.metrics.incr("sql.plancache.uncacheable")
        plan = Parser(tokens).parse_query()
        if isinstance(plan, AnalyzeTable):
            return self.analyze_table(plan.name)
        if isinstance(plan, (CreateMaterializedView, DropMaterializedView,
                             RefreshMaterializedView, ShowMaterializedViews)):
            return self._view_statement(plan, text)
        if isinstance(plan, ShowTables):
            schema = StructType().add("tableName", type_from_name("string"))
            names = [(name,) for name in self.catalog.names()]
            return DataFrame(self, LocalRelation(schema, names))
        if isinstance(plan, DropView):
            self.catalog.drop(plan.name)
            schema = StructType().add("dropped", type_from_name("string"))
            return DataFrame(self, LocalRelation(schema, [(plan.name,)]))
        if isinstance(plan, ExplainStatement):
            inner = DataFrame(self, plan.children[0])
            schema = StructType().add("plan", type_from_name("string"))
            lines = [(line,) for line in inner.explain().splitlines()]
            return DataFrame(self, LocalRelation(schema, lines))
        if isinstance(plan, InsertIntoTable):
            # DML runs eagerly, like Spark commands; the returned DataFrame
            # carries the rows-written count
            result = self.execute_plan(self.analyze(plan))
            rows = [tuple(r.values) for r in result.rows]
            return DataFrame(self, LocalRelation(result.schema, rows))
        return DataFrame(self, plan)

    # -- materialized views (docs/views.md) --------------------------------------
    @property
    def views(self):
        """The session's view manager, created on first use."""
        if self._view_manager is None:
            from repro.sql.views import ViewManager

            self._view_manager = ViewManager(self)
        return self._view_manager

    def view_rewrite_context(self):
        """Per-query rewrite state, or None when views cannot apply.

        None is the common case -- no view statement ever ran in this
        session -- and keeps the planning path allocation-identical to a
        build without views.
        """
        if self._view_manager is None:
            return None
        from repro.sql.views import build_rewrite_context

        return build_rewrite_context(self)

    def _view_statement(self, plan, text: str):
        """Run one of the eager MATERIALIZED VIEW statements."""
        if isinstance(plan, CreateMaterializedView):
            schema, rows, metrics = self.views.create(
                plan.name, plan.children[0], text)
        elif isinstance(plan, RefreshMaterializedView):
            schema, rows, metrics = self.views.refresh(plan.name)
        elif isinstance(plan, DropMaterializedView):
            schema, rows, metrics = self.views.drop(plan.name)
        else:
            schema, rows, metrics = self.views.show()
        return DataFrame(self, LocalRelation(schema, rows),
                         pending_metrics=metrics)

    def analyze_table(self, name: str):
        """``ANALYZE TABLE name COMPUTE STATISTICS``: scan once, keep stats.

        The collection scan pays the normal simulated cost (it is a real
        query over the table).  Stats land in the session's
        :class:`~repro.sql.stats.StatsStore` under the leaf's durable
        identity, and -- for HBase-backed tables -- are persisted alongside
        the table's schema metadata so later sessions start warm.  ``name``
        is a table or a temp view that *is* one (a plain relation, local
        rows); statistics are kept per table, so a view over a query is
        refused with the tables to ANALYZE instead.
        """
        from repro.sql.stats import compute_table_stats, persist_relation_stats

        analyzed = self.analyze(UnresolvedRelation(name))
        key = stats_key(analyzed)
        if key is None:
            raise AnalysisError(
                f"ANALYZE TABLE takes a table or a view that is a plain "
                f"relation; {name!r} is a view over a query -- ANALYZE the "
                f"tables it reads instead: "
                f"{', '.join(self._tables_read_by(analyzed))}"
            )
        result = self.execute_plan(analyzed)
        stats = compute_table_stats(
            [tuple(r.values) for r in result.rows], result.schema
        )
        # the collection scan's ledger rides onto the summary row the
        # statement returns, so ANALYZE's cost and counters are observable
        collected = MetricsRegistry()
        collected.merge(result.metrics)
        collected.incr("sql.cbo.stats_collected", len(stats.columns))
        persisted = False
        for leaf in analyzed.collect_nodes(
                lambda n: isinstance(n, LogicalRelation)):
            # baseline for the staleness check: the source's own size, the
            # same number a later session will compare against
            stats.source_bytes = leaf.relation.size_in_bytes()
            persisted = persist_relation_stats(leaf, stats)
        self.stats.put(key, stats)
        schema = (
            StructType()
            .add("table", type_from_name("string"))
            .add("row_count", type_from_name("bigint"))
            .add("columns_analyzed", type_from_name("bigint"))
            .add("persisted", type_from_name("boolean"))
        )
        rows = [(name, stats.row_count, len(stats.columns), persisted)]
        return DataFrame(self, LocalRelation(schema, rows), pending_metrics=collected)

    def _tables_read_by(self, analyzed: LogicalPlan) -> List[str]:
        """One ANALYZE-able name per leaf of ``analyzed``."""
        leaf_types = (LogicalRelation, LocalRelation)
        registered: Dict[Optional[str], str] = {}
        for table in self.catalog.names():
            plan = self.catalog.lookup(table)
            # a table's own name wins over a SELECT * alias of it
            if isinstance(plan, leaf_types) or stats_key(plan) not in registered:
                registered[stats_key(plan)] = table

        def name_of(leaf: LogicalPlan) -> str:
            if stats_key(leaf) in registered:
                return registered[stats_key(leaf)]
            # read through a DataFrame that was never given a name
            source = getattr(getattr(leaf, "relation", None), "catalog", None)
            return (f"{getattr(source, 'qualified_name', leaf.describe())} "
                    f"(register it as a temp view first)")

        return sorted({name_of(leaf) for leaf in analyzed.collect_nodes(
            lambda n: isinstance(n, leaf_types))})

    def submit_sql(self, text: str) -> "Future[QueryResult]":
        """Run a SQL query and hand back its already-resolved ``Future``.

        The query runs inline, exactly as ``sql(text).run()`` would: under
        the GIL a worker thread bought no overlap and cost determinism.  A
        failure is captured on the future, so it surfaces at ``.result()``
        as it would from an executor.
        """
        future: "Future[QueryResult]" = Future()
        try:
            future.set_result(self.sql(text).run())
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self) -> None:
        """Release the plan cache, the one store a session keeps.

        The next ``sql`` call builds a fresh one.  Connections belong to
        the cluster's connection cache, not to the session.
        """
        self._plan_cache = self._plan_cache_stamp = None

    # -- execution -----------------------------------------------------------------------
    def query_trace(self, trace=None) -> "Span | object":
        """The root span for a query: the caller's, a fresh one when
        ``tracing.enabled`` is set, or the no-op recorder."""
        if trace is not None:
            return trace
        if bool(self.conf.get("tracing.enabled", False)):
            return Span("query", "query")
        return NOOP_SPAN

    def plan_query(self, plan: "LogicalPlan | BoundPlan",
                   trace=NOOP_SPAN) -> PlannedQuery:
        """Optimize and plan one analyzed logical plan -- the only place the
        session runs the optimizer and the planner, and the one place that
        decides whether ``sql``'s :class:`BoundPlan` reuses its cached
        optimization: not when views or statistics decide it, which
        optimizes its bound analysis afresh.  The planner always runs:
        there values meet the source (pushdown, ranges, pruning)."""
        verdict = None
        if isinstance(plan, BoundPlan):
            verdict = f"{plan.lookup}, {plan.entry.summary}"
            decider = "views" if self._view_manager is not None else \
                "statistics" if plan.entry.joins and statistics_decide(
                    self.stats, plan.entry.analyzed) else None
            if decider is not None:
                verdict += f"; optimized afresh ({decider})"
                plan = bind_plan(plan.entry.analyzed, plan.values)
        bound = isinstance(plan, BoundPlan)
        views_ctx = estimator = metrics = None
        if not bound:  # no statistics decide a bound plan, no views price it
            views_ctx = self.view_rewrite_context()
            estimator = estimator_for(self.stats, plan,
                                      pricing_views=views_ctx is not None)
            metrics = MetricsRegistry() \
                if estimator is not None or views_ctx is not None else None
            if estimator is not None:
                estimator.metrics = metrics
            if views_ctx is not None:
                views_ctx.metrics = metrics
        span = trace.child("optimize", "plan", order=(0, 0))
        optimized = plan.optimized() if bound else \
            optimize(plan, conf=self.conf, stats=estimator, metrics=metrics,
                     views=views_ctx)
        span.finish()
        span = trace.child("plan", "plan", order=(0, 1))
        physical = Planner(self.conf, stats=estimator,
                           metrics=metrics).plan_query(optimized)
        span.finish()
        return PlannedQuery(optimized, physical, metrics,
                            views_ctx.events if views_ctx is not None else [],
                            verdict)

    def execute_plan(self, plan: "LogicalPlan | BoundPlan", trace=None,
                     slots=None, queued_s: float = 0.0) -> QueryResult:
        if isinstance(plan, InsertIntoTable):
            return self._write(plan.children[0], plan.relation, plan.overwrite)
        trace = self.query_trace(trace)
        return self.execute_planned(self.plan_query(plan, trace), trace,
                                    slots, queued_s)

    def execute_planned(self, planned: PlannedQuery, trace=NOOP_SPAN,
                        slots=None, queued_s: float = 0.0) -> QueryResult:
        """Run what ``plan_query`` returned.  ``execute_plan`` is the two
        calls in turn; EXPLAIN ANALYZE makes them itself because it keeps
        the physical plan to annotate."""
        result = self.execute_physical(planned.physical, trace=trace,
                                       slots=slots, queued_s=queued_s,
                                       extra_metrics=planned.metrics)
        result.view_events = planned.view_events
        return result

    def cbo_stats(self) -> StatsStore:
        """The statistics store a caller that spells ``plan_query`` out
        itself hands to ``optimize`` and ``Planner`` as ``stats=``."""
        return self.stats

    def execute_physical(self, physical, trace=NOOP_SPAN, slots=None,
                         queued_s: float = 0.0,
                         extra_metrics: Optional[MetricsRegistry] = None) -> QueryResult:
        """Run an already-planned physical operator tree.

        ``slots`` restricts execution to a leased subset of the cluster's
        executor slots and ``queued_s`` is admission-queue wait charged
        against client operation deadlines -- both set only by the serving
        front door (:mod:`repro.serving`), and both defaulting to the
        byte-identical direct path.
        """
        def collect(rdd, schema, ctx):
            return schema, [Row(values, schema)
                            for values in ctx.run_job(rdd).rows()]

        return self._run(physical, collect,
                         trace if trace is not None else NOOP_SPAN,
                         slots, queued_s, extra_metrics)

    def _run(self, physical, consume, trace, slots, queued_s,
             extra_metrics) -> QueryResult:
        """Execute ``physical`` and account for it.  ``consume(rdd, schema,
        ctx)`` runs the job and returns the result's (schema, rows): a read
        collects the plan's output, a write inserts it and reports a count."""
        ctx = ExecContext(self.new_scheduler(trace, slots=slots,
                                             queued_s=queued_s),
                          self.cost, self.conf,
                          trace=trace)
        if extra_metrics is not None:
            ctx.metrics.merge(extra_metrics)
        rdd = physical.execute(ctx)
        schema = StructType()
        for attr in physical.output:
            schema = schema.add(attr.name, attr.dtype)
        schema, rows = consume(rdd, schema, ctx)
        seconds = self.cost.driver_overhead_s + ctx.driver_seconds + ctx.job_seconds
        self.clock.advance(seconds)
        if trace.enabled:
            trace.set(rows=len(rows), stages=len(ctx.all_stages))
            trace.finish(sim_seconds=seconds, metrics=ctx.metrics.snapshot())
        return QueryResult(rows, schema, seconds, ctx.metrics, ctx.all_stages,
                           wall_clock_s=ctx.wall_seconds,
                           operator_stats=ctx.operator_stats,
                           trace=trace if trace.enabled else None,
                           reopt_events=ctx.reopt_events)

    def _write(self, source: LogicalPlan, relation,
               overwrite: bool) -> QueryResult:
        """Insert ``source``'s rows into ``relation`` -- the one write path
        behind ``INSERT INTO`` and ``DataFrameWriter.save``, planned exactly
        like a read."""
        def insert(rdd, schema, ctx):
            written = relation.insert(rdd, schema, ctx,
                                      overwrite=overwrite) or 0
            schema = StructType().add("rows_written", type_from_name("bigint"))
            return schema, [Row((written,), schema)]

        planned = self.plan_query(source)
        return self._run(planned.physical, insert, NOOP_SPAN, None, 0.0,
                         planned.metrics)

    def execute_write(self, plan: LogicalPlan, format_name: str,
                      options: Dict[str, str], overwrite: bool = False,
                      mode: Optional[str] = None) -> WriteResult:
        if mode is None:
            mode = "overwrite" if overwrite else "append"
        provider = lookup_provider(format_name)
        relation = provider.create_relation(options, self)
        if mode in ("errorifexists", "ignore"):
            exists = getattr(relation, "cluster", None) is not None and \
                relation.cluster.has_table(relation.catalog.qualified_name)
            if exists and mode == "errorifexists":
                raise AnalysisError(
                    f"table {relation.catalog.name!r} already exists "
                    f"(save mode errorifexists)"
                )
            if exists and mode == "ignore":
                return WriteResult(0, 0.0, MetricsRegistry())
        result = self._write(plan, relation, mode == "overwrite")
        return WriteResult(result.rows[0][0], result.seconds, result.metrics)


class DataFrameReader:
    """``session.read.format(...).options(...).load()``."""

    def __init__(self, session: SparkSession) -> None:
        self._session = session
        self._format: Optional[str] = None
        self._options: Dict[str, str] = {}

    def format(self, format_name: str) -> "DataFrameReader":
        self._format = format_name
        return self

    def options(self, options: Dict[str, str]) -> "DataFrameReader":
        self._options.update(options)
        return self

    def option(self, key: str, value: str) -> "DataFrameReader":
        self._options[key] = value
        return self

    def load(self):
        if self._format is None:
            raise AnalysisError("read.format(...) must be set before load()")
        provider = lookup_provider(self._format)
        relation = provider.create_relation(dict(self._options), self._session)
        return DataFrame(self._session, LogicalRelation(relation))
