"""Physical operators: resolved logical plans compiled onto engine RDDs.

Every operator's ``execute(ctx)`` returns an RDD of
:class:`~repro.sql.columnar.RecordBatch` column vectors aligned with its
``output`` attributes, so batches flow on every edge of a plan.  Filters,
projections, aggregate builds and results and hash-join keys run compiled
column kernels over them (docs/vectorized.md).  Rows appear only where
work leaves a task: an exchange (``partition_by`` / ``coalesce_to_driver``)
and a driver sub-job carry row tuples, which the operator's map-side
closure unpacks from its batches and its reduce side packs again at
``BATCH_SIZE``, and the session root hands rows to the caller
(:func:`repro.sql.vectorized.insert_transitions`).  Narrow operators
pipeline via ``map_partitions`` inside the upstream task; wide operators
(aggregation, shuffled joins, distinct, intersect) introduce exchanges
whose volume the scheduler meters -- that metering is Figure 5.

Broadcast hash joins run a sub-job to collect the build side at the driver
and charge the redistribution to driver time, mirroring Spark's
``autoBroadcastJoinThreshold`` behaviour; whether a join *can* broadcast
depends on the relation's size estimate, which is exactly where SHC and the
vanilla connector diverge (SHC knows region sizes, a generic scan does not).
"""

from __future__ import annotations

import itertools
import threading
from typing import (Callable, Collection, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.common.errors import AnalysisError
from repro.common.metrics import MetricsRegistry
from repro.common.tracing import NOOP_SPAN
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import JobResult, TaskScheduler
from repro.engine.shuffle import estimate_size
from repro.sql import columnar as C
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.sources import BaseRelation, Filter as SourceFilter


class ExecContext:
    """Per-query execution context: scheduler access + cost accounting.

    Accumulation is guarded by a lock, like the other accounting objects
    (docs/engine.md, "Shared state and thread safety"): the engine runs a
    query on one thread, but callers' threads may share a session under the
    DB-API's declared ``threadsafety = 2``.
    """

    def __init__(self, scheduler: TaskScheduler, cost, conf: Dict[str, object],
                 trace=NOOP_SPAN) -> None:
        self.scheduler = scheduler
        self.cost = cost
        self.conf = conf
        self.metrics = MetricsRegistry()
        self.job_seconds = 0.0
        self.driver_seconds = 0.0
        self.wall_seconds = 0.0
        self.all_stages = []
        #: root span of the query's trace (NOOP_SPAN = tracing disabled)
        self.trace = trace if trace is not None else NOOP_SPAN
        #: per-operator facts keyed by ``PhysicalPlan.op_id`` that no
        #: counter carries (relation name, regions in the table, AQE
        #: strategies, ...), recorded by operators as they execute.  An
        #: operator's numbers are its scoped counters instead
        #: (``metrics.for_op(op_id)``); EXPLAIN ANALYZE renders both.
        self.operator_stats: Dict[int, Dict[str, object]] = {}
        #: what each AdaptiveJoinExec decided at its stage barriers, in
        #: decision order; EXPLAIN ANALYZE renders these as the adaptive
        #: section (docs/adaptive.md)
        self.reopt_events: List[Dict[str, object]] = []
        #: source filters a join pushed to a scan *for this execution* (the
        #: build side's keys as an ``In`` list), keyed by the scan's
        #: ``op_id``.  They live here and not on the plan node: a planned
        #: tree is never written to by executing it, so it can run again
        self.runtime_filters: Dict[int, List[SourceFilter]] = {}
        #: build sides hashed *in this execution*, by the planner's stamp:
        #: ``(table, row bytes, op_id of the join that built it)``; a later
        #: broadcast join with the same stamp probes the same table
        self.shared_builds: Dict[tuple, Tuple[Dict[tuple, List[tuple]], int, int]] = {}
        self._lock = threading.Lock()

    def record_operator(self, op: "PhysicalPlan", **stats: object) -> None:
        """Attach runtime facts to ``op`` for EXPLAIN ANALYZE."""
        with self._lock:
            self.operator_stats.setdefault(op.op_id, {}).update(stats)

    def record_reopt(self, op: "PhysicalPlan", rule: str, detail: str) -> None:
        """Log one adaptive re-optimisation decision for ``op``."""
        with self._lock:
            self.reopt_events.append(
                {"op_id": op.op_id, "rule": rule, "detail": detail}
            )
        self.metrics.incr("engine.aqe.reoptimizations", 1)
        if self.trace.enabled:
            self.trace.event("reopt", op=op.op_id, rule=rule, detail=detail)

    def run_job(self, rdd: RDD, map_stages_only: bool = False) -> JobResult:
        """Run a job (or, with ``map_stages_only``, a stage barrier's map
        stages: :meth:`TaskScheduler.run_job`) and fold in its cost."""
        result = self.scheduler.run_job(rdd, map_stages_only)
        with self._lock:
            self.job_seconds += result.seconds
            self.wall_seconds += result.wall_clock_s
            self.all_stages.extend(result.stages)
        self.metrics.merge(result.metrics)
        return result

    def charge_driver(self, seconds: float, counter: Optional[str] = None,
                      amount: float = 1.0) -> None:
        with self._lock:
            self.driver_seconds += seconds
        if counter is not None:
            self.metrics.incr(counter, amount)

    def shuffle_partitions(self) -> int:
        return int(self.conf.get("sql.shuffle.partitions", 8))


class PhysicalPlan:
    """Base class for physical operators.

    An operator's ``op_id`` is its pre-order position (1..n, the order
    EXPLAIN prints) in its finished tree, numbered by
    :func:`repro.sql.vectorized.insert_transitions` (0 before), so
    planning a query again gives the same ids.
    ``ExecContext.operator_stats``, scoped counters
    (``MetricsRegistry.for_op``) and ``StageInfo.scope`` refer back to it,
    which is how EXPLAIN ANALYZE joins runtime numbers onto plan nodes.
    """

    op_id = 0

    def __init__(self, output: Sequence[E.Attribute],
                 children: Sequence["PhysicalPlan"] = ()) -> None:
        self.output = list(output)
        self.children = list(children)

    def execute(self, ctx: ExecContext) -> RDD:
        raise NotImplementedError

    def pretty(self, indent: int = 0,
               annotations: Optional[Dict[int, Sequence[str]]] = None,
               overrides: Optional[Dict[int, str]] = None) -> str:
        """Render the subtree; ``overrides`` swaps an operator's headline.

        EXPLAIN ANALYZE uses overrides to print the *final* adaptive plan:
        the tree shape is the planned one, but operators the runtime
        re-optimised show what actually executed (docs/adaptive.md).
        """
        described = overrides.get(self.op_id) if overrides else None
        head = "  " * indent + (described if described is not None else self.describe())
        lines = [head]
        if annotations:
            for note in annotations.get(self.op_id, ()):
                lines.append("  " * indent + "  +- " + note)
        lines.extend(c.pretty(indent + 1, annotations, overrides)
                     for c in self.children)
        return "\n".join(lines)

    def walk(self) -> Iterable["PhysicalPlan"]:
        """Pre-order traversal of this operator subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def describe(self) -> str:
        return type(self).__name__


# Book-keeping tails.  An operator that counts what streams through it books
# the total *after* its loop, once per partition.  The loop ends in one of
# three ways and the rule is the same everywhere below: exhaustion books;
# ``close()`` -- a LIMIT downstream stopped pulling -- books what was pulled
# so far (``except GeneratorExit: pass`` falls through to the tail); an
# exception skips the tail, so a failed attempt's ledger holds only what was
# charged before it failed.

def _metered(op: "PhysicalPlan", batches: Iterable[C.RecordBatch],
             task_ctx, per_row: Optional[float]) -> Iterable[C.RecordBatch]:
    """Pass one partition's batches through to ``op``, then book them.

    Once the stream is exhausted or closed: counts the
    ``engine.vectorized.*`` totals on the task ledger, scoped to ``op`` (what
    EXPLAIN ANALYZE's per-operator notes read), and charges ``per_row`` CPU
    seconds per input row (``None``: the caller charges elsewhere).
    """
    nbatches = 0
    nrows = 0
    try:
        for batch in batches:
            nbatches += 1
            nrows += batch.num_rows
            yield batch
    except GeneratorExit:
        pass
    task_ctx.ledger.count("engine.vectorized.batches", nbatches, op.op_id)
    task_ctx.ledger.count("engine.vectorized.rows", nrows, op.op_id)
    if per_row is not None:
        task_ctx.ledger.charge(per_row * nrows, "engine.rows_processed", nrows)


def _unpacked(batches: Iterable[C.RecordBatch], task_ctx) -> Iterable[tuple]:
    """Map-side closure of an exchange or a driver sub-job: both carry row
    tuples, so the scheduler sizes rows and never a batch."""
    return C.rows_from_batches(batches)


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    """``items`` in lists of ``size``, pulled one list at a time."""
    it = iter(items)
    return iter(lambda: list(itertools.islice(it, size)), [])


def _named_output(items: Sequence[E.Expression], what: str) -> List[E.Attribute]:
    """Output attributes of a projection / aggregate list (all items named)."""
    output = []
    for item in items:
        if isinstance(item, E.Alias):
            output.append(item.to_attribute())
        elif isinstance(item, E.Attribute):
            output.append(item)
        else:
            raise AnalysisError(f"unnamed {what} {item!r}")
    return output


def _strip_alias(item: E.Expression) -> E.Expression:
    return item.child if isinstance(item, E.Alias) else item


class ScanExec(PhysicalPlan):
    """The batch-producing scan stage: a source's column batches, then the
    fused filters and projection, in one partition pass.

    A subclass says where the batches come from (:meth:`source_rdd`): a
    relation's ``build_scan`` (an SHC scan decodes each page into columns),
    or driver-local rows cut at ``BATCH_SIZE``.  One ``map_partitions``
    pass per partition then applies the scan's residual and every fused
    predicate as a column mask, then evaluates the fused projection -- so
    each batch is traversed once per kernel instead of once per row per
    expression node.  ``columns`` are the attributes the source produces;
    ``output`` stays ``columns`` until a projection is fused.  ``fused`` names the operators the planner
    collapsed into the pass.
    """

    def __init__(self, columns: Sequence[E.Attribute],
                 residual: Optional[E.Expression] = None) -> None:
        super().__init__(columns)
        self.columns = list(columns)
        self.residual = residual
        self.conditions: List[E.Expression] = (
            E.split_conjuncts(residual) if residual is not None else [])
        self.project_list: Optional[List[E.Expression]] = None
        self.fused = ["Scan"]

    def fuse_filter(self, condition: E.Expression) -> "ScanExec":
        """Fold a filter directly above this scan into its pass."""
        self.conditions.extend(E.split_conjuncts(condition))
        self.fused.append("Filter")
        return self

    def fuse_project(self, project_list: Sequence[E.Expression]) -> "ScanExec":
        """Fold a projection directly above this scan into its pass."""
        self.output = _named_output(project_list, "projection")
        self.project_list = list(project_list)
        self.fused.append("Project")
        return self

    def source_rdd(self, ctx: ExecContext) -> RDD:
        """The source's :class:`~repro.sql.columnar.RecordBatch` es, columns
        positionally aligned with ``columns``."""
        raise NotImplementedError

    def execute(self, ctx: ExecContext) -> RDD:
        columns = self.columns
        cond_kernels = [C.compile_bound(c, columns) for c in self.conditions]
        proj_kernels = None
        if self.project_list is not None:
            proj_kernels = [C.compile_bound(_strip_alias(item), columns)
                            for item in self.project_list]
        per_row = ctx.cost.vector_row_cpu_s
        if len(self.fused) > 1:
            ctx.metrics.incr("engine.vectorized.fused_operators", len(self.fused),
                             self.op_id)

        def scan_batches(batches, task_ctx):
            for batch in _metered(self, batches, task_ctx, per_row):
                for kernel in cond_kernels:
                    if batch.num_rows:
                        mask = kernel(batch.columns, batch.num_rows)
                        batch = C.apply_mask(batch, mask)
                if proj_kernels is not None:
                    n = batch.num_rows
                    batch = C.RecordBatch(
                        [k(batch.columns, n) for k in proj_kernels], n)
                yield batch

        return self.source_rdd(ctx).map_partitions(scan_batches)

    def _fused_note(self) -> str:
        return f", fused={'+'.join(self.fused[1:])}" if len(self.fused) > 1 else ""


class DataSourceScanExec(ScanExec):
    """Scan a pluggable relation with pruned columns and offered filters.

    The relation hands over the ``columns`` as column batches; the
    ``residual`` it could not handle runs in the scan's batch pass, with
    whatever the planner fused.
    """

    def __init__(
        self,
        relation: BaseRelation,
        columns: Sequence[E.Attribute],
        pushed_filters: Sequence[SourceFilter],
        residual: Optional[E.Expression],
        relation_name: str = "",
        handled_filters: Optional[Sequence[SourceFilter]] = None,
    ) -> None:
        super().__init__(columns, residual)
        self.relation = relation
        self.pushed_filters = list(pushed_filters)
        self.relation_name = relation_name
        #: the subset of ``pushed_filters`` the relation actually handles
        #: (offered minus ``unhandled_filters``); what EXPLAIN ANALYZE
        #: reports as "pushed", since unhandled offers run again as residual
        self.handled_filters = (list(handled_filters)
                                if handled_filters is not None
                                else list(pushed_filters))

    def source_rdd(self, ctx: ExecContext) -> RDD:
        required = [a.name for a in self.columns]
        span = ctx.trace.child(
            f"scan-plan:{self.relation_name or type(self.relation).__name__}",
            "scan-plan", order=(1, self.op_id), op=self.op_id,
        )
        # best-effort filters a join pushed for this execution (its build
        # side's keys); exactness is enforced engine-side by the join
        runtime_filters = ctx.runtime_filters.get(self.op_id)
        offered = (self.pushed_filters + runtime_filters
                   if runtime_filters else self.pushed_filters)
        rdd = self.relation.build_scan(required, offered)
        #: stamp the scan operator onto the RDD so the scheduler can
        #: attribute downstream stages (and their locality) back to this
        #: plan node -- see TaskScheduler._stage_scope
        rdd.scope = self.op_id
        residual_count = (len(E.split_conjuncts(self.residual))
                          if self.residual is not None else 0)
        # the numbers are counters scoped to this operator, the rest are
        # facts; counters never charge simulated seconds, so cost totals are
        # unchanged whether or not anyone is looking
        op = self.op_id
        pushed = len(self.handled_filters)
        ctx.metrics.incr("shc.filters_pushed", pushed, op)
        ctx.metrics.incr("shc.filters_residual", residual_count, op)
        # the scan-plan span carries the numbers beside the facts
        counts = {"filters_pushed": pushed, "filters_residual": residual_count}
        facts: Dict[str, object] = {
            "relation": self.relation_name or type(self.relation).__name__,
        }
        if runtime_filters:
            facts["filters_runtime"] = len(runtime_filters)
        scan_parts = getattr(rdd, "scan_partitions", None)
        if scan_parts is not None:
            scanned = sum(len(p.work) for p in scan_parts)
            total = getattr(rdd, "regions_total", scanned)
            pruned = max(0, total - scanned)
            ctx.metrics.incr("shc.regions_scanned", scanned, op)
            ctx.metrics.incr("shc.regions_pruned", pruned, op)
            counts.update(regions_scanned=scanned, regions_pruned=pruned)
            facts.update(regions_total=total, partitions=len(scan_parts))
            if runtime_filters:
                # what the pushed keys became: merged ranges, clamped per region
                facts["scan_ranges"] = sum(
                    len(w.ranges) for p in scan_parts for w in p.work)
        routing = getattr(rdd, "replica_routing", None)
        if routing is not None:
            # replica-aware routing engaged (docs/replication.md): surface
            # the decisions in EXPLAIN ANALYZE and the per-query metrics
            facts.update(
                replica_scans=routing.get("replica_scans", 0),
                replica_split_regions=routing.get("split_regions", 0),
                replica_stale_excluded=routing.get("stale_excluded", 0),
            )
            fallbacks = routing.get("primary_fallbacks", 0)
            if fallbacks:
                ctx.metrics.incr("hbase.replica.primary_fallbacks", fallbacks, op)
                counts["replica_primary_fallbacks"] = fallbacks
        ctx.record_operator(self, **facts)
        if span.enabled:
            span.set(**facts, **counts)
            span.finish()
        return rdd

    def describe(self) -> str:
        return (
            f"DataSourceScan({self.relation_name or type(self.relation).__name__}, "
            f"columns={[a.name for a in self.columns]}, "
            f"pushed={self.pushed_filters!r}, residual={self.residual!r}"
            f"{self._fused_note()})"
        )


class LocalScanExec(ScanExec):
    """Driver-local rows distributed over a few partitions."""

    def __init__(self, output: Sequence[E.Attribute], rows: Sequence[tuple],
                 num_partitions: int = 2) -> None:
        super().__init__(output)
        self.rows = list(rows)
        self.num_partitions = num_partitions

    def source_rdd(self, ctx: ExecContext) -> RDD:
        width, batch_size = len(self.columns), C.BATCH_SIZE
        return ParallelCollectionRDD(self.rows, self.num_partitions).map_partitions(
            lambda rows, task_ctx: C.batches_from_rows(rows, width, batch_size))

    def describe(self) -> str:
        return f"LocalScan({len(self.rows)} rows{self._fused_note()})"


class FilterExec(PhysicalPlan):
    """Engine-side filter (the "second layer" of section VI.A.3):
    predicate kernel -> mask -> ``itertools.compress``, batch by batch."""

    def __init__(self, condition: E.Expression, child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])
        self.condition = condition

    def execute(self, ctx: ExecContext) -> RDD:
        kernel = C.compile_bound(self.condition, self.children[0].output)
        per_row = ctx.cost.vector_row_cpu_s

        def apply(batches, task_ctx):
            for batch in _metered(self, batches, task_ctx, per_row):
                if batch.num_rows:
                    batch = C.apply_mask(
                        batch, kernel(batch.columns, batch.num_rows))
                yield batch

        return self.children[0].execute(ctx).map_partitions(apply)

    def describe(self) -> str:
        return f"Filter({self.condition!r})"


class ProjectExec(PhysicalPlan):
    """Expression evaluation into a new column layout: one compiled kernel
    per output column, applied batch by batch."""

    def __init__(self, project_list: Sequence[E.Expression], child: PhysicalPlan) -> None:
        super().__init__(_named_output(project_list, "projection"), [child])
        self.project_list = list(project_list)

    def execute(self, ctx: ExecContext) -> RDD:
        kernels = [C.compile_bound(_strip_alias(item), self.children[0].output)
                   for item in self.project_list]
        per_row = ctx.cost.vector_row_cpu_s

        def apply(batches, task_ctx):
            for batch in _metered(self, batches, task_ctx, per_row):
                n = batch.num_rows
                yield C.RecordBatch([k(batch.columns, n) for k in kernels], n)

        return self.children[0].execute(ctx).map_partitions(apply)

    def describe(self) -> str:
        return f"Project({[a.name for a in self.output]})"


# -- aggregation -----------------------------------------------------------------

def aggregate_instances(aggregate_list: Sequence[E.Expression]
                        ) -> List[E.AggregateExpression]:
    """The distinct aggregate function calls of an output list, in plan order."""
    found: Dict[int, E.AggregateExpression] = {}
    for item in aggregate_list:
        for node in item.collect(lambda e: isinstance(e, E.AggregateExpression)):
            found.setdefault(id(node), node)
    return list(found.values())


def finish_aggregate(ctx: ExecContext, partials: RDD,
                     groupings: Sequence[E.Expression],
                     aggregate_list: Sequence[E.Expression],
                     aggregates: Sequence[E.AggregateExpression]) -> RDD:
    """The reduce side of a two-phase aggregation over ``(key, accs)`` pairs.

    Shuffles by key (a global aggregate, key ``()``, to one partition),
    merges each key's accumulators and finishes them into the rows ``key +
    finished``, then evaluates every output item as a column kernel over
    those rows' batches: an item's subtree equal to grouping ``i`` reads
    column ``i`` and aggregate ``j`` reads ``len(key) + j``.  A global
    aggregate over no rows still yields a row.
    """
    slot = {id(a): len(groupings) + j for j, a in enumerate(aggregates)}

    def rebind(node: E.Expression, item: E.Expression) -> E.Expression:
        if isinstance(node, E.AggregateExpression):
            return E.BoundReference(slot[id(node)], node.data_type())
        for position, grouping in enumerate(groupings):
            if E.same_expression(node, grouping):
                return E.BoundReference(position, grouping.data_type())
        if isinstance(node, E.Attribute):
            raise AnalysisError(f"aggregate output {item!r} references "
                                f"non-grouping column {node!r}")
        if not node.children:
            return node
        return node.with_new_children([rebind(c, item) for c in node.children])

    results = [C.compile_kernel(rebind(_strip_alias(item), item))
               for item in aggregate_list]
    per_row = ctx.cost.row_cpu_s
    global_agg = not groupings
    width, batch_size = len(groupings) + len(aggregates), C.BATCH_SIZE

    def final(pairs, task_ctx):
        table: Dict[tuple, list] = {}
        for key, accs in pairs:
            merged = table.get(key)
            if merged is None:
                table[key] = list(accs)
            else:
                for i, agg in enumerate(aggregates):
                    merged[i] = agg.merge(merged[i], accs[i])
        if not table and global_agg:
            table[()] = [a.init_acc() for a in aggregates]
        rows = [key + tuple([agg.finish(acc) for agg, acc in zip(aggregates, accs)])
                for key, accs in table.items()]
        task_ctx.ledger.charge(per_row * len(rows), "engine.rows_processed", len(rows))
        return iter([C.RecordBatch([result(b.columns, b.num_rows) for result in results],
                                   b.num_rows)
                     for b in C.batches_from_rows(rows, width, batch_size)])

    num_parts = 1 if global_agg else ctx.shuffle_partitions()
    return partials.partition_by(num_parts, key_fn=lambda kv: kv[0],
                                 post_shuffle=final)


class HashAggregateExec(PhysicalPlan):
    """Two-phase hash aggregation (partial -> shuffle by key -> final).

    The map-side build consumes batches: grouping keys and aggregate
    arguments evaluate as column kernels, and each row's argument values
    update its group's accumulators through the ``AggregateExpression``
    protocol; a global aggregate is the one group ``()``.  The
    ``(key, accs)`` pairs it emits cross the exchange; the merge is
    row-at-a-time and the results are column kernels again
    (:func:`finish_aggregate`).
    """

    def __init__(self, groupings: Sequence[E.Expression],
                 aggregate_list: Sequence[E.Expression], child: PhysicalPlan) -> None:
        super().__init__(_named_output(aggregate_list, "aggregate output"), [child])
        self.groupings = list(groupings)
        self.aggregate_list = list(aggregate_list)

    def _make_partial(self, ctx: ExecContext, aggregates):
        """The map-side build closure: batches in, ``(key, accs)`` pairs out."""
        child_attrs = self.children[0].output
        key_kernels = [C.compile_bound(g, child_attrs) for g in self.groupings]
        arg_kernels = [C.compile_bound(a.children[0], child_attrs)
                       if a.children else None for a in aggregates]
        per_row = ctx.cost.vector_row_cpu_s

        def partial(batches, task_ctx):
            table: Dict[tuple, list] = {}
            for batch in _metered(self, batches, task_ctx, per_row):
                cols, n = batch.columns, batch.num_rows
                if not n:
                    continue
                nulls = [None] * n  # COUNT(*) takes no argument
                args = (zip(*[k(cols, n) if k is not None else nulls
                              for k in arg_kernels])
                        if arg_kernels else itertools.repeat((), n))
                for key, values in zip(C.key_tuples(key_kernels, cols, n), args):
                    accs = table.get(key)
                    if accs is None:
                        accs = table[key] = [a.init_acc() for a in aggregates]
                    for j, agg in enumerate(aggregates):
                        accs[j] = agg.update(accs[j], values[j])
            return iter(table.items())

        return partial

    def execute(self, ctx: ExecContext) -> RDD:
        aggregates = aggregate_instances(self.aggregate_list)
        partials = self.children[0].execute(ctx).map_partitions(
            self._make_partial(ctx, aggregates))
        return finish_aggregate(ctx, partials, self.groupings,
                                self.aggregate_list, aggregates)

    def describe(self) -> str:
        return f"HashAggregate(keys={self.groupings!r}, out={[a.name for a in self.output]})"


# -- joins (docs/engine.md, "Joins") ------------------------------------------------

def _join_output(left: PhysicalPlan, right: PhysicalPlan, how: str):
    if how in ("semi", "anti"):
        return list(left.output)
    return list(left.output) + list(right.output)


def _hash_build(keyed_rows: Iterable[Tuple[tuple, tuple]]
                ) -> Tuple[Dict[tuple, List[tuple]], int]:
    """Hash a build side gathered at the driver: ``(table, row bytes)``.

    ``keyed_rows`` is a build sub-job's rows beside their kernel keys, or a
    materialised shuffle's blocks, as ``(key, row)`` pairs.  A key holding
    a NULL can never match, so its rows stay out of the table; the byte
    count covers every row gathered, because every row is shipped.
    """
    table: Dict[tuple, List[tuple]] = {}
    row_bytes = 0
    for key, row in keyed_rows:
        row_bytes += estimate_size(row)
        if None not in key:
            table.setdefault(key, []).append(row)
    return table, row_bytes


def _charge_broadcast(ctx: ExecContext, nbytes: int) -> None:
    """Ship ``nbytes`` of build side from the driver to every executor."""
    executors = len(ctx.scheduler.cluster.executors)
    ctx.charge_driver(
        nbytes * executors / ctx.cost.network_bytes_per_sec,
        "engine.broadcast_bytes", nbytes * executors,
    )


#: distinct build keys above which a join sends none to its probe
SEMIJOIN_MAX_KEYS = 16384


class HashJoinExec(PhysicalPlan):
    """The equi-join shell: everything the join strategies share.

    A strategy is how the build (right) side reaches the probe -- collected
    and broadcast, shuffled with the stream, or decided at a stage barrier
    -- and that is all a subclass's ``execute`` says.  The match-and-emit
    rule with its output accounting (:meth:`_probe_loop`), the keying of a
    side's batches (:meth:`_tagged` for an exchange, :meth:`_probe_stream`
    for a pipelined probe), the exchange (:meth:`_shuffle_join`) and the
    hand-over of build keys to the probe's scan
    (:meth:`_push_runtime_filters`) are stated here once, so every strategy
    joins, counts and charges alike.
    """

    #: the planner's row estimate, stamped only where ANALYZE statistics
    #: made it confident
    cbo_rows: Optional[float] = None
    #: hand the build's distinct keys to the probe (docs/optimizer.md), set
    #: only where ANALYZE statistics made the planner confident
    push_keys = False

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan,
                 left_keys: Sequence[E.Expression], right_keys: Sequence[E.Expression],
                 how: str, residual: Optional[E.Expression]) -> None:
        super().__init__(_join_output(left, right, how), [left, right])
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.how = how
        self.residual = residual

    def describe(self) -> str:
        return (f"{type(self).__name__.removesuffix('Exec')}({self.how}, "
                f"{self.left_keys!r} = {self.right_keys!r})")

    def _probe_loop(self, per_row: float, build_left: bool = False):
        """The match-and-emit rule of a hash join, bound to this operator.

        Returns ``probe(table, chunks, task_ctx)``: a generator that looks
        each ``(key, row)`` pair of each chunk up in ``table`` (which holds
        no key with a NULL, so such a key never matches), keeps the pairs
        the residual accepts, emits by join type and hands out one batch
        per chunk that emitted a row.  Its tail books what it handed out:
        the ``engine.join.rows_out`` / ``bytes_out`` counters, scoped to
        this operator (EXPLAIN ANALYZE's join note), and ``per_row`` CPU
        seconds per output row.

        The stream is the left side; with ``build_left`` the table holds
        left rows and the right side streams, which only an inner join can
        do (the other types emit per *left* row).
        """
        left, right = self.children
        width = len(self.output)
        pad = (None,) * len(right.output)   # a left join's unmatched row
        residual = (
            C.compile_row(E.bind_expression(
                self.residual, list(left.output) + list(right.output)))
            if self.residual is not None else None
        )
        how = self.how

        def probe(table, chunks, task_ctx):
            out_count = 0
            out_bytes = 0
            try:
                for pairs in chunks:
                    out = []
                    for key, row in pairs:
                        emitted = False
                        for match in table.get(key, ()):
                            combined = match + row if build_left else row + match
                            if residual is None or residual(combined) is True:
                                emitted = True
                                if how in ("semi", "anti"):
                                    break
                                out.append(combined)
                        if emitted:
                            if how != "semi":
                                continue   # inner, left: emitted per match above
                        elif how == "left":
                            row += pad
                        elif how != "anti":
                            continue
                        out.append(row)
                    if out:
                        out_count += len(out)
                        out_bytes += sum(map(estimate_size, out))
                        yield C.RecordBatch.from_rows(out, width)
            except GeneratorExit:
                pass
            task_ctx.ledger.count("engine.join.rows_out", out_count, self.op_id)
            task_ctx.ledger.count("engine.join.bytes_out", out_bytes, self.op_id)
            task_ctx.ledger.charge(per_row * out_count, "engine.rows_processed", out_count)

        return probe

    def _probe_stream(self, probe, table: Dict[tuple, List[tuple]]):
        """A pipelined probe of ``table`` as a ``map_partitions`` closure:
        each stream batch's keys by column kernel, its rows one chunk.  The
        probe charges per output row; input rows are only counted."""
        kernels = [C.compile_bound(k, self.children[0].output)
                   for k in self.left_keys]

        def probe_batches(batches, task_ctx):
            chunks = (zip(C.key_tuples(kernels, b.columns, b.num_rows), b.to_rows())
                      for b in _metered(self, batches, task_ctx, None))
            return probe(table, chunks, task_ctx)

        return probe_batches

    def _tagged(self, ctx: ExecContext, child: PhysicalPlan,
                keys: Sequence[E.Expression], side: int, per_row: float,
                keep: Optional[Collection[tuple]] = None) -> RDD:
        """One side as the ``(key, side, row)`` entries a join's exchange
        carries (side 1 builds, side 0 streams): keys by column kernel, rows
        unpacked from each batch, ``per_row`` CPU seconds per input row.
        With ``keep``, an entry whose key is not in it is dropped."""
        kernels = [C.compile_bound(k, child.output) for k in keys]

        def tag(batches, task_ctx):
            for batch in _metered(self, batches, task_ctx, per_row):
                cols, n = batch.columns, batch.num_rows
                if not n:
                    continue
                pairs = zip(C.key_tuples(kernels, cols, n), batch.to_rows())
                if keep is None:
                    for key, row in pairs:
                        yield (key, side, row)
                else:
                    for key, row in pairs:
                        if key in keep:
                            yield (key, side, row)

        return child.execute(ctx).map_partitions(tag)

    def _reducer(self, per_row: float):
        """The reduce side of a shuffled join, as a ``post_shuffle`` closure.

        One reduce partition's ``(key, side, row)`` entries split into the
        build table (side 1; a key holding a NULL never matches, so its rows
        stay out) and the stream (side 0), then run the probe loop over
        ``BATCH_SIZE`` stream rows at a time.  The output is materialised:
        the loop's charges are the reduce task's, whether or not a consumer
        drains it.
        """
        probe = self._probe_loop(per_row)
        batch_size = C.BATCH_SIZE

        def join_partition(entries, task_ctx):
            table: Dict[tuple, List[tuple]] = {}
            stream: List[Tuple[tuple, tuple]] = []
            for key, side, row in entries:
                if side == 0:
                    stream.append((key, row))
                elif None not in key:
                    table.setdefault(key, []).append(row)
            return iter(list(probe(table, _chunks(stream, batch_size), task_ctx)))

        return join_partition

    def _shuffle_join(self, ctx: ExecContext, tagged: RDD, per_row: float) -> RDD:
        """Shuffle a tagged union of both sides by key and join it."""
        shuffled = tagged.partition_by(
            ctx.shuffle_partitions(), key_fn=lambda e: e[0],
            post_shuffle=self._reducer(per_row),
        )
        # the reduce stage's lineage stops at this exchange, so stamping the
        # join operator here attributes that stage to the join in EXPLAIN
        # ANALYZE (like DataSourceScanExec stamps scan stages)
        shuffled.scope = self.op_id
        return shuffled

    def probe_scan(self) -> Optional[DataSourceScanExec]:
        """The scan at the foot of the stream spine, or None.

        The spine is what a probe row flows through: the left child of a
        broadcast join (its build side is another table's rows), the child
        of a unary operator.  It stops at any other fork and at a LIMIT,
        whose rows a filtered scan would change.
        """
        op = self.children[0]
        while not isinstance(op, DataSourceScanExec):
            if isinstance(op, LimitExec):
                return None
            if not (isinstance(op, BroadcastHashJoinExec) or len(op.children) == 1):
                return None
            op = op.children[0]
        return op

    def _push_runtime_filters(self, ctx: ExecContext, keys: Collection[tuple]) -> bool:
        """Offer the build's distinct ``keys`` to the probe's scan; False,
        and nothing offered, over the :data:`SEMIJOIN_MAX_KEYS` cap.

        One ``In`` source filter per bare-attribute key on a column the scan
        reads (its ``columns``, before any fused projection), kept on
        ``ctx`` for this execution only; with no scan at the foot of the
        stream spine nothing is pushed.  A scan that took a
        filter counts ``sql.cbo.runtime_keys.pushed``, scoped to this join.
        Advisory: whoever pushes still filters exactly,
        engine-side.
        """
        from repro.sql import sources as S

        if len(keys) > SEMIJOIN_MAX_KEYS:
            return False
        scan = self.probe_scan()
        scan_ids = {a.attr_id for a in scan.columns} if scan is not None else ()
        pushed = False
        for i, key in enumerate(self.left_keys):
            if not isinstance(key, E.Attribute) or key.attr_id not in scan_ids:
                continue
            values = {k[i] for k in keys}
            try:
                ordered = sorted(values)
            except TypeError:
                ordered = sorted(values, key=repr)
            ctx.runtime_filters.setdefault(scan.op_id, []).append(
                S.In(key.name, tuple(ordered)))
            pushed = True
        if pushed:
            ctx.metrics.incr("sql.cbo.runtime_keys.pushed", len(keys), self.op_id)
        return True


class ShuffledHashJoinExec(HashJoinExec):
    """Both sides are shuffled by the join key; each reduce task builds its
    partition's table.

    Both sides are tagged batch by batch (:meth:`_tagged`): join keys
    evaluate as column kernels and rows unpack through a C-level transpose
    into the ``(key, side, row)`` entries the exchange carries.

    With ``push_keys`` the build's tagged stream runs first, as a driver
    sub-job.  Its distinct keys, broadcast at key bytes, go to the probe's
    scan and drop the probe rows that cannot match before the shuffle; the
    collected entries re-enter the shuffle as a driver-local collection.
    Over the :data:`SEMIJOIN_MAX_KEYS` cap nothing is sent or dropped.
    """

    def execute(self, ctx: ExecContext) -> RDD:
        vec_row = ctx.cost.vector_row_cpu_s
        left, right = self.children
        build = self._tagged(ctx, right, self.right_keys, 1, vec_row)
        keep = None
        if self.push_keys:
            entries = ctx.run_job(build).rows()
            keys = {key for key, __, __ in entries if None not in key}
            if self._push_runtime_filters(ctx, keys):
                _charge_broadcast(ctx, sum(estimate_size(k) for k in keys))
                keep = keys
            build = ParallelCollectionRDD(
                entries, min(ctx.shuffle_partitions(), max(1, len(entries))))
        stream = self._tagged(ctx, left, self.left_keys, 0, vec_row, keep)
        return self._shuffle_join(ctx, stream.union(build), ctx.cost.row_cpu_s)


class BroadcastHashJoinExec(HashJoinExec):
    """The (small) right side is collected at the driver by a row sub-job
    and broadcast to every executor; the probe pipelines inside the left
    side's stage, computing stream keys as column kernels over its batches.
    The build keys are column kernels too, over the collected rows as one
    batch.

    The planner stamps ``build_stamp`` on it, always (docs/engine.md): it
    names the build side, so a later join with the same stamp in this
    execution probes this one's table -- no sub-job, no broadcast.  With
    ``push_keys`` the hashed table's keys go to the probe's scan, where a
    row-key column turns them into merged scan ranges.  The probe filters
    exactly either way.
    """

    build_stamp: Optional[tuple] = None

    def execute(self, ctx: ExecContext) -> RDD:
        left, right = self.children
        shared = ctx.shared_builds.get(self.build_stamp)
        if shared is None:
            rows = ctx.run_job(right.execute(ctx).map_partitions(_unpacked)).rows()
            build = C.RecordBatch.from_rows(rows, len(right.output))
            kernels = [C.compile_bound(k, right.output) for k in self.right_keys]
            table, build_bytes = _hash_build(zip(
                C.key_tuples(kernels, build.columns, build.num_rows), rows))
            _charge_broadcast(ctx, build_bytes)
            if self.build_stamp is not None:
                ctx.shared_builds[self.build_stamp] = (table, build_bytes, self.op_id)
        else:
            table, build_bytes, builder = shared
            ctx.metrics.incr("engine.broadcast_reuses", 1)
            ctx.metrics.incr("engine.broadcast_bytes_saved",
                             build_bytes * len(ctx.scheduler.cluster.executors))
            ctx.record_operator(self, build_reused_from=builder)
        if self.push_keys:
            self._push_runtime_filters(ctx, table.keys())
        probe = self._probe_loop(ctx.cost.vector_row_cpu_s)
        # no scope stamp: the probe pipelines inside the big side's scan
        # stage, whose scope already belongs to the scan operator
        return left.execute(ctx).map_partitions(self._probe_stream(probe, table))


class BroadcastNestedLoopJoinExec(PhysicalPlan):
    """Fallback join without equi keys: broadcast right, test the condition.

    Not a :class:`HashJoinExec`: it is charged per *pair compared*, which
    the hash probe would have to count on every match to share a loop.  It
    emits one batch per stream batch that produced a row.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, how: str,
                 condition: Optional[E.Expression]) -> None:
        super().__init__(_join_output(left, right, how), [left, right])
        self.how = how
        self.condition = condition

    def execute(self, ctx: ExecContext) -> RDD:
        left, right = self.children
        width = len(self.output)
        pad = (None,) * len(right.output)
        bound = (
            C.compile_row(E.bind_expression(
                self.condition, list(left.output) + list(right.output)))
            if self.condition is not None else None
        )
        how = self.how
        build_rows = ctx.run_job(right.execute(ctx).map_partitions(_unpacked)).rows()
        _charge_broadcast(ctx, sum(estimate_size(r) for r in build_rows))
        per_row = ctx.cost.row_cpu_s

        def probe(batches, task_ctx):
            count = 0
            try:
                for batch in batches:
                    out = []
                    for left_row in batch.to_rows():
                        emitted = False
                        for right_row in build_rows:
                            combined = left_row + right_row
                            count += 1
                            if bound is None or bound(combined) is True:
                                emitted = True
                                if how in ("semi", "anti"):
                                    break
                                out.append(combined)
                        if how == "left" and not emitted:
                            out.append(left_row + pad)
                        elif how == "semi" and emitted:
                            out.append(left_row)
                        elif how == "anti" and not emitted:
                            out.append(left_row)
                    if out:
                        yield C.RecordBatch.from_rows(out, width)
            except GeneratorExit:
                pass
            task_ctx.ledger.charge(per_row * count, "engine.rows_processed", count)

        return left.execute(ctx).map_partitions(probe)


# -- ordering / limiting / set ops --------------------------------------------------
#
# Sort, Limit, Distinct and Intersect exchange whole rows: each map side
# unpacks its child's batches and each reduce side packs what it hands out
# at ``BATCH_SIZE``.

def _sort_key(orders_bound: Sequence[Tuple[Callable[[tuple], object], bool]]
              ) -> Callable:
    def key(row: tuple):
        parts = []
        for value_of, ascending in orders_bound:
            value = value_of(row)
            # NULLS FIRST on ascending, LAST on descending (Spark default):
            # a NULL ranks below every value, and descending reverses ranks
            rank = (True, value) if value is not None else (False, 0)
            parts.append(_Reversed(rank) if not ascending else rank)
        return tuple(parts)

    return key


class _Reversed:
    """Inverts comparison for descending sort terms."""

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = inner

    def __lt__(self, other: "_Reversed") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.inner == other.inner


class SortExec(PhysicalPlan):
    """Total ordering: gather the rows to one partition, then sort."""

    def __init__(self, orders: Sequence[L.SortOrder], child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])
        self.orders = list(orders)

    def execute(self, ctx: ExecContext) -> RDD:
        bound = [
            (C.compile_row(E.bind_expression(o.expression, self.children[0].output)),
             o.ascending)
            for o in self.orders
        ]
        key = _sort_key(bound)
        per_row = ctx.cost.row_cpu_s
        width, batch_size = len(self.output), C.BATCH_SIZE

        def do_sort(rows, task_ctx):
            data = sorted(rows, key=key)
            task_ctx.ledger.charge(per_row * len(data), "engine.rows_processed", len(data))
            return C.batches_from_rows(data, width, batch_size)

        gathered = self.children[0].execute(ctx).map_partitions(
            _unpacked).coalesce_to_driver()
        return gathered.map_partitions(do_sort)


class LimitExec(PhysicalPlan):
    """Per-partition limit followed by a single-partition global limit."""

    def __init__(self, n: int, child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])
        self.n = n

    def execute(self, ctx: ExecContext) -> RDD:
        n = self.n
        width, batch_size = len(self.output), C.BATCH_SIZE

        def limit(rows):
            out = []
            for row in rows:
                if len(out) >= n:
                    # stopping early closes the input, so the operators
                    # upstream book the batches this task did pull (see
                    # "Book-keeping tails")
                    close = getattr(rows, "close", None)
                    if close is not None:
                        close()
                    break
                out.append(row)
            return out

        def rows_of(batches):
            for batch in batches:
                yield from batch.to_rows()

        limited = self.children[0].execute(ctx).map_partitions(
            lambda batches, task_ctx: iter(limit(rows_of(batches))))
        return limited.coalesce_to_driver().map_partitions(
            lambda rows, task_ctx: C.batches_from_rows(limit(rows), width, batch_size))

    def describe(self) -> str:
        return f"Limit({self.n})"


def _setop_out(op: PhysicalPlan, batches: Iterable[C.RecordBatch],
               task_ctx) -> Iterator[C.RecordBatch]:
    """Pass a set operator's output batches through, then book their rows
    as ``engine.setop.rows_out`` scoped to ``op``, as joins book
    ``engine.join.rows_out``.  Counters never charge simulated seconds."""
    out = 0
    try:
        for batch in batches:
            out += batch.num_rows
            yield batch
    except GeneratorExit:
        pass
    task_ctx.ledger.count("engine.setop.rows_out", out, op.op_id)


def _first_seen(rows: Iterable[tuple]) -> Iterator[tuple]:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


class UnionExec(PhysicalPlan):
    """Bag union (UNION ALL): concatenates partitions, no exchange."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan) -> None:
        super().__init__(left.output, [left, right])

    def execute(self, ctx: ExecContext) -> RDD:
        def count_side(batches, task_ctx):
            return _setop_out(self, batches, task_ctx)

        return self.children[0].execute(ctx).map_partitions(count_side).union(
            self.children[1].execute(ctx).map_partitions(count_side)
        )


class DistinctExec(PhysicalPlan):
    """Whole-row dedup through a hash exchange."""

    def __init__(self, child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: ExecContext) -> RDD:
        width, batch_size = len(self.output), C.BATCH_SIZE

        def dedupe(rows, task_ctx):
            return _setop_out(self, C.batches_from_rows(
                _first_seen(rows), width, batch_size), task_ctx)

        child_rdd = self.children[0].execute(ctx).map_partitions(_unpacked)
        shuffled = child_rdd.partition_by(
            ctx.shuffle_partitions(), key_fn=lambda r: r, post_shuffle=dedupe
        )
        # stamp the reduce stage onto this operator (like joins do), so
        # EXPLAIN ANALYZE attributes the stage back to the plan node
        shuffled.scope = self.op_id
        return shuffled


class IntersectExec(PhysicalPlan):
    """Set intersection (distinct) via a shuffle on the whole row."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan) -> None:
        super().__init__(left.output, [left, right])

    def execute(self, ctx: ExecContext) -> RDD:
        width, batch_size = len(self.output), C.BATCH_SIZE

        def tag(side: int):
            return lambda batches, task_ctx: zip(
                C.rows_from_batches(batches), itertools.repeat(side))

        def intersect(pairs, task_ctx):
            left_seen: set = set()
            right_seen: set = set()
            for row, side in pairs:
                (left_seen if side == 0 else right_seen).add(row)
            return _setop_out(self, C.batches_from_rows(
                left_seen & right_seen, width, batch_size), task_ctx)

        tagged = self.children[0].execute(ctx).map_partitions(tag(0)).union(
            self.children[1].execute(ctx).map_partitions(tag(1))
        )
        shuffled = tagged.partition_by(
            ctx.shuffle_partitions(), key_fn=lambda p: p[0], post_shuffle=intersect
        )
        shuffled.scope = self.op_id
        return shuffled
