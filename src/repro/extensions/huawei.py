"""A Huawei-Astro-style connector: aggregation inside HBase coprocessors.

Section III.C describes the Huawei Spark-SQL-on-HBase design: it embeds its
own optimizations inside Catalyst and "ships an RDD to HBase, performing
complicated tasks inside the HBase coprocessor", achieving high performance
at the price of a much larger maintenance surface.  This module implements
that design point:

- :func:`aggregation_endpoint` runs inside a region server: it scans the
  region, decodes cells *server-side* and returns partially-aggregated
  accumulators per group -- only the accumulators cross to the engine;
- :class:`HuaweiSparkHBaseRelation` extends the SHC relation with
  ``plan_aggregate``: when a query is a simple grouped aggregation directly
  over the table, the planner replaces the scan+partial-aggregate pipeline
  with coprocessor calls plus an engine-side final merge.

Queries that do not fit the coprocessor shape (expressions in groupings,
unsupported aggregates, residual filters HBase cannot evaluate) fall back to
the standard SHC path, so answers never change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.relation import FilterPlan, HBaseRelation, HBaseRelationProvider
from repro.core.partitions import build_partitions
from repro.engine.rdd import Partition, RDD
from repro.sql import expressions as E
from repro.sql.columnar import compile_row
from repro.sql.physical import (ExecContext, PhysicalPlan, aggregate_instances,
                                 finish_aggregate)
from repro.sql.sources import Filter as SourceFilter, register_provider

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.scheduler import TaskContext

HUAWEI_FORMAT = "org.apache.spark.sql.hbase.HBaseSource"

#: aggregate functions the coprocessor endpoint implements
_SUPPORTED_AGGREGATES = (E.Count, E.Sum, E.Min, E.Max, E.Avg, E.StddevSamp)


def aggregation_endpoint(region, params: dict, cost, ledger) -> List[tuple]:
    """The server-side half: scan, decode and partially aggregate one region.

    Returns ``[(group_key_tuple, accumulator_tuple), ...]``.  All scan and
    decode work is charged inside the region server; only the (small)
    accumulator table is returned to the caller.
    """
    relation: HuaweiSparkHBaseRelation = params["relation"]
    scan_range = params["scan_range"]
    hbase_filter = params["hbase_filter"]
    residual = (compile_row(params["residual"])
                if params["residual"] is not None else None)
    group_columns: List[str] = params["group_columns"]
    aggregates: List[E.AggregateExpression] = params["aggregates"]
    arguments = [compile_row(a) for a in params["arguments"]]
    input_columns: List[str] = params["input_columns"]

    catalog = relation.catalog
    columns = None
    data_columns = [c for c in input_columns if not catalog.column(c).is_rowkey()]
    if data_columns:
        columns = {
            (catalog.column(c).family, catalog.column(c).qualifier)
            for c in data_columns
        }
        columns |= params["filter_columns"]

    io_bytes = region.io_bytes_for_range(
        scan_range.start, scan_range.stop, None, columns
    )
    ledger.charge(io_bytes / cost.scan_bytes_per_sec, "hbase.bytes_scanned", io_bytes)

    rows, __ = region.scan_rows(scan_range.start, scan_range.stop, None, columns)
    if hbase_filter is not None:
        keep = hbase_filter.compile()
        evals_s = cost.cell_filter_cost_s * hbase_filter.cells_evaluated()
        kept = []
        for row_key, cells in rows:
            ledger.charge(evals_s, "hbase.filter_evals")
            if keep(row_key, cells):
                kept.append((row_key, cells))
        rows = kept
    # the rows the filter kept, decoded as one page; a zero-column page
    # (a bare COUNT(*)) is still one empty row per kept row
    decoded_columns, decoded = relation.codec.page_decoder(input_columns)(rows)
    column_index = {name: i for i, name in enumerate(input_columns)}
    table: Dict[tuple, list] = {}
    for row in (zip(*decoded_columns) if decoded_columns else [()] * len(rows)):
        if residual is not None and residual(row) is not True:
            continue
        key = tuple(row[column_index[g]] for g in group_columns)
        accs = table.get(key)
        if accs is None:
            accs = [a.init_acc() for a in aggregates]
            table[key] = accs
        for i, agg in enumerate(aggregates):
            accs[i] = agg.update(accs[i], arguments[i](row))
    ledger.charge(relation.decode_cell_cost() * decoded,
                  "hbase.server_side_decodes", decoded)
    return [(key, tuple(accs)) for key, accs in table.items()]


class CoprocessorAggregateRDD(RDD):
    """One partition per region; compute() invokes the endpoint remotely."""

    def __init__(self, relation: "HuaweiSparkHBaseRelation", scan_partitions,
                 params_base: dict) -> None:
        super().__init__()
        self.relation = relation
        self.scan_partitions = list(scan_partitions)
        self.params_base = params_base

    def partitions(self) -> List[Partition]:
        return [Partition(p.index, payload=p) for p in self.scan_partitions]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        return (partition.payload.host,)

    def compute(self, partition: Partition, ctx: "TaskContext"):
        scan_partition = partition.payload
        cluster = self.relation.cluster
        server = cluster.region_servers[scan_partition.server_id]
        for work in scan_partition.work:
            for scan_range in work.ranges:
                params = dict(self.params_base)
                params["scan_range"] = scan_range
                yield from server.exec_coprocessor(
                    work.location.region_name, aggregation_endpoint,
                    params, ctx.ledger,
                )


class CoprocessorAggregateExec(PhysicalPlan):
    """Partial aggregation in HBase, final merge in the engine.

    It scans as well as aggregates, so it books what a
    :class:`~repro.sql.physical.DataSourceScanExec` books, scoped to itself:
    the filters the region servers enforce (``shc.filters_pushed``, and
    the residual conjuncts they evaluate row by row as
    ``shc.filters_residual``), the regions read and pruned, and the
    ``relation`` / ``regions_total`` / ``partitions`` facts.
    """

    def __init__(self, relation: "HuaweiSparkHBaseRelation",
                 groupings: Sequence[E.Attribute],
                 aggregate_list: Sequence[E.Expression],
                 scan_partitions, params_base: dict, *, filters_pushed: int,
                 filters_residual: int, regions_total: int) -> None:
        output = []
        for item in aggregate_list:
            output.append(item.to_attribute() if isinstance(item, E.Alias) else item)
        super().__init__(output)
        self.relation = relation
        self.groupings = list(groupings)
        self.aggregate_list = list(aggregate_list)
        self.scan_partitions = scan_partitions
        self.params_base = params_base
        self.filters_pushed = filters_pushed
        self.filters_residual = filters_residual
        self.regions_total = regions_total

    def execute(self, ctx: ExecContext) -> RDD:
        op = self.op_id
        scanned = sum(len(p.work) for p in self.scan_partitions)
        ctx.metrics.incr("shc.filters_pushed", self.filters_pushed, op)
        ctx.metrics.incr("shc.filters_residual", self.filters_residual, op)
        ctx.metrics.incr("shc.regions_scanned", scanned, op)
        ctx.metrics.incr("shc.regions_pruned",
                         max(0, self.regions_total - scanned), op)
        ctx.record_operator(self, relation=self.relation.catalog.name,
                            regions_total=self.regions_total,
                            partitions=len(self.scan_partitions))
        partials = CoprocessorAggregateRDD(
            self.relation, self.scan_partitions, self.params_base
        )
        return finish_aggregate(ctx, partials, self.groupings, self.aggregate_list,
                                self.params_base["aggregates"])

    def describe(self) -> str:
        return (
            f"CoprocessorAggregate(keys={[g.name for g in self.groupings]}, "
            f"out={[a.name for a in self.output]})"
        )


class HuaweiSparkHBaseRelation(HBaseRelation):
    """SHC's relation plus coprocessor aggregate pushdown."""

    def plan_aggregate(
        self,
        groupings: Sequence[E.Expression],
        aggregate_list: Sequence[E.Expression],
        filters: Sequence[SourceFilter],
        residual: Optional[E.Expression],
        input_attrs: Sequence[E.Attribute],
    ) -> Optional[PhysicalPlan]:
        """Plan ``Aggregate(Filter(Scan))`` as coprocessor calls, or None."""
        schema_names = set(self.schema.names)
        if not all(isinstance(g, E.Attribute) and g.name in schema_names
                   for g in groupings):
            return None
        source_aggregates = aggregate_instances(aggregate_list)
        for node in source_aggregates:
            if not isinstance(node, _SUPPORTED_AGGREGATES) or node.distinct:
                return None
            if node.child is not None and not isinstance(node.child, E.Attribute):
                return None

        input_columns: List[str] = []
        for attr in input_attrs:
            if attr.name in schema_names and attr.name not in input_columns:
                input_columns.append(attr.name)

        plan = FilterPlan(self, filters)
        locations = self.cluster.region_locations(self.catalog.qualified_name)
        # coprocessor calls are per region (one endpoint invocation each)
        scan_partitions = build_partitions(locations, plan.ranges(),
                                           self.fusion_enabled)
        # each aggregate's argument (COUNT(*) reads a NULL), run server-side
        arguments = [
            E.bind_expression(agg.children[0], list(input_attrs))
            if agg.children else E.lit_of(None)
            for agg in source_aggregates
        ]
        bound_residual = (
            E.bind_expression(residual, list(input_attrs))
            if residual is not None else None
        )
        params_base = {
            "relation": self,
            "hbase_filter": plan.hbase_filter,
            "residual": bound_residual,
            "group_columns": [g.name for g in groupings],
            "aggregates": source_aggregates,
            "arguments": arguments,
            "input_columns": [a.name for a in input_attrs],
            "filter_columns": plan.filter_columns,
        }
        return CoprocessorAggregateExec(
            self, list(groupings), list(aggregate_list), scan_partitions,
            params_base, filters_pushed=len(filters) - len(plan.unhandled),
            filters_residual=(len(E.split_conjuncts(residual))
                              if residual is not None else 0),
            regions_total=len(locations),
        )


class HuaweiRelationProvider(HBaseRelationProvider):
    """Registers the coprocessor connector under its format names."""

    def create_relation(self, options, session) -> HuaweiSparkHBaseRelation:
        return HuaweiSparkHBaseRelation(options, session)


register_provider(HUAWEI_FORMAT, HuaweiRelationProvider())
register_provider("huawei-hbase", HuaweiRelationProvider())
