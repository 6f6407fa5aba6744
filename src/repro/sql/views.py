"""Materialized views: storage, CDC-driven maintenance, query rewriting.

``CREATE MATERIALIZED VIEW <name> AS <select>`` persists a GROUP BY
aggregate over one HBase table as a real HBase table whose composite row
key is derived from the group-by keys -- so a dashboard query that the
optimizer answers from the view becomes a pruned point-range read instead
of a full base-table scan (ROADMAP item 1, after Hive's materialized-view
rewriting).  Three cooperating pieces live here:

- **Definition & storage** (:func:`derive_view_definition`).  The defining
  query is analyzed and restricted to the one shape we can maintain
  exactly: ``GROUP BY`` plain columns of one HBase table with
  Count/Sum/Avg/Min/Max aggregates.  The view's storage catalog leads with
  the group-by columns so group predicates prune regions, and Avg
  additionally persists hidden ``(sum, count)`` helper columns so it can
  be maintained incrementally without losing exactness.
- **Incremental maintenance** (:class:`ViewMaintainer`).  A WAL-tailing
  :class:`~repro.hbase.cdc.CDCStream` subscription delivers base-table
  Puts and Deletes; fresh inserts apply as additive deltas, a count/sum/avg
  overwrite retracts the prior version, other overwrites and tombstones
  recount just the affected groups through a row-key prefix scan.  Shapes
  the incremental path cannot repair exactly invalidate the view, before
  any view row is written, until ``REFRESH MATERIALIZED VIEW`` recomputes
  it.  All maintenance I/O is billed to a cluster-owned cost ledger under
  ``sql.view.*`` counters.
- **Automatic rewriting** (:func:`rewrite_with_views`).  During
  optimization, a matching Aggregate subtree is replaced by a scan of the
  view -- but only when the view is *fresh enough*: not invalidated, and
  its CDC lag (simulated seconds of unshipped WAL tail) is within
  ``sql.view.staleness``.  The replacement is priced against the base
  plan -- with ANALYZE statistics where the base table has them, else by
  relation size -- and every decision surfaces in EXPLAIN's "Materialized
  Views" section.

``CREATE MATERIALIZED VIEW`` is the opt-in: in a session that never ran a
view statement no code here runs and every ledger is what it would be
without this module (tests/differential/test_relations.py).
"""

from __future__ import annotations

import functools
import json
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AnalysisError, NullKeyError
from repro.common.metrics import CostLedger, MetricsRegistry
from repro.core.catalog import HBaseTableCatalog
from repro.core.keys import RowCodec, prefix_successor
from repro.core.relation import DEFAULT_FORMAT, QUORUM_OPTION, HBaseRelation
from repro.hbase.cell import Cell, CellType
from repro.hbase.client import ConnectionFactory, Delete, Get, Result, Scan
from repro.hbase.cluster import get_cluster
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.types import StructType, type_from_name

#: table attribute under which a view's definition JSON is persisted
VIEW_ATTRIBUTE = "shc.view.definition"

#: storage table name prefix (keeps view tables out of base-table namespace)
VIEW_TABLE_PREFIX = "mv_"

#: hidden helper columns (never exposed to the rewriter)
ROWS_HELPER = "_rows"

_AGG_NAMES = {E.Count: "count", E.Sum: "sum", E.Avg: "avg",
              E.Min: "min", E.Max: "max"}
_AGG_BUILDERS = {"count": E.Count, "sum": E.Sum, "avg": E.Avg,
                 "min": E.Min, "max": E.Max}

#: encoded width reserved for variable-width (string) key dimensions
KEY_DIMENSION_LENGTH = 64


class ViewDefinition:
    """Everything needed to rebuild, maintain and match one view."""

    def __init__(self, name: str, sql: str, quorum: str,
                 base_table: str, base_catalog: str,
                 group_by: Sequence[str], aggregates: Sequence[dict],
                 storage_catalog: str, public_catalog: str,
                 prefix_recountable: bool = False,
                 invalidated: bool = False) -> None:
        self.name = name
        self.sql = sql
        self.quorum = quorum
        self.base_table = base_table
        self.base_catalog = base_catalog
        #: group-by columns in storage row-key order
        self.group_by = list(group_by)
        #: [{"fn", "arg", "out", "type"}]
        self.aggregates = [dict(a) for a in aggregates]
        self.storage_catalog = storage_catalog
        self.public_catalog = public_catalog
        #: group-by columns form a prefix of the base row key, so affected
        #: groups can be recounted with one range scan
        self.prefix_recountable = prefix_recountable
        self.invalidated = invalidated

    @property
    def storage_table(self) -> str:
        return VIEW_TABLE_PREFIX + self.name

    @property
    def subscription_name(self) -> str:
        return f"view:{self.name}"

    @property
    def tables(self) -> List[str]:
        """The base tables whose changes the view's CDC feed carries."""
        return [self.base_table]

    def cdc_lag_s(self, cluster) -> float:
        """Simulated seconds of unshipped WAL tail behind this view."""
        if cluster.cdc is None or self.subscription_name not in \
                cluster.cdc.subscription_names():
            return 0.0
        return cluster.cdc.lag_s(self.subscription_name)

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name, "sql": self.sql,
            "quorum": self.quorum, "base_table": self.base_table,
            "base_catalog": self.base_catalog, "group_by": self.group_by,
            "aggregates": self.aggregates,
            "storage_catalog": self.storage_catalog,
            "public_catalog": self.public_catalog,
            "prefix_recountable": self.prefix_recountable,
            "invalidated": self.invalidated,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ViewDefinition":
        spec = json.loads(text)
        return cls(**spec)


# -- definition derivation -------------------------------------------------------

def _strip_scopes(node: L.LogicalPlan) -> L.LogicalPlan:
    while isinstance(node, L.SubqueryAlias):
        node = node.children[0]
    return node


def _hbase_leaf(node: L.LogicalPlan):
    """The node as an HBase-backed LogicalRelation, or None."""
    node = _strip_scopes(node)
    if isinstance(node, L.LogicalRelation):
        relation = node.relation
        if hasattr(relation, "catalog") and hasattr(relation, "cluster"):
            return node
    return None


def _key_column_spec(name: str, dtype, length: Optional[int],
                     terminal: bool) -> dict:
    spec = {"cf": "rowkey", "col": name, "type": dtype.name}
    if length is not None:
        spec["length"] = length
    elif dtype.fixed_width is None and not terminal:
        spec["length"] = KEY_DIMENSION_LENGTH
    return spec


def _view_catalog_json(table_name: str, coder: str, key_columns: List[dict],
                       data_columns: List[dict]) -> str:
    return json.dumps({
        "table": {"namespace": "default", "name": table_name,
                  "tableCoder": coder, "Version": "2.0"},
        "rowkey": ":".join(spec["col"] for spec in key_columns),
        "columns": {spec["col"]: dict(spec) for spec in key_columns + data_columns},
    })


_NOT_ONE_TABLE = (
    "an aggregate materialized view must group one HBase table "
    "directly (no filters, joins or subqueries in the definition)"
)


def _read_aggregate(agg: L.Aggregate):
    """The shape of a GROUP BY a view can hold, read once for both users.

    Returns ``(leaf, condition, items)`` -- the grouped HBase leaf, the
    filter between it and the Aggregate (None without one) and one
    ``(select item, fn, arg)`` per select-list entry, ``fn`` None for a
    grouping column named ``arg`` -- or, as a string, the reason no view
    holds this shape: the definition raises it, the rewriter declines on it.
    """
    child = agg.children[0]
    condition = None
    if isinstance(child, L.Filter):
        condition = child.condition
        child = child.children[0]
    leaf = _hbase_leaf(child)
    if leaf is None:
        return _NOT_ONE_TABLE
    attr_names = {a.attr_id: a.name for a in leaf.output}
    if not agg.groupings:
        return "a materialized view needs at least one GROUP BY column"
    for g in agg.groupings:
        if not isinstance(g, E.Attribute) or g.attr_id not in attr_names:
            return (f"materialized-view GROUP BY supports plain columns only, "
                    f"not {g!r}")
    grouping_ids = {g.attr_id for g in agg.groupings}
    items: List[Tuple[E.Expression, Optional[str], Optional[str]]] = []
    for item in agg.aggregate_list:
        expr = item if isinstance(item, E.Attribute) else item.child
        if isinstance(expr, E.Attribute):
            if expr.attr_id not in grouping_ids:
                return f"{expr!r} is not a grouping column"
            items.append((item, None, expr.name))
            continue
        fn = _AGG_NAMES.get(type(expr))
        if fn is None or not isinstance(expr, E.AggregateExpression):
            return (f"materialized views support count/sum/avg/min/max, "
                    f"not {item!r}")
        if expr.distinct:
            return "DISTINCT aggregates cannot be maintained incrementally"
        arg: Optional[str] = None
        if expr.children:
            operand = expr.children[0]
            if not isinstance(operand, E.Attribute) \
                    or operand.attr_id not in attr_names:
                return (f"aggregate arguments must be plain columns, "
                        f"not {operand!r}")
            arg = operand.name
        items.append((item, fn, arg))
    return leaf, condition, items


def derive_view_definition(name: str, analyzed: L.LogicalPlan,
                           sql_text: str) -> ViewDefinition:
    """Validate a defining query and derive the view's stored layout."""
    agg = _strip_scopes(analyzed)
    if not isinstance(agg, L.Aggregate):
        raise AnalysisError(
            "a materialized view must be a GROUP BY aggregate over one "
            "HBase table")
    shape = _read_aggregate(agg)
    if isinstance(shape, str):
        raise AnalysisError(shape)
    leaf, condition, items = shape
    if condition is not None:
        raise AnalysisError(_NOT_ONE_TABLE)
    relation = leaf.relation
    catalog = relation.catalog

    group_by = [g.name for g in agg.groupings]
    if len(set(group_by)) != len(group_by):
        raise AnalysisError("duplicate GROUP BY column in view definition")
    aggregates = [{"fn": fn, "arg": arg, "out": item.name,
                   "type": item.child.data_type().name}
                  for item, fn, arg in items if fn is not None]
    if not aggregates:
        raise AnalysisError("a materialized view needs at least one aggregate")

    outs = [a["out"] for a in aggregates]
    helper_names = [ROWS_HELPER] + [
        h for a in aggregates if a["fn"] == "avg"
        for h in (f"_sum_{a['out']}", f"_cnt_{a['out']}")
    ]
    taken: Set[str] = set()
    for out in outs + group_by + helper_names:
        if out in taken:
            raise AnalysisError(
                f"view output name {out!r} is used more than once"
            )
        taken.add(out)

    # storage row key: group columns, in base row-key order when they form
    # a prefix of it (then tombstones recount with one prefix range scan)
    key_prefix = list(catalog.row_key[:len(group_by)])
    prefix_recountable = set(group_by) == set(key_prefix)
    if prefix_recountable:
        group_by = key_prefix

    attr_by_name = {a.name: a for a in leaf.output}
    key_columns = []
    for i, g in enumerate(group_by):
        dtype = attr_by_name[g].dtype
        base_col = catalog.columns.get(g)
        length = base_col.length if base_col is not None else None
        key_columns.append(
            _key_column_spec(g, dtype, length, i == len(group_by) - 1))

    data_columns = [{"cf": "m", "col": a["out"], "type": a["type"]}
                    for a in aggregates]
    helper_columns = [{"cf": "m", "col": ROWS_HELPER, "type": "bigint"}]
    for a in aggregates:
        if a["fn"] != "avg":
            continue
        sum_type = E.Sum(attr_by_name[a["arg"]]).data_type().name
        helper_columns.append(
            {"cf": "m", "col": f"_sum_{a['out']}", "type": sum_type})
        helper_columns.append(
            {"cf": "m", "col": f"_cnt_{a['out']}", "type": "bigint"})

    table_name = VIEW_TABLE_PREFIX + name
    coder = catalog.table_coder
    storage = _view_catalog_json(table_name, coder, key_columns,
                                 data_columns + helper_columns)
    public = _view_catalog_json(table_name, coder, key_columns, data_columns)
    return ViewDefinition(
        name=name, sql=sql_text,
        quorum=relation.cluster.quorum,
        base_table=catalog.qualified_name,
        base_catalog=relation.options.get("catalog"),
        group_by=group_by, aggregates=aggregates,
        storage_catalog=storage, public_catalog=public,
        prefix_recountable=prefix_recountable,
    )


# -- materialization -------------------------------------------------------------

def _relation(vdef: ViewDefinition, catalog: str, session) -> HBaseRelation:
    """The relation reading ``catalog`` on the view's cluster."""
    return HBaseRelation({HBaseTableCatalog.tableCatalog: catalog,
                          QUORUM_OPTION: vdef.quorum}, session)


def definition_plan(vdef: ViewDefinition, session) -> L.LogicalPlan:
    """The augmented plan whose output is the view's *storage* schema.

    Rebuilt from the persisted definition (never from the user's original
    plan object) so CREATE and REFRESH materialize the exact same query.
    """
    leaf = L.LogicalRelation(_relation(vdef, vdef.base_catalog, session))
    by_name = {a.name: a for a in leaf.output}
    groupings = [by_name[g] for g in vdef.group_by]
    items: List[E.Expression] = [E.Alias(by_name[g], g) for g in vdef.group_by]
    for a in vdef.aggregates:
        builder = _AGG_BUILDERS[a["fn"]]
        arg = by_name[a["arg"]] if a["arg"] is not None else None
        items.append(E.Alias(builder(arg), a["out"]))
    items.append(E.Alias(E.Count(None), ROWS_HELPER))
    for a in vdef.aggregates:
        if a["fn"] != "avg":
            continue
        arg = by_name[a["arg"]]
        items.append(E.Alias(E.Sum(arg), f"_sum_{a['out']}"))
        items.append(E.Alias(E.Count(arg), f"_cnt_{a['out']}"))
    return L.Aggregate(groupings, items, leaf)


# -- the manager -----------------------------------------------------------------

class ViewManager:
    """One session's registry of materialized views (docs/views.md)."""

    def __init__(self, session) -> None:
        self.session = session
        self._views: Dict[str, ViewDefinition] = {}
        self._maintainers: Dict[str, "ViewMaintainer"] = {}

    # -- statements --------------------------------------------------------
    def create(self, name: str, child: L.LogicalPlan, sql_text: str):
        """CREATE MATERIALIZED VIEW: derive, subscribe, materialize, persist."""
        name = name.lower()
        if name in self._views:
            raise AnalysisError(f"materialized view {name!r} already exists")
        analyzed = self.session.analyze(child)
        vdef = derive_view_definition(name, analyzed, sql_text)
        cluster = get_cluster(vdef.quorum)
        if cluster.has_table(vdef.storage_table):
            raise AnalysisError(
                f"table {vdef.storage_table!r} already exists on the cluster"
            )
        feeding = cluster.cdc is not None
        stream = cluster.enable_cdc()
        maintainer = ViewMaintainer(vdef, cluster)
        # subscribe *before* materializing: the snapshot then covers exactly
        # the WAL history before the subscription baseline, and the feed
        # exactly what lands after it
        stream.subscribe(vdef.subscription_name, vdef.tables,
                         maintainer.on_change)
        try:
            write = self._materialize(vdef)
        except Exception as failure:
            # leave the cluster as CREATE found it
            stream.unsubscribe(vdef.subscription_name)
            if not feeding:
                cluster.disable_cdc()
            if cluster.has_table(vdef.storage_table):
                cluster.drop_table(vdef.storage_table)
            if isinstance(failure.__cause__, NullKeyError):
                raise AnalysisError(
                    f"materialized view {name!r}: group column "
                    f"{failure.__cause__.dimension!r} holds NULL, and a view "
                    f"row is keyed by its group"
                ) from failure
            raise
        self._persist(cluster, vdef)
        self._views[name] = vdef
        self._maintainers[name] = maintainer
        metrics = MetricsRegistry()
        metrics.merge(write.metrics)
        metrics.incr("sql.view.created")
        return _summary(
            ("view", "string"), ("table", "string"),
            ("rows_written", "bigint"),
            rows=[(name, vdef.storage_table, write.rows_written)],
            metrics=metrics,
        )

    def refresh(self, name: str):
        """REFRESH MATERIALIZED VIEW: full recompute, feed re-based."""
        vdef = self._lookup(name)
        cluster = get_cluster(vdef.quorum)
        stream = cluster.enable_cdc()
        maintainer = self._maintainers[vdef.name]
        # re-base the subscription first: the fresh snapshot includes every
        # change up to this instant, so the old cursor state must not replay
        stream.unsubscribe(vdef.subscription_name)
        stream.subscribe(vdef.subscription_name, vdef.tables,
                         maintainer.on_change)
        # as in create(), the view is unregistered while it materializes:
        # the write plans like any query, and the defining query must not be
        # rewritten onto the very table it is overwriting
        del self._views[vdef.name]
        try:
            write = self._materialize(vdef)
        finally:
            self._views[vdef.name] = vdef
        vdef.invalidated = False
        self._persist(cluster, vdef)
        metrics = MetricsRegistry()
        metrics.merge(write.metrics)
        metrics.incr("sql.view.refreshed")
        return _summary(
            ("view", "string"), ("rows_written", "bigint"),
            rows=[(vdef.name, write.rows_written)], metrics=metrics,
        )

    def drop(self, name: str):
        """DROP MATERIALIZED VIEW: storage, subscription and registration."""
        vdef = self._lookup(name)
        cluster = get_cluster(vdef.quorum)
        if cluster.cdc is not None:
            cluster.cdc.unsubscribe(vdef.subscription_name)
        if cluster.has_table(vdef.storage_table):
            cluster.drop_table(vdef.storage_table)
        self._views.pop(vdef.name, None)
        self._maintainers.pop(vdef.name, None)
        metrics = MetricsRegistry()
        metrics.incr("sql.view.dropped")
        return _summary(("dropped", "string"), rows=[(vdef.name,)],
                        metrics=metrics)

    def show(self):
        """SHOW MATERIALIZED VIEWS: one row per registered view."""
        rows = []
        for name in sorted(self._views):
            vdef = self._views[name]
            lag = vdef.cdc_lag_s(get_cluster(vdef.quorum))
            rows.append((name, vdef.base_table, vdef.storage_table,
                         bool(vdef.invalidated), lag))
        return _summary(
            ("view", "string"), ("base", "string"),
            ("table", "string"), ("invalidated", "boolean"),
            ("lag_s", "double"), rows=rows, metrics=None,
        )

    # -- registry ----------------------------------------------------------
    def definitions(self) -> List[ViewDefinition]:
        return [self._views[name] for name in sorted(self._views)]

    def maintainer(self, name: str) -> "ViewMaintainer":
        return self._maintainers[name.lower()]

    def hydrate(self, cluster) -> List[str]:
        """Adopt views persisted on ``cluster`` by an earlier session.

        Views whose CDC subscription is still live on the cluster keep
        their existing maintainer (re-subscribing would re-baseline the
        feed and drop pending changes); only orphaned views get a new one.
        """
        adopted: List[str] = []
        stream = None
        for table_name in sorted(cluster.active_master.tables):
            raw = cluster.get_table_attribute(table_name, VIEW_ATTRIBUTE)
            if raw is None:
                continue
            vdef = ViewDefinition.from_json(raw)
            if vdef.name in self._views:
                continue
            if stream is None:
                stream = cluster.enable_cdc()
            maintainer = ViewMaintainer(vdef, cluster)
            if vdef.subscription_name not in stream.subscription_names():
                stream.subscribe(vdef.subscription_name, vdef.tables,
                                 maintainer.on_change)
            self._views[vdef.name] = vdef
            self._maintainers[vdef.name] = maintainer
            adopted.append(vdef.name)
        return adopted

    # -- internals ---------------------------------------------------------
    def _lookup(self, name: str) -> ViewDefinition:
        vdef = self._views.get(name.lower())
        if vdef is None:
            raise AnalysisError(
                f"no materialized view named {name!r}; "
                f"known: {sorted(self._views)}"
            )
        return vdef

    def _materialize(self, vdef: ViewDefinition):
        plan = definition_plan(vdef, self.session)
        options = {
            HBaseTableCatalog.tableCatalog: vdef.storage_catalog,
            HBaseTableCatalog.newTable: "1",
            QUORUM_OPTION: vdef.quorum,
        }
        return self.session.execute_write(plan, DEFAULT_FORMAT, options,
                                          mode="overwrite")

    @staticmethod
    def _persist(cluster, vdef: ViewDefinition) -> None:
        cluster.set_table_attribute(vdef.storage_table, VIEW_ATTRIBUTE,
                                    vdef.to_json())


def _summary(*cols: Tuple[str, str], rows, metrics):
    schema = StructType()
    for name, type_name in cols:
        schema = schema.add(name, type_from_name(type_name))
    return schema, rows, metrics


# -- incremental maintenance -----------------------------------------------------

class ViewMaintainer:
    """Applies one view's CDC feed to its storage table.

    An HBase client plus two row codecs -- base table and view storage
    (docs/architecture.md "Row format"): maintenance reads
    and writes go through :class:`~repro.hbase.client.Table` with a
    cluster-owned :class:`~repro.common.metrics.CostLedger`, so every byte
    of maintenance I/O is billed (``sql.view.*`` counters name the work,
    the standard ``hbase.*`` counters the I/O).
    """

    def __init__(self, vdef: ViewDefinition, cluster) -> None:
        self.vdef = vdef
        self.cluster = cluster
        self.ledger = CostLedger(cluster.metrics)
        self.base = RowCodec(HBaseTableCatalog.from_json(vdef.base_catalog))
        self.storage = RowCodec(
            HBaseTableCatalog.from_json(vdef.storage_catalog))
        self._connection = None
        #: every running value can be taken back exactly: counts, and sums
        #: of integers (a float sum depends on the order of its adds)
        self._retractable = all(
            a["fn"] == "count" or (a["fn"] in ("sum", "avg") and self.base
                                   .catalog.column(a["arg"]).dtype.python_type is int)
            for a in vdef.aggregates)
        args = sorted({a["arg"] for a in vdef.aggregates if a["arg"]})
        #: what a base row is decoded to: the group-by columns, leading so
        #: that a row's group is its first ``_width`` values, and the
        #: aggregates' arguments
        self._columns = list(dict.fromkeys(vdef.group_by + args))
        self._width = len(vdef.group_by)
        self._args_at = [self._columns.index(a) for a in args]
        #: the positions of the data columns the definition's scan reads: a
        #: row with no cell in any of them is not in the view (a key-only
        #: view sees every row)
        self._read_at = [i for i, c in enumerate(self._columns)
                         if not self.base.catalog.column(c).is_rowkey()]
        counted = {a["arg"]: a["out"] if a["fn"] == "count" else f"_cnt_{a['out']}"
                   for a in vdef.aggregates
                   if a["fn"] in ("count", "avg") and a["arg"]}
        #: (sum, the column counting its argument's non-NULL values): a row
        #: may leave its group only if every sum has one
        self._sum_counts = [(a["out"], counted.get(a["arg"]))
                            for a in vdef.aggregates if a["fn"] == "sum"]
        self._movable = all(column for __, column in self._sum_counts)

    # -- plumbing ----------------------------------------------------------
    def _table(self, qualified_name: str):
        if self._connection is None or self._connection.closed:
            self._connection = ConnectionFactory.create_connection(
                self.cluster.configuration("view-maintainer"))
        return self._connection.get_table(qualified_name)

    def _invalidate(self) -> None:
        if self.vdef.invalidated:
            return
        self.vdef.invalidated = True
        self.cluster.set_table_attribute(self.vdef.storage_table,
                                         VIEW_ATTRIBUTE, self.vdef.to_json())
        self.ledger.count("sql.view.invalidations")

    @functools.cached_property
    def _decode_page(self):
        # bound on first use, as the codec binds its own decoders
        return self.base.page_decoder(self._columns)

    def _decode(self, page) -> List[Optional[tuple]]:
        """Base rows, decoded as one page into :attr:`_columns` value
        tuples, as the definition's scan sees them (None: not in it)."""
        columns = self._decode_page(page)[0]
        rows = list(zip(*columns))
        if not self._read_at:
            return rows
        present = map(any, zip(*[[v is not None for v in columns[i]]
                                 for i in self._read_at]))
        return [values if seen else None for values, seen in zip(rows, present)]

    # -- the CDC callback --------------------------------------------------
    def on_change(self, table: str, cells, fresh: FrozenSet[bytes]) -> None:
        """Apply one batch: a fresh row folds into its group as a delta, an
        exact overwrite swaps its prior version for the new one, and any
        other overwrite or delete recounts its group.  Whatever invalidates
        the view is decided before the first view row is written.

        A row the feed marks ``fresh`` (its region held no cell of it before
        the one entry that wrote it) is decoded from the batch's own cells:
        they are the whole row.  Only the other written rows, and a fresh
        one with a column written twice, are read back with one
        ``max_versions=2`` multi-get."""
        if self.vdef.invalidated:
            return  # feed keeps draining; REFRESH re-bases it
        self.ledger.count("sql.view.maintenance_batches")
        delete_rows: Set[bytes] = set()
        #: columns and versions the batch wrote; a row with a column written
        #: twice may hide its prior version past max_versions=2
        written: Set[Tuple[bytes, str, str]] = set()
        batch: Set[Tuple[bytes, str, str, int]] = set()
        twice: Set[bytes] = set()
        #: the fresh rows' cells, in the order the batch wrote them
        fresh_cells: Dict[bytes, List[Cell]] = {}
        put = CellType.PUT
        for cell in cells:
            if cell.cell_type != put:
                delete_rows.add(cell.row)
                continue
            column = (cell.row, cell.family, cell.qualifier)
            if column in written:
                twice.add(cell.row)
            written.add(column)
            batch.add(column + (cell.timestamp,))
            if cell.row in fresh:
                fresh_cells.setdefault(cell.row, []).append(cell)
        put_rows = {row for row, __, __ in written} - delete_rows
        # a recount is one prefix scan, so it needs the group-by columns to
        # lead the base row key
        recountable = self.vdef.prefix_recountable
        if delete_rows and not recountable:
            self._invalidate()
            return

        recount_rows = sorted(delete_rows)
        #: per changed row, (group, values, sign) of the version before the
        #: batch (none for a fresh row), which retracts, and of the new one
        changes: List[Tuple[Tuple[Tuple, tuple, int], ...]] = []
        width = self._width
        if put_rows:
            ordered = sorted(put_rows)
            asked = [row for row in ordered if row not in fresh_cells or row in twice]
            got: Dict[bytes, Result] = {}
            if asked:
                got = dict(zip(asked, self._table(self.vdef.base_table).bulk_get(
                    [Get(row).set_max_versions(2) for row in asked], self.ledger)))
            news = self._decode([(row, got[row].cells if row in got
                                  else fresh_cells[row]) for row in ordered])
            # puts only add cells: a row not in the view now was not before
            priors = [(row, _prior_cells(got[row], batch))
                      for row, new in zip(ordered, news)
                      if new is not None and row in got]
            priors = [(row, cells) for row, cells in priors if cells]
            olds = dict(zip([row for row, __ in priors], self._decode(priors)))
            for row, new in zip(ordered, news):
                if new is None:
                    continue
                old = olds.get(row)
                if row in twice or (old is not None and not self._exact(old, new)):
                    if not recountable:
                        self._invalidate()
                        return
                    recount_rows.append(row)
                    continue
                # a NULL group column is no group the view can store
                group = new[:width]
                if old is None:
                    if None in group:
                        self._invalidate()
                        return
                    changes.append(((group, new, 1),))
                    continue
                old_group = old[:width]
                if None in group or None in old_group:
                    self._invalidate()
                    return
                changes.append(((old_group, old, -1), (group, new, 1)))
        group_by = self.vdef.group_by
        recount_groups = {tuple(map(self.base.decode_key(row).__getitem__, group_by))
                          for row in recount_rows}

        #: per group and sign, its rows in row-key order
        folded: Dict[Tuple[Tuple, int], List[tuple]] = {}
        applied = 0
        for versions in changes:
            if versions[-1][0] in recount_groups:
                continue  # the recount reads the new version itself
            applied += 1
            for group, values, sign in versions:
                folded.setdefault((group, sign), []).append(values)
        deltas: Dict[Tuple, "_GroupDelta"] = {}
        for (group, sign), rows in folded.items():
            if group not in deltas:
                deltas[group] = self._delta()
            deltas[group].add_all(rows, sign)
        if applied:
            self.ledger.count("sql.view.delta_rows", applied)
        if recount_groups:
            self.ledger.count("sql.view.recounts", len(recount_groups))
        self._write(deltas, recount_groups)

    def _exact(self, old: tuple, new: tuple) -> bool:
        """Can an overwrite retract ``old`` and add ``new`` exactly?"""
        return (self._retractable
                and all(old[i] is not None and new[i] is not None
                        for i in self._args_at)
                and (self._movable or old[:self._width] == new[:self._width]))

    def _write(self, deltas: Dict[Tuple, "_GroupDelta"],
               recount_groups: Set[Tuple]) -> None:
        """Read every view row the batch touches with one multi-get, fold in
        its delta or recount, and write the rows back with one put; an
        emptied group's row, and a column that became NULL, are deleted."""
        groups = sorted(set(deltas) | recount_groups)
        if not groups:
            return
        view = self._table(self.vdef.storage_table)
        keys = [self.storage.encode_key(dict(zip(self.vdef.group_by, group)))
                for group in groups]
        puts, deletes = [], []
        results = view.bulk_get([Get(key) for key in keys], self.ledger)
        befores = self.storage.decode_rows(
            [(key, result.cells) for key, result in zip(keys, results)])
        for group, key, result, before in zip(groups, keys, results, befores):
            if group in recount_groups:
                stored = dict(zip(self.vdef.group_by, group))
                self._recount(group).merge_into(stored)
            else:
                stored = dict(before)
                deltas[group].merge_into(stored)
            for out, count_column in self._sum_counts:
                if count_column and not stored[count_column]:
                    stored[out] = None  # the group's last non-NULL value left
            if not stored[ROWS_HELPER]:
                if not result.is_empty():
                    deletes.append(Delete(key))
                continue
            puts.append(self.storage.encode_row(stored))
            cleared = [c for c in self.storage.catalog.data_columns()
                       if stored.get(c.name) is None
                       and before.get(c.name) is not None]
            if cleared:
                deletes.append(Delete(key))
                for column in cleared:
                    deletes[-1].add_column(column.family, column.qualifier)
        if puts:
            view.put(puts, self.ledger)
        for delete in deletes:
            view.delete(delete, self.ledger)

    def _recount(self, group: Tuple) -> "_GroupDelta":
        """One group recomputed from a base row-key prefix range scan."""
        prefix = self.base.key_prefix(group)
        delta = self._delta()
        results = self._table(self.vdef.base_table).scan(
            Scan(prefix, prefix_successor(prefix)), self.ledger)
        delta.add_all([values for values in self._decode(
            [(result.row, result.cells) for result in results])
            if values is not None])
        return delta

    def _delta(self) -> "_GroupDelta":
        return _GroupDelta(self.vdef, self._columns)


def _prior_cells(result: Result,
                 batch: Set[Tuple[bytes, str, str, int]]) -> List[Cell]:
    """The row as it stood before the batch: per column, the newest of the
    (up to two) versions returned that the batch did not write."""
    prior: Dict[Tuple[str, str], Cell] = {}
    for cell in result.cells:
        if (cell.row, cell.family, cell.qualifier, cell.timestamp) not in batch:
            prior.setdefault((cell.family, cell.qualifier), cell)
    return list(prior.values())


class _GroupDelta:
    """Signed per-group accumulators: a group's base rows -- value tuples
    laid out as ``columns`` -- fold in with ``add_all`` and retracted
    versions fold out with ``add_all(rows, -1)`` (count, and sum and avg of
    integers, only)."""

    def __init__(self, vdef: ViewDefinition, columns: Sequence[str]) -> None:
        self.vdef = vdef
        self.rows = 0
        #: (output, position of its argument), per aggregate with one
        self._args = [(a["out"], columns.index(a["arg"]))
                      for a in vdef.aggregates if a["arg"] is not None]
        self.values: Dict[str, List[object]] = {out: [] for out, __ in self._args}
        self.counts: Dict[str, int] = dict.fromkeys(self.values, 0)

    def add_all(self, rows: Sequence[tuple], sign: int = 1) -> None:
        """Fold ``rows`` in (or, with ``sign`` -1, out), their values in
        the order given."""
        self.rows += sign * len(rows)
        for out, at in self._args:
            nonnull = [row[at] for row in rows if row[at] is not None]
            self.values[out].extend(nonnull if sign > 0 else [-v for v in nonnull])
            self.counts[out] += sign * len(nonnull)

    def merge_into(self, stored: Dict[str, object]) -> None:
        stored[ROWS_HELPER] = (stored.get(ROWS_HELPER) or 0) + self.rows
        for a in self.vdef.aggregates:
            out = a["out"]
            fn = a["fn"]
            nonnull = self.values.get(out, [])
            if fn == "count":
                amount = self.rows if a["arg"] is None else self.counts[out]
                stored[out] = (stored.get(out) or 0) + amount
            elif fn in ("sum", "avg"):
                total_col = out if fn == "sum" else f"_sum_{out}"
                if nonnull:
                    old = stored.get(total_col)
                    total = sum(nonnull)
                    stored[total_col] = total if old is None else old + total
                if fn == "avg":
                    cnt_col = f"_cnt_{out}"
                    count = (stored.get(cnt_col) or 0) + self.counts[out]
                    stored[cnt_col] = count
                    if not count:
                        stored[total_col] = None
                    stored[out] = (stored[total_col] / count) if count else None
            elif nonnull:
                pick = min if fn == "min" else max
                old = stored.get(out)
                best = pick(nonnull)
                stored[out] = best if old is None else pick(old, best)


# -- automatic query rewriting ---------------------------------------------------

class ViewCandidate:
    """One view plus its freshness at rewrite time."""

    __slots__ = ("vdef", "fresh", "lag_s", "invalidated", "size_bytes")

    def __init__(self, vdef: ViewDefinition, fresh: bool, lag_s: float,
                 invalidated: bool, size_bytes: int) -> None:
        self.vdef = vdef
        self.fresh = fresh
        self.lag_s = lag_s
        self.invalidated = invalidated
        self.size_bytes = size_bytes


class ViewRewriteContext:
    """Per-query rewrite state threaded through :func:`optimize`."""

    def __init__(self, session, candidates: List[ViewCandidate]) -> None:
        self.session = session
        self.candidates = candidates
        #: the planning pass's cardinality estimator, set by ``optimize``;
        #: None when no table of the query has ANALYZE statistics
        self.estimator = None
        self.events: List[Dict[str, object]] = []
        #: planning-time registry the session merges into the query result
        self.metrics: Optional[MetricsRegistry] = None

    def record(self, action: str, candidate: ViewCandidate,
               view_bytes: float, base_bytes: float) -> None:
        self.events.append({
            "view": candidate.vdef.name, "action": action,
            "view_bytes": float(view_bytes), "base_bytes": float(base_bytes),
            "lag_s": candidate.lag_s,
        })
        if self.metrics is None:
            return
        if action == "rewrites":
            self.metrics.incr("sql.view.rewrites")
        elif action == "rejected_stale":
            self.metrics.incr("sql.view.rejected_stale")
        elif action == "rejected_cost":
            self.metrics.incr("sql.view.rejected_cost")


def build_rewrite_context(session) -> Optional[ViewRewriteContext]:
    """The query's rewrite context, or None when views cannot apply."""
    manager = getattr(session, "_view_manager", None)
    if manager is None:
        return None
    definitions = manager.definitions()
    if not definitions:
        return None
    staleness = float(session.conf.get("sql.view.staleness", 0.0) or 0.0)
    candidates: List[ViewCandidate] = []
    for vdef in definitions:
        cluster = get_cluster(vdef.quorum)
        if not cluster.has_table(vdef.storage_table):
            continue
        # the persisted flag is authoritative: another session's maintainer
        # may have invalidated the view since we registered it
        raw = cluster.get_table_attribute(vdef.storage_table, VIEW_ATTRIBUTE)
        invalidated = vdef.invalidated
        if raw is not None:
            invalidated = bool(json.loads(raw).get("invalidated", False))
        lag = vdef.cdc_lag_s(cluster)
        fresh = (not invalidated) and lag <= staleness
        size = cluster.table_size_bytes(vdef.storage_table)
        candidates.append(ViewCandidate(vdef, fresh, lag, invalidated, size))
    if not candidates:
        return None
    return ViewRewriteContext(session, candidates)


def rewrite_with_views(plan: L.LogicalPlan,
                       ctx: ViewRewriteContext) -> L.LogicalPlan:
    """Replace matching Aggregates with view scans (post-pushdown rule)."""

    def rule(node: L.LogicalPlan) -> Optional[L.LogicalPlan]:
        if not isinstance(node, L.Aggregate):
            return None
        shape = _read_aggregate(node)
        if isinstance(shape, str):
            return None  # the reason no view holds this shape
        for candidate in ctx.candidates:
            replacement = _try_rewrite(node, shape, candidate, ctx)
            if replacement is not None:
                return replacement
        return None

    return plan.transform_up(rule)


def _base_bytes(leaf: L.LogicalRelation, ctx: ViewRewriteContext) -> float:
    """Bytes the base plan must scan to answer the aggregate.

    Priced at the *leaf*: answering from base means scanning the base
    table, however small the aggregated output ends up.  With ANALYZE
    statistics the estimator refines the leaf's size; without them it
    falls back to the relation's metadata size.
    """
    estimate = ctx.estimator.estimate(leaf) \
        if ctx.estimator is not None else None
    if estimate is not None and estimate.confident:
        return float(estimate.bytes)
    return float(leaf.relation.size_in_bytes())


def _try_rewrite(agg: L.Aggregate, shape, candidate: ViewCandidate,
                 ctx: ViewRewriteContext) -> Optional[L.LogicalPlan]:
    """The scan of ``candidate`` that answers ``agg``, or None.

    A structural match must then pass two gates, each decision recorded:
    the view is fresh, and it is strictly smaller than the base table.
    """
    vdef = candidate.vdef
    leaf, condition, select_items = shape
    if leaf.relation.catalog.qualified_name != vdef.base_table:
        return None
    group_names = {g.attr_id: g.name for g in agg.groupings}
    if set(group_names.values()) != set(vdef.group_by):
        return None
    if condition is not None \
            and not condition.references() <= group_names.keys():
        return None

    spec_aggs = {(a["fn"], a["arg"]): a["out"] for a in vdef.aggregates}
    # (output name, attr_id, view column) for every select item
    mapping: List[Tuple[str, int, str]] = []
    for item, fn, arg in select_items:
        view_col = arg if fn is None else spec_aggs.get((fn, arg))
        if view_col is None:
            return None
        mapping.append((item.name, item.attr_id, view_col))

    base_bytes = _base_bytes(leaf, ctx)
    if not candidate.fresh:
        ctx.record("rejected_stale", candidate, candidate.size_bytes,
                   base_bytes)
        return None
    if candidate.size_bytes >= base_bytes:
        ctx.record("rejected_cost", candidate, candidate.size_bytes,
                   base_bytes)
        return None

    view_leaf = L.LogicalRelation(
        _relation(vdef, vdef.public_catalog, ctx.session),
        name=vdef.storage_table)
    view_attrs = {a.name: a for a in view_leaf.output}
    scan: L.LogicalPlan = view_leaf
    if condition is not None:
        substitution = {
            attr_id: view_attrs[name] for attr_id, name in group_names.items()
        }

        def remap(expr_node: E.Expression) -> Optional[E.Expression]:
            if isinstance(expr_node, E.Attribute):
                return substitution.get(expr_node.attr_id)
            return None

        scan = L.Filter(condition.transform(remap), view_leaf)
    items = [
        E.Alias(view_attrs[view_col], out_name, attr_id=attr_id)
        for out_name, attr_id, view_col in mapping
    ]
    ctx.record("rewrites", candidate, candidate.size_bytes, base_bytes)
    return L.Project(items, scan)
