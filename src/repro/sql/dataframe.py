"""The DataFrame API -- the programming surface of the paper's Code 2-5.

DataFrames are *eagerly analyzed* (like Spark): every transformation runs the
analyzer so errors surface immediately and ``df.schema`` is always available.
Execution (``collect`` / ``run``) optimizes, plans and runs the query on the
session's compute cluster, returning rows plus a full :class:`QueryResult`
with simulated seconds and metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union, TYPE_CHECKING

from repro.common.errors import AnalysisError
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.fingerprint import BoundPlan
from repro.sql.functions import Column, col
from repro.sql.parser import parse_expression
from repro.sql.row import Row
from repro.sql.types import StructType

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import QueryResult, SparkSession, WriteResult

ColumnLike = Union[str, Column]


class DataFrame:
    """An analyzed logical plan bound to a session."""

    def __init__(self, session: "SparkSession",
                 plan: "L.LogicalPlan | BoundPlan", pending_metrics=None) -> None:
        self.session = session
        #: what ``plan_query`` takes: the analyzed plan, or (from ``sql()``) a
        #: plan-cache entry with this statement's values, analyzed on demand
        self.query = plan if isinstance(plan, BoundPlan) \
            else session.analyze(plan)
        # counters charged while *building* this frame (ANALYZE TABLE's
        # collection scan) that must surface on the result it returns
        self._pending_metrics = pending_metrics

    @property
    def plan(self) -> L.LogicalPlan:
        """The analyzed logical plan."""
        query = self.query
        return query.analyzed() if isinstance(query, BoundPlan) else query

    # -- schema ----------------------------------------------------------------
    @property
    def schema(self) -> StructType:
        return self.plan.schema()

    @property
    def columns(self) -> List[str]:
        return self.plan.schema().names

    # -- transformations -----------------------------------------------------------
    def select(self, *columns: ColumnLike) -> "DataFrame":
        if not columns:
            raise AnalysisError("select() needs at least one column")
        items = [self._to_named_expr(c) for c in columns]
        return DataFrame(self.session, L.Project(items, self.plan))

    def filter(self, condition: ColumnLike) -> "DataFrame":
        expr = (
            parse_expression(condition) if isinstance(condition, str)
            else condition.expr
        )
        return DataFrame(self.session, L.Filter(expr, self.plan))

    where = filter

    def select_expr(self, *expressions: str) -> "DataFrame":
        """``df.select_expr("k + 1 as k2", "upper(g)")`` -- parsed select."""
        from repro.sql.functions import expr

        return self.select(*(expr(text) for text in expressions))

    selectExpr = select_expr

    def drop(self, *names: str) -> "DataFrame":
        """Remove columns by name (missing names are ignored, like Spark)."""
        doomed = set(names)
        kept = [a for a in self.plan.output if a.name not in doomed]
        if not kept:
            raise AnalysisError("drop() would remove every column")
        return DataFrame(self.session, L.Project(kept, self.plan))

    def with_column_renamed(self, existing: str, new: str) -> "DataFrame":
        """Rename one column (no-op if it does not exist, like Spark)."""
        items: List[E.Expression] = []
        for attr in self.plan.output:
            if attr.name == existing:
                items.append(E.Alias(attr, new))
            else:
                items.append(attr)
        return DataFrame(self.session, L.Project(items, self.plan))

    withColumnRenamed = with_column_renamed

    def with_column(self, name: str, column: Column) -> "DataFrame":
        items: List[E.Expression] = list(self.plan.output)
        items.append(E.Alias(column.expr, name))
        return DataFrame(self.session, L.Project(items, self.plan))

    def join(self, other: "DataFrame", on: Union[ColumnLike, Sequence[str]],
             how: str = "inner") -> "DataFrame":
        if isinstance(on, Column):
            condition = on.expr
            return DataFrame(
                self.session, L.Join(self.plan, other.plan, how, condition)
            )
        names = [on] if isinstance(on, str) else list(on)
        condition = None
        right_join_ids = set()
        for name in names:
            left_attr = self._resolve_output(self.plan, name)
            right_attr = self._resolve_output(other.plan, name)
            right_join_ids.add(right_attr.attr_id)
            term = E.Comparison("=", left_attr, right_attr)
            condition = term if condition is None else E.And(condition, term)
        joined = L.Join(self.plan, other.plan, how, condition)
        # Spark semantics for name joins: the join columns appear once
        kept = list(self.plan.output) + [
            a for a in other.plan.output if a.attr_id not in right_join_ids
        ]
        return DataFrame(self.session, L.Project(kept, joined))

    def group_by(self, *columns: ColumnLike) -> "GroupedData":
        groupings = [self._to_expr(c) for c in columns]
        return GroupedData(self, groupings)

    groupBy = group_by

    def agg(self, *aggregations: Column) -> "DataFrame":
        return GroupedData(self, []).agg(*aggregations)

    def order_by(self, *columns: ColumnLike) -> "DataFrame":
        orders = []
        for column in columns:
            expr = self._to_expr(column)
            descending = isinstance(column, Column) and getattr(
                column, "_descending", False
            )
            orders.append(L.SortOrder(expr, not descending))
        return DataFrame(self.session, L.Sort(orders, self.plan))

    orderBy = order_by

    def limit(self, n: int) -> "DataFrame":
        return DataFrame(self.session, L.Limit(n, self.plan))

    def distinct(self) -> "DataFrame":
        return DataFrame(self.session, L.Distinct(self.plan))

    def union(self, other: "DataFrame") -> "DataFrame":
        return DataFrame(
            self.session, L.SetOperation("union", self.plan, other.plan, all_rows=True)
        )

    def intersect(self, other: "DataFrame") -> "DataFrame":
        return DataFrame(
            self.session, L.SetOperation("intersect", self.plan, other.plan)
        )

    # -- actions -----------------------------------------------------------------
    def run(self) -> "QueryResult":
        """Execute and return rows *plus* simulated time and metrics."""
        result = self.session.execute_plan(self.query)
        if self._pending_metrics is not None:
            result.metrics.merge(self._pending_metrics)
        return result

    def collect(self) -> List[Row]:
        return self.run().rows

    def count(self) -> int:
        counted = DataFrame(
            self.session,
            L.Aggregate([], [E.Alias(E.Count(None), "count")], self.plan),
        )
        return counted.collect()[0][0]

    def show(self, n: int = 20) -> None:
        rows = self.limit(n).collect()
        names = self.columns
        widths = [
            max(len(name), *(len(str(r[i])) for r in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        line = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        print(line)
        print("|" + "|".join(f" {name:<{w}} " for name, w in zip(names, widths)) + "|")
        print(line)
        for row in rows:
            print("|" + "|".join(
                f" {str(v):<{w}} " for v, w in zip(row.values, widths)
            ) + "|")
        print(line)

    def explain(self, analyze: bool = False) -> str:
        """The optimized logical and physical plans, as text.

        With ``analyze=True`` the query is *executed* (once, with tracing
        on) and the physical plan comes back annotated per-operator with
        regions pruned vs. scanned, filters pushed vs. residual and
        locality hits, followed by a stage table and a query summary --
        see docs/observability.md.  The executed ``QueryResult`` is kept
        on ``self.last_analyzed`` for callers that want the trace object.
        """
        from repro.common.tracing import NOOP_SPAN, Span
        from repro.sql.explain import explain_analyze_report, views_section_lines

        trace = Span("query", "query") if analyze else NOOP_SPAN
        planned = self.session.plan_query(self.query, trace)
        head = "== Optimized Logical Plan ==\n" + planned.optimized.pretty()
        tail = "" if planned.plan_cache is None \
            else "\n== Plan cache ==\n" + planned.plan_cache
        if not analyze:
            lines = views_section_lines(planned.view_events)
            return (
                head + "\n== Physical Plan ==\n" + planned.physical.pretty()
                + ("\n" + "\n".join(lines) if lines else "") + tail
            )
        result = self.session.execute_planned(planned, trace)
        self.last_analyzed = result
        return head + "\n" + explain_analyze_report(planned.physical, result) \
            + tail

    def create_or_replace_temp_view(self, name: str) -> None:
        self.session.catalog.register(name, self.plan)

    createOrReplaceTempView = create_or_replace_temp_view

    @property
    def write(self) -> "DataFrameWriter":
        return DataFrameWriter(self)

    # -- helpers -----------------------------------------------------------------
    def _to_expr(self, column: ColumnLike) -> E.Expression:
        if isinstance(column, str):
            return col(column).expr
        return column.expr

    def _to_named_expr(self, column: ColumnLike) -> E.Expression:
        expr = self._to_expr(column)
        return expr

    @staticmethod
    def _resolve_output(plan: L.LogicalPlan, name: str) -> E.Attribute:
        matches = [a for a in plan.output if a.name == name]
        if len(matches) != 1:
            raise AnalysisError(
                f"join column {name!r} matched {len(matches)} columns"
            )
        return matches[0]


class GroupedData:
    """Result of ``df.group_by(...)``; call ``agg`` / ``count`` to finish."""

    def __init__(self, df: DataFrame, groupings: List[E.Expression]) -> None:
        self._df = df
        self._groupings = groupings

    def agg(self, *aggregations: Column) -> DataFrame:
        if not aggregations:
            raise AnalysisError("agg() needs at least one aggregate column")
        items: List[E.Expression] = list(self._groupings)
        items.extend(a.expr for a in aggregations)
        plan = L.Aggregate(self._groupings, items, self._df.plan)
        return DataFrame(self._df.session, plan)

    def count(self) -> DataFrame:
        from repro.sql.functions import count as count_fn

        return self.agg(count_fn().alias("count"))


class DataFrameWriter:
    """``df.write.format(...).options(...).save()`` -- the insert path."""

    def __init__(self, df: DataFrame) -> None:
        self._df = df
        self._format: Optional[str] = None
        self._options: Dict[str, str] = {}
        self._mode = "append"

    def format(self, format_name: str) -> "DataFrameWriter":
        self._format = format_name
        return self

    def options(self, options: Dict[str, str]) -> "DataFrameWriter":
        self._options.update(options)
        return self

    def option(self, key: str, value: str) -> "DataFrameWriter":
        self._options[key] = value
        return self

    def mode(self, mode: str) -> "DataFrameWriter":
        if mode not in ("append", "overwrite", "errorifexists", "ignore"):
            raise AnalysisError(f"unsupported save mode {mode!r}")
        self._mode = mode
        return self

    def save(self) -> "WriteResult":
        if self._format is None:
            raise AnalysisError("write.format(...) must be set before save()")
        return self._df.session.execute_write(
            self._df.plan, self._format, dict(self._options), mode=self._mode,
        )
