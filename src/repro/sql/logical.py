"""Logical query plans.

The parser produces *unresolved* plans (``UnresolvedRelation`` leaves and
``UnresolvedAttribute`` expression leaves); the analyzer rewrites them into
resolved plans whose every node exposes ``output`` -- the list of
:class:`~repro.sql.expressions.Attribute` it produces -- and the optimizer
then rewrites resolved plans into cheaper equivalents.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import AnalysisError
from repro.sql import expressions as E
from repro.sql.sources import BaseRelation
from repro.sql.types import StructType


@dataclass(frozen=True)
class SortOrder:
    """One ORDER BY term."""

    expression: E.Expression
    ascending: bool = True


class LogicalPlan:
    """Base class; children accessible for tree rewrites."""

    children: Tuple["LogicalPlan", ...] = ()

    @property
    def output(self) -> List[E.Attribute]:
        raise NotImplementedError

    def schema(self) -> StructType:
        out = StructType()
        for attr in self.output:
            out = out.add(attr.name, attr.dtype)
        return out

    def with_new_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError

    def transform_up(self, fn) -> "LogicalPlan":
        new_children = [c.transform_up(fn) for c in self.children]
        node = self if all(a is b for a, b in zip(new_children, self.children)) \
            else self.with_new_children(new_children)
        replacement = fn(node)
        return replacement if replacement is not None else node

    def map_expressions(self, fn) -> "LogicalPlan":
        """This node with ``fn`` applied to each expression it holds."""
        return self

    def collect_nodes(self, predicate) -> List["LogicalPlan"]:
        found = [n for c in self.children for n in c.collect_nodes(predicate)]
        if predicate(self):
            found.append(self)
        return found

    def pretty(self, indent: int = 0) -> str:
        head = "  " * indent + self.describe()
        body = "\n".join(c.pretty(indent + 1) for c in self.children)
        return head + ("\n" + body if body else "")

    def describe(self) -> str:
        return type(self).__name__


class UnresolvedRelation(LogicalPlan):
    """A table name awaiting catalog lookup."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def output(self) -> List[E.Attribute]:
        raise AnalysisError(f"unresolved relation {self.name!r}")

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "UnresolvedRelation":
        return self

    def describe(self) -> str:
        return f"UnresolvedRelation({self.name})"


class LogicalRelation(LogicalPlan):
    """A resolved external data source."""

    def __init__(self, relation: BaseRelation, name: str = "",
                 output: Optional[List[E.Attribute]] = None) -> None:
        self.relation = relation
        self.name = name
        if output is None:
            output = [
                E.Attribute(f.name, f.dtype, qualifier=name or None)
                for f in relation.schema
            ]
        self._output = output

    @property
    def output(self) -> List[E.Attribute]:
        return self._output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "LogicalRelation":
        return self

    def new_instance(self) -> "LogicalRelation":
        """Fresh attribute ids -- required when the same table appears twice."""
        return LogicalRelation(
            self.relation, self.name, [a.renewed() for a in self._output]
        )

    def describe(self) -> str:
        return f"LogicalRelation({self.name or type(self.relation).__name__})"


class LocalRelation(LogicalPlan):
    """Driver-local rows (createDataFrame / test fixtures)."""

    def __init__(self, schema: StructType, rows: Sequence[tuple],
                 output: Optional[List[E.Attribute]] = None) -> None:
        self.local_schema = schema
        self.rows = [tuple(r) for r in rows]
        if output is None:
            output = [E.Attribute(f.name, f.dtype) for f in schema]
        self._output = output
        self._identity: Optional[str] = None

    @property
    def output(self) -> List[E.Attribute]:
        return self._output

    def identity(self) -> str:
        """``local:<columns>:<digest of the rows>``: what the statistics
        store and the plan fingerprint know these rows by.  Two inline
        datasets share it only when their data is identical; the rows are
        hashed once per node."""
        if self._identity is None:
            digest = hashlib.sha256(repr(self.rows).encode("utf-8")).hexdigest()[:16]
            cols = ",".join(f"{a.name}:{a.dtype}" for a in self._output)
            self._identity = f"local:{cols}:{digest}"
        return self._identity

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "LocalRelation":
        return self

    def new_instance(self) -> "LocalRelation":
        return LocalRelation(self.local_schema, self.rows,
                             [a.renewed() for a in self._output])

    def describe(self) -> str:
        return f"LocalRelation({len(self.rows)} rows)"


class Project(LogicalPlan):
    """SELECT list: named expressions over the child."""

    def __init__(self, project_list: Sequence[E.Expression], child: LogicalPlan) -> None:
        self.project_list = list(project_list)
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        out = []
        for expr in self.project_list:
            if isinstance(expr, E.Alias):
                out.append(expr.to_attribute())
            elif isinstance(expr, E.Attribute):
                out.append(expr)
            else:
                raise AnalysisError(f"unnamed projection {expr!r}")
        return out

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Project":
        return Project(self.project_list, children[0])

    def map_expressions(self, fn) -> "Project":
        return Project([fn(e) for e in self.project_list], self.children[0])

    def describe(self) -> str:
        return f"Project({self.project_list!r})"


class Filter(LogicalPlan):
    """WHERE/HAVING: keeps rows whose condition is exactly True."""

    def __init__(self, condition: E.Expression, child: LogicalPlan) -> None:
        self.condition = condition
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return self.child.output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        return Filter(self.condition, children[0])

    def map_expressions(self, fn) -> "Filter":
        return Filter(fn(self.condition), self.children[0])

    def describe(self) -> str:
        return f"Filter({self.condition!r})"


class Join(LogicalPlan):
    """Binary join (inner / left outer / cross / left-semi / left-anti)."""

    TYPES = ("inner", "left", "cross", "semi", "anti")

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 how: str = "inner", condition: Optional[E.Expression] = None) -> None:
        if how not in self.TYPES:
            raise AnalysisError(f"unsupported join type {how!r}")
        self.how = how
        self.condition = condition
        self.children = (left, right)

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    @property
    def output(self) -> List[E.Attribute]:
        if self.how in ("semi", "anti"):
            return list(self.left.output)
        return list(self.left.output) + list(self.right.output)

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Join":
        return Join(children[0], children[1], self.how, self.condition)

    def map_expressions(self, fn) -> "Join":
        return Join(*self.children, self.how,
                    None if self.condition is None else fn(self.condition))

    def describe(self) -> str:
        return f"Join({self.how}, {self.condition!r})"


class Aggregate(LogicalPlan):
    """GROUP BY: ``aggregate_list`` entries must be Alias or Attribute."""

    def __init__(self, groupings: Sequence[E.Expression],
                 aggregate_list: Sequence[E.Expression], child: LogicalPlan) -> None:
        self.groupings = list(groupings)
        self.aggregate_list = list(aggregate_list)
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        out = []
        for expr in self.aggregate_list:
            if isinstance(expr, E.Alias):
                out.append(expr.to_attribute())
            elif isinstance(expr, E.Attribute):
                out.append(expr)
            else:
                raise AnalysisError(f"unnamed aggregate output {expr!r}")
        return out

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        return Aggregate(self.groupings, self.aggregate_list, children[0])

    def map_expressions(self, fn) -> "Aggregate":
        return Aggregate([fn(g) for g in self.groupings],
                         [fn(a) for a in self.aggregate_list], self.children[0])

    def describe(self) -> str:
        return f"Aggregate(by {self.groupings!r})"


class Sort(LogicalPlan):
    """ORDER BY (total order; NULLS FIRST ascending)."""

    def __init__(self, orders: Sequence[SortOrder], child: LogicalPlan) -> None:
        self.orders = list(orders)
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return self.child.output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        return Sort(self.orders, children[0])

    def map_expressions(self, fn) -> "Sort":
        return Sort([SortOrder(fn(o.expression), o.ascending)
                     for o in self.orders], self.children[0])


class Limit(LogicalPlan):
    """LIMIT n."""

    def __init__(self, n: int, child: LogicalPlan) -> None:
        if n < 0:
            raise AnalysisError("LIMIT must be non-negative")
        self.n = n
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return self.child.output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        return Limit(self.n, children[0])

    def describe(self) -> str:
        return f"Limit({self.n})"


class Distinct(LogicalPlan):
    """SELECT DISTINCT over the full row."""

    def __init__(self, child: LogicalPlan) -> None:
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return self.child.output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        return Distinct(children[0])


class SetOperation(LogicalPlan):
    """UNION [ALL] / INTERSECT: children must be schema-compatible."""

    def __init__(self, op: str, left: LogicalPlan, right: LogicalPlan,
                 all_rows: bool = False) -> None:
        if op not in ("union", "intersect"):
            raise AnalysisError(f"unsupported set operation {op!r}")
        self.op = op
        self.all_rows = all_rows
        self.children = (left, right)

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    @property
    def output(self) -> List[E.Attribute]:
        return self.left.output

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "SetOperation":
        return SetOperation(self.op, children[0], children[1], self.all_rows)

    def describe(self) -> str:
        suffix = " ALL" if self.all_rows else ""
        return f"{self.op.upper()}{suffix}"


class ShowTables(LogicalPlan):
    """``SHOW TABLES``: lists the session's registered temp views."""

    @property
    def output(self) -> List[E.Attribute]:
        from repro.sql.types import StringType

        return [E.Attribute("tableName", StringType)]

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "ShowTables":
        return self


class DropView(LogicalPlan):
    """``DROP VIEW <name>``: unregisters a temp view."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def output(self) -> List[E.Attribute]:
        return []

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "DropView":
        return self


class AnalyzeTable(LogicalPlan):
    """``ANALYZE TABLE <name> COMPUTE STATISTICS``: collect catalog stats."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def output(self) -> List[E.Attribute]:
        return []

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "AnalyzeTable":
        return self


class CreateMaterializedView(LogicalPlan):
    """``CREATE MATERIALIZED VIEW <name> AS <select>`` (docs/views.md).

    The child is the *unresolved* defining query; the session analyzes it,
    derives the view's storage layout and materializes it eagerly.
    """

    def __init__(self, name: str, child: LogicalPlan) -> None:
        self.name = name
        self.children = (child,)

    @property
    def output(self) -> List[E.Attribute]:
        return []

    def with_new_children(
        self, children: Sequence[LogicalPlan]
    ) -> "CreateMaterializedView":
        return CreateMaterializedView(self.name, children[0])


class DropMaterializedView(LogicalPlan):
    """``DROP MATERIALIZED VIEW <name>``: drop storage and subscription."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def output(self) -> List[E.Attribute]:
        return []

    def with_new_children(
        self, children: Sequence[LogicalPlan]
    ) -> "DropMaterializedView":
        return self


class RefreshMaterializedView(LogicalPlan):
    """``REFRESH MATERIALIZED VIEW <name>``: full recomputation."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def output(self) -> List[E.Attribute]:
        return []

    def with_new_children(
        self, children: Sequence[LogicalPlan]
    ) -> "RefreshMaterializedView":
        return self


class ShowMaterializedViews(LogicalPlan):
    """``SHOW MATERIALIZED VIEWS``: list this session's registered views."""

    @property
    def output(self) -> List[E.Attribute]:
        from repro.sql.types import StringType

        return [E.Attribute("viewName", StringType)]

    def with_new_children(
        self, children: Sequence[LogicalPlan]
    ) -> "ShowMaterializedViews":
        return self


class ExplainStatement(LogicalPlan):
    """``EXPLAIN <query>``: renders the plans instead of running the query."""

    def __init__(self, child: LogicalPlan) -> None:
        self.children = (child,)

    @property
    def output(self) -> List[E.Attribute]:
        from repro.sql.types import StringType

        return [E.Attribute("plan", StringType)]

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "ExplainStatement":
        return ExplainStatement(children[0])


class UnresolvedInlineValues(LogicalPlan):
    """``VALUES (...), (...)`` awaiting the target schema for typing."""

    def __init__(self, rows: Sequence[Sequence[E.Expression]]) -> None:
        self.rows = [list(r) for r in rows]

    @property
    def output(self) -> List[E.Attribute]:
        raise AnalysisError("inline VALUES need a target table for typing")

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "UnresolvedInlineValues":
        return self

    def describe(self) -> str:
        return f"UnresolvedInlineValues({len(self.rows)} rows)"


class InsertIntoTable(LogicalPlan):
    """``INSERT INTO <view> (SELECT ... | VALUES ...)``.

    The analyzer resolves ``table_name`` to a writable relation view and
    aligns the child's output with the target schema; the session executes
    it through the relation's insert path.
    """

    def __init__(self, table_name: str, child: LogicalPlan,
                 overwrite: bool = False,
                 relation: Optional[BaseRelation] = None) -> None:
        self.table_name = table_name
        self.overwrite = overwrite
        self.relation = relation
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return []  # DML produces no rows

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "InsertIntoTable":
        return InsertIntoTable(self.table_name, children[0], self.overwrite,
                               self.relation)

    def describe(self) -> str:
        mode = "overwrite" if self.overwrite else "into"
        return f"InsertIntoTable({self.table_name}, {mode})"


class SubqueryAlias(LogicalPlan):
    """Scopes a child under a name (``FROM (...) t`` / table aliases)."""

    def __init__(self, alias: str, child: LogicalPlan) -> None:
        self.alias = alias
        self.children = (child,)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def output(self) -> List[E.Attribute]:
        return [attr.with_qualifier(self.alias) for attr in self.child.output]

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "SubqueryAlias":
        return SubqueryAlias(self.alias, children[0])

    def describe(self) -> str:
        return f"SubqueryAlias({self.alias})"
