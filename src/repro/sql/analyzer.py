"""The analyzer: unresolved plans -> resolved plans.

Responsibilities mirroring Catalyst's resolution batch:

- look table names up in the session catalog, giving each reference a *fresh*
  set of attribute ids (so self-joins like q39's inv1/inv2 stay unambiguous);
- expand ``*`` / ``t.*``;
- resolve column names (optionally qualified) against child outputs;
- auto-name unnamed projections;
- validate GROUP BY (non-aggregate outputs must be grouping expressions);
- resolve HAVING, adding hidden aggregate columns when the condition uses
  aggregates that are not in the select list;
- resolve ORDER BY against the select output with fallback to child columns
  (adding hidden pass-through columns when needed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import AnalysisError
from repro.sql import expressions as E
from repro.sql.columnar import compile_row
from repro.sql import logical as L


class Catalog:
    """Session-level registry of temp views (name -> logical plan)."""

    def __init__(self) -> None:
        self._views: Dict[str, L.LogicalPlan] = {}
        #: bumped by every register/drop; what the plan cache is stamped with
        self.generation = 0

    def register(self, name: str, plan: L.LogicalPlan) -> None:
        self._views[name.lower()] = plan
        self.generation += 1

    def drop(self, name: str) -> None:
        self._views.pop(name.lower(), None)
        self.generation += 1

    def lookup(self, name: str) -> L.LogicalPlan:
        plan = self._views.get(name.lower())
        if plan is None:
            raise AnalysisError(
                f"table or view not found: {name!r}; known: {sorted(self._views)}"
            )
        return fresh_plan(plan)

    def names(self) -> List[str]:
        return sorted(self._views)


def fresh_plan(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Deep-copy a plan with brand-new attribute ids throughout.

    Every time a view is referenced it must produce distinct attribute ids,
    otherwise two references to the same view in one query (a self-join)
    could not be told apart during resolution.
    """
    mapping: Dict[int, E.Attribute] = {}

    def remap_expr(expr: E.Expression) -> E.Expression:
        def rewrite(node: E.Expression) -> Optional[E.Expression]:
            if isinstance(node, E.Attribute):
                replacement = mapping.get(node.attr_id)
                if replacement is not None:
                    return E.Attribute(
                        node.name, replacement.dtype, replacement.attr_id, node.qualifier
                    )
                return None
            if isinstance(node, E.Alias):
                fresh = E.Alias(node.child, node.name)
                mapping[node.attr_id] = fresh.to_attribute()
                return fresh
            return None

        return expr.transform(rewrite)

    def visit(node: L.LogicalPlan) -> L.LogicalPlan:
        if isinstance(node, (L.LogicalRelation, L.LocalRelation)):
            fresh = node.new_instance()
            for old, new in zip(node.output, fresh.output):
                mapping[old.attr_id] = new
            return fresh
        children = [visit(c) for c in node.children]
        return node.with_new_children(children).map_expressions(remap_expr)

    return visit(plan)


class Analyzer:
    """Resolves one plan against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def analyze(self, plan: L.LogicalPlan) -> L.LogicalPlan:
        resolved = self._resolve(plan)
        _validate(resolved)
        return resolved

    # -- plan resolution -------------------------------------------------------
    def _resolve(self, node: L.LogicalPlan) -> L.LogicalPlan:
        if isinstance(node, L.UnresolvedRelation):
            return self.catalog.lookup(node.name)

        if isinstance(node, L.InsertIntoTable):
            return self._resolve_insert(node)

        # resolve HAVING-style Filter over Aggregate with aggregate extraction
        if isinstance(node, L.Filter) and isinstance(node.children[0], L.Aggregate):
            aggregate = self._resolve(node.children[0])
            if isinstance(aggregate, L.Aggregate):
                return self._resolve_having(node.condition, aggregate)

        children = [self._resolve(c) for c in node.children]

        if isinstance(node, L.Project):
            return self._resolve_project(node, children[0])
        if isinstance(node, L.Filter):
            rewritten = self._rewrite_subquery_predicates(
                node.condition, children[0]
            )
            if rewritten is not None:
                return rewritten
            condition = self._resolve_expr(node.condition, children[0].output)
            return L.Filter(condition, children[0])
        if isinstance(node, L.Join):
            condition = None
            if node.condition is not None:
                scope = list(children[0].output) + list(children[1].output)
                condition = self._resolve_expr(node.condition, scope)
            return L.Join(children[0], children[1], node.how, condition)
        if isinstance(node, L.Aggregate):
            return self._resolve_aggregate(node, children[0])
        if isinstance(node, L.Sort):
            return self._resolve_sort(node, children[0])
        if isinstance(node, L.SetOperation):
            left, right = children
            if len(left.output) != len(right.output):
                raise AnalysisError(
                    f"{node.op.upper()} sides have {len(left.output)} vs "
                    f"{len(right.output)} columns"
                )
            return L.SetOperation(node.op, left, right, node.all_rows)
        return node.with_new_children(children)

    def _resolve_insert(self, node: L.InsertIntoTable) -> L.LogicalPlan:
        target = self.catalog.lookup(node.table_name)
        # see through the registration wrapper to the writable relation
        inner = target
        while isinstance(inner, L.SubqueryAlias):
            inner = inner.children[0]
        if not isinstance(inner, L.LogicalRelation):
            raise AnalysisError(
                f"{node.table_name!r} is not a writable data source view"
            )
        target_schema = inner.relation.schema
        if isinstance(node.children[0], L.UnresolvedInlineValues):
            child = self._resolve_inline_values(node.children[0], target_schema)
        else:
            child = self._resolve(node.children[0])
        if len(child.output) != len(target_schema):
            raise AnalysisError(
                f"INSERT INTO {node.table_name}: query produces "
                f"{len(child.output)} columns, table has {len(target_schema)}"
            )
        # align output names with the target columns (positional semantics)
        aligned = L.Project(
            [E.Alias(attr, field.name)
             for attr, field in zip(child.output, target_schema)],
            child,
        )
        return L.InsertIntoTable(node.table_name, aligned, node.overwrite,
                                 inner.relation)

    def _resolve_inline_values(self, node: "L.UnresolvedInlineValues",
                               target_schema) -> L.LogicalPlan:
        rows = []
        for exprs in node.rows:
            if len(exprs) != len(target_schema):
                raise AnalysisError(
                    f"VALUES row has {len(exprs)} columns, table has "
                    f"{len(target_schema)}"
                )
            values = []
            for expr, field in zip(exprs, target_schema):
                resolved = self._resolve_expr(expr, [])
                value = compile_row(resolved)(())
                if value is not None and field.dtype.python_type is float:
                    value = float(value)
                values.append(value)
            rows.append(tuple(values))
        from repro.sql.types import StructType

        return L.LocalRelation(
            StructType(list(target_schema.fields)), rows
        )

    # -- node-specific helpers ----------------------------------------------------
    def _resolve_project(self, node: L.Project, child: L.LogicalPlan) -> L.LogicalPlan:
        items = self._expand_stars(node.project_list, child.output)
        resolved: List[E.Expression] = []
        for i, item in enumerate(items):
            expr = self._resolve_expr(item, child.output)
            resolved.append(_named(expr, i))
        return L.Project(resolved, child)

    def _resolve_aggregate(self, node: L.Aggregate, child: L.LogicalPlan) -> L.LogicalPlan:
        items = self._expand_stars(node.aggregate_list, child.output)
        groupings = [self._resolve_expr(g, child.output) for g in node.groupings]
        resolved: List[E.Expression] = []
        for i, item in enumerate(items):
            expr = self._resolve_expr(item, child.output)
            resolved.append(_named(expr, i))
        aggregate = L.Aggregate(groupings, resolved, child)
        _check_aggregate(aggregate)
        return aggregate

    def _resolve_having(self, condition: E.Expression,
                        aggregate: L.Aggregate) -> L.LogicalPlan:
        """HAVING: prefer select aliases, else extract hidden aggregates."""
        if not E.contains_aggregate(condition):
            try:
                resolved = self._resolve_expr(condition, aggregate.output)
                return L.Filter(resolved, aggregate)
            except AnalysisError:
                pass

        hidden: List[E.Expression] = []
        child_scope = aggregate.child.output

        def rewrite(expr: E.Expression) -> E.Expression:
            if isinstance(expr, E.AggregateExpression):
                inner = (
                    self._resolve_expr(expr.children[0], child_scope)
                    if expr.children else None
                )
                agg = expr.with_new_children((inner,) if inner is not None else ())
                alias = E.Alias(agg, f"_having_{len(hidden)}")
                hidden.append(alias)
                return alias.to_attribute()
            if isinstance(expr, E.UnresolvedAttribute):
                # select-list aliases first, then grouping columns
                try:
                    return self._resolve_attr(expr, aggregate.output)
                except AnalysisError:
                    return self._resolve_attr(expr, child_scope)
            return expr.with_new_children(
                [rewrite(c) for c in expr.children]
            ) if expr.children else expr

        condition = rewrite(condition)
        extended = L.Aggregate(
            aggregate.groupings, aggregate.aggregate_list + hidden, aggregate.child
        )
        _check_aggregate(extended)
        filtered = L.Filter(condition, extended)
        visible = list(aggregate.output)
        return L.Project(visible, filtered)

    def _rewrite_subquery_predicates(
        self, condition: E.Expression, child: L.LogicalPlan
    ) -> Optional[L.LogicalPlan]:
        """IN (SELECT ...) / EXISTS become LEFT SEMI / LEFT ANTI joins.

        Only top-level (conjunctive) subquery predicates are supported, and
        only the uncorrelated form; ``NOT IN (subquery)`` is rejected because
        its NULL semantics need a null-aware anti join we do not implement.
        """
        conjuncts = E.split_conjuncts(condition)
        if not any(
            c.collect(lambda e: isinstance(e, (E.InSubquery, E.Exists)))
            for c in conjuncts
        ):
            return None
        plan = child
        plain: List[E.Expression] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, E.InSubquery):
                plan = self._semi_join(plan, conjunct, "semi")
            elif isinstance(conjunct, E.Exists):
                plan = self._exists_join(plan, conjunct, "semi")
            elif isinstance(conjunct, E.Not) and isinstance(
                conjunct.children[0], E.Exists
            ):
                plan = self._exists_join(plan, conjunct.children[0], "anti")
            elif isinstance(conjunct, E.Not) and isinstance(
                conjunct.children[0], E.InSubquery
            ):
                raise AnalysisError(
                    "NOT IN (subquery) is not supported (its NULL semantics "
                    "need a null-aware anti join); use NOT EXISTS"
                )
            elif conjunct.collect(
                lambda e: isinstance(e, (E.InSubquery, E.Exists))
            ):
                raise AnalysisError(
                    "subquery predicates are only supported as top-level "
                    f"conjuncts, not inside {conjunct!r}"
                )
            else:
                plain.append(conjunct)
        if plain:
            resolved = self._resolve_expr(
                E.combine_conjuncts(plain), child.output
            )
            plan = L.Filter(resolved, plan) if not isinstance(plan, L.Join)                 else L.Filter(resolved, plan)
        return self._resolve(plan) if _has_unresolved(plan) else plan

    def _semi_join(self, left: L.LogicalPlan, predicate: E.InSubquery,
                   how: str) -> L.LogicalPlan:
        subplan = self._resolve(predicate.subquery)
        if len(subplan.output) != 1:
            raise AnalysisError(
                "an IN subquery must produce exactly one column"
            )
        needle = self._resolve_expr(predicate.value, left.output)
        condition = E.Comparison("=", needle, subplan.output[0])
        return L.Join(left, subplan, how, condition)

    def _exists_join(self, left: L.LogicalPlan, predicate: E.Exists,
                     how: str) -> L.LogicalPlan:
        subplan = self._resolve(predicate.subquery)
        # uncorrelated EXISTS: any row in the subquery keeps/drops all rows;
        # model it as a semi/anti join on a constant key over (at most) one
        # subquery row -- an empty subquery must yield an empty right side
        const = E.Alias(E.Literal(1, E.lit_of(1).dtype), "_exists_key")
        right = L.Limit(1, L.Project([const], subplan))
        left_key = E.Literal(1, E.lit_of(1).dtype)
        condition = E.Comparison("=", left_key, right.output[0])
        return L.Join(left, right, how, condition)

    def _resolve_sort(self, node: L.Sort, child: L.LogicalPlan) -> L.LogicalPlan:
        orders: List[L.SortOrder] = []
        hidden_needed: List[E.Attribute] = []
        for order in node.orders:
            if isinstance(order.expression, E.SortOrdinal):
                position = order.expression.position
                if position > len(child.output):
                    raise AnalysisError(
                        f"ORDER BY position {position} exceeds the "
                        f"{len(child.output)}-column select list"
                    )
                orders.append(L.SortOrder(child.output[position - 1],
                                          order.ascending))
                continue
            try:
                expr = self._resolve_expr(order.expression, child.output)
            except AnalysisError:
                if isinstance(child, L.Project):
                    expr = self._resolve_expr(
                        order.expression, child.children[0].output
                    )
                    for attr_id in expr.references():
                        if attr_id not in {a.attr_id for a in child.output}:
                            for attr in child.children[0].output:
                                if attr.attr_id == attr_id:
                                    hidden_needed.append(attr)
                else:
                    raise
            orders.append(L.SortOrder(expr, order.ascending))
        if hidden_needed:
            widened = L.Project(child.project_list + hidden_needed, child.children[0])
            return L.Project(list(child.output), L.Sort(orders, widened))
        return L.Sort(orders, child)

    # -- expression resolution -------------------------------------------------------
    def _expand_stars(self, items: Sequence[E.Expression],
                      scope: Sequence[E.Attribute]) -> List[E.Expression]:
        out: List[E.Expression] = []
        for item in items:
            if isinstance(item, E.Star):
                matches = [
                    a for a in scope
                    if item.qualifier is None or a.qualifier == item.qualifier
                ]
                if not matches:
                    raise AnalysisError(f"cannot expand {item!r}")
                out.extend(matches)
            else:
                out.append(item)
        return out

    def _resolve_expr(self, expr: E.Expression,
                      scope: Sequence[E.Attribute]) -> E.Expression:
        def rewrite(node: E.Expression) -> Optional[E.Expression]:
            if isinstance(node, E.UnresolvedAttribute):
                return self._resolve_attr(node, scope)
            return None

        return expr.transform(rewrite)

    def _resolve_attr(self, node: E.UnresolvedAttribute,
                      scope: Sequence[E.Attribute]) -> E.Attribute:
        exact = [
            a for a in scope
            if a.name == node.name
            and (node.qualifier is None or a.qualifier == node.qualifier)
        ]
        if not exact:
            lowered = node.name.lower()
            exact = [
                a for a in scope
                if a.name.lower() == lowered
                and (node.qualifier is None or a.qualifier == node.qualifier)
            ]
        if not exact:
            raise AnalysisError(
                f"cannot resolve column {node.display()!r}; "
                f"candidates: {[repr(a) for a in scope]}"
            )
        distinct_ids = {a.attr_id for a in exact}
        if len(distinct_ids) > 1:
            raise AnalysisError(f"ambiguous column {node.display()!r}: {exact!r}")
        return exact[0]


def _has_unresolved(plan: L.LogicalPlan) -> bool:
    """Does the plan still contain unresolved relations (needs another pass)?"""
    return bool(plan.collect_nodes(
        lambda n: isinstance(n, L.UnresolvedRelation)
    ))


def _named(expr: E.Expression, position: int) -> E.Expression:
    """Ensure a select item carries a name (Alias or Attribute)."""
    if isinstance(expr, (E.Alias, E.Attribute)):
        return expr
    import re as _re

    name = _re.sub(r"#\d+", "", repr(expr))
    name = _re.sub(r"\b\w+\.", "", name)  # drop qualifiers
    if len(name) > 40:
        name = f"_c{position}"
    return E.Alias(expr, name)


def _check_aggregate(aggregate: L.Aggregate) -> None:
    """Non-aggregate outputs must be functions of the grouping expressions."""
    grouping_ids: set = set()
    for g in aggregate.groupings:
        grouping_ids |= g.references()
    for item in aggregate.aggregate_list:
        expr = item.child if isinstance(item, E.Alias) else item
        if E.contains_aggregate(expr):
            continue
        refs = expr.references()
        if not refs <= grouping_ids:
            raise AnalysisError(
                f"expression {item!r} is neither aggregated nor in GROUP BY"
            )


def _comparable(left: E.Expression, right: E.Expression) -> bool:
    """May these operands meet in a comparison / IN?  NULL matches anything."""
    from repro.sql.types import is_numeric

    try:
        left_t, right_t = left.data_type(), right.data_type()
    except AnalysisError:
        return True  # a deeper error will surface with a better message
    if left_t is right_t or (is_numeric(left_t) and is_numeric(right_t)):
        return True
    # types first: a literal's value is only looked at when they differ
    return any(isinstance(side, E.Literal) and side.value is None
               for side in (left, right))


def _check_expression_types(expr: E.Expression) -> None:
    for node in expr.collect(lambda e: isinstance(e, (E.Comparison, E.In))):
        if isinstance(node, E.Comparison):
            left, right = node.children
            if not _comparable(left, right):
                raise AnalysisError(
                    f"cannot compare {left.data_type()} with "
                    f"{right.data_type()} in {node!r}"
                )
        else:
            for option in node.options:
                if not _comparable(node.value, option):
                    raise AnalysisError(
                        f"IN list mixes {node.value.data_type()} with "
                        f"{option.data_type()} in {node!r}"
                    )


def _validate(plan: L.LogicalPlan) -> None:
    """Post-condition: no unresolved leaves anywhere; comparisons type-check."""
    def check_exprs(exprs: Sequence[E.Expression]) -> None:
        for expr in exprs:
            bad = expr.collect(
                lambda e: isinstance(e, (E.UnresolvedAttribute, E.Star,
                                         E.SortOrdinal, E.InSubquery,
                                         E.Exists))
            )
            if bad:
                raise AnalysisError(f"unresolved expression(s) {bad!r} in plan")
            _check_expression_types(expr)

    def visit(node: L.LogicalPlan) -> None:
        if isinstance(node, L.UnresolvedRelation):
            raise AnalysisError(f"unresolved relation {node.name!r}")
        if isinstance(node, L.UnresolvedInlineValues):
            raise AnalysisError("VALUES outside INSERT INTO")
        if isinstance(node, L.Project):
            check_exprs(node.project_list)
        elif isinstance(node, L.Filter):
            check_exprs([node.condition])
        elif isinstance(node, L.Aggregate):
            check_exprs(node.groupings + node.aggregate_list)
        elif isinstance(node, L.Join) and node.condition is not None:
            check_exprs([node.condition])
        elif isinstance(node, L.Sort):
            check_exprs([o.expression for o in node.orders])
        for child in node.children:
            visit(child)

    visit(plan)
