"""The rule-based optimizer (Catalyst's optimization batch).

Rules, applied in the same spirit as Spark SQL:

- ``EliminateSubqueryAliases`` -- scoping nodes are only needed for analysis;
- ``CombineFilters`` -- collapse stacked filters into one conjunction;
- ``PushDownPredicates`` -- move filters below projects, into join sides and
  below aggregates, so they land directly on relation scans where the planner
  can offer them to the data source (SHC's raison d'etre);
- ``ConstantFolding`` + boolean simplification;
- ``ColumnPruning`` -- inserts minimal projections above every relation so
  sources only materialise the columns a query actually touches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.sql import expressions as E
from repro.sql.columnar import compile_row
from repro.sql import logical as L


def optimize(plan: L.LogicalPlan, conf: Optional[Dict[str, object]] = None,
             stats=None, metrics=None, views=None) -> L.LogicalPlan:
    """Run the full rule pipeline to (practical) fixpoint.

    ``stats`` is the session's statistics store (or the planning pass's
    estimator, see :func:`repro.sql.cbo.estimator_for`).  When a leaf of the
    plan has ANALYZE statistics, the cost-based join-reorder rule
    (:func:`repro.sql.cbo.reorder_joins`) runs after predicate pushdown --
    so its input cardinalities see pushed filters -- and before column
    pruning, which then minimises the reordered tree's projections.
    ``conf`` is the session's, taken for callers that spell the session's
    planning out; no rule reads it.

    With ``views`` (a :class:`repro.sql.views.ViewRewriteContext`, built only
    once the session has run a view statement), the materialized-view
    rewrite runs after predicate pushdown -- so group-column filters already
    sit directly over the base relation, which is exactly the shape the
    matcher prices -- and before join reordering, so a rewritten aggregate
    no longer participates in the CBO's join search.
    """
    estimator = None
    if stats is not None:
        from repro.sql.cbo import estimator_for, reorder_joins

        estimator = estimator_for(stats, plan, metrics, views is not None)
    plan = eliminate_subquery_aliases(plan)
    for __ in range(3):
        plan = combine_filters(plan)
        plan = push_down_predicates(plan)
        plan = constant_folding(plan)
    if views is not None:
        from repro.sql.views import rewrite_with_views

        views.estimator = estimator
        plan = rewrite_with_views(plan, views)
        plan = push_down_predicates(plan)
    if estimator is not None:
        plan = reorder_joins(plan, estimator)
        plan = push_down_predicates(plan)
    plan = prune_columns(plan)
    plan = combine_filters(plan)
    return plan


# -- rule: eliminate subquery aliases ---------------------------------------------

def eliminate_subquery_aliases(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Drop scoping nodes; they only matter during analysis."""
    def rule(node: L.LogicalPlan) -> Optional[L.LogicalPlan]:
        if isinstance(node, L.SubqueryAlias):
            return node.children[0]
        return None

    return plan.transform_up(rule)


# -- rule: combine adjacent filters ----------------------------------------------

def combine_filters(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Collapse stacked Filters into one conjunction."""
    def rule(node: L.LogicalPlan) -> Optional[L.LogicalPlan]:
        if isinstance(node, L.Filter) and isinstance(node.children[0], L.Filter):
            inner = node.children[0]
            return L.Filter(E.And(inner.condition, node.condition), inner.children[0])
        return None

    return plan.transform_up(rule)


# -- rule: predicate pushdown ---------------------------------------------------

def push_down_predicates(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Sink filters through projects, into join sides, below aggregates."""
    def rule(node: L.LogicalPlan) -> Optional[L.LogicalPlan]:
        if not isinstance(node, L.Filter):
            return None
        child = node.children[0]
        if isinstance(child, L.Project):
            return _push_through_project(node, child)
        if isinstance(child, L.Join):
            return _push_into_join(node, child)
        if isinstance(child, L.Aggregate):
            return _push_below_aggregate(node, child)
        if isinstance(child, L.Distinct):
            return L.Distinct(L.Filter(node.condition, child.children[0]))
        return None

    # repeat so a filter can sink through several levels
    for __ in range(5):
        new_plan = plan.transform_up(rule)
        if new_plan is plan:
            return plan
        plan = new_plan
    return plan


def _substitution_for(project_list: Sequence[E.Expression]) -> Dict[int, E.Expression]:
    mapping: Dict[int, E.Expression] = {}
    for item in project_list:
        if isinstance(item, E.Alias):
            mapping[item.attr_id] = item.child
        elif isinstance(item, E.Attribute):
            mapping[item.attr_id] = item
    return mapping


def _substitute(expr: E.Expression, mapping: Dict[int, E.Expression]) -> E.Expression:
    def rewrite(node: E.Expression) -> Optional[E.Expression]:
        if isinstance(node, E.Attribute):
            replacement = mapping.get(node.attr_id)
            if replacement is not None and replacement is not node:
                return replacement
        return None

    return expr.transform(rewrite)


def _push_through_project(flt: L.Filter, project: L.Project) -> Optional[L.LogicalPlan]:
    if any(E.contains_aggregate(item) for item in project.project_list):
        return None
    mapping = _substitution_for(project.project_list)
    if not flt.condition.references() <= set(mapping):
        return None
    pushed = _substitute(flt.condition, mapping)
    return L.Project(project.project_list, L.Filter(pushed, project.children[0]))


def _push_into_join(flt: L.Filter, join: L.Join) -> Optional[L.LogicalPlan]:
    left_ids = {a.attr_id for a in join.left.output}
    right_ids = {a.attr_id for a in join.right.output}
    left_pushed: List[E.Expression] = []
    right_pushed: List[E.Expression] = []
    kept: List[E.Expression] = []
    for conjunct in E.split_conjuncts(flt.condition):
        refs = conjunct.references()
        if refs and refs <= left_ids:
            left_pushed.append(conjunct)
        elif refs and refs <= right_ids and join.how != "left":
            # for LEFT joins, filters on the right side change semantics
            right_pushed.append(conjunct)
        else:
            kept.append(conjunct)
    if not left_pushed and not right_pushed:
        return None
    left = join.left
    right = join.right
    if left_pushed:
        left = L.Filter(E.combine_conjuncts(left_pushed), left)
    if right_pushed:
        right = L.Filter(E.combine_conjuncts(right_pushed), right)
    new_join = L.Join(left, right, join.how, join.condition)
    remaining = E.combine_conjuncts(kept)
    return L.Filter(remaining, new_join) if remaining is not None else new_join


def _push_below_aggregate(flt: L.Filter, agg: L.Aggregate) -> Optional[L.LogicalPlan]:
    """Push conjuncts that only reference grouping-passthrough attributes."""
    passthrough: Set[int] = set()
    for item in agg.aggregate_list:
        if isinstance(item, E.Attribute):
            passthrough.add(item.attr_id)
    pushable: List[E.Expression] = []
    kept: List[E.Expression] = []
    for conjunct in E.split_conjuncts(flt.condition):
        refs = conjunct.references()
        if refs and refs <= passthrough and not E.contains_aggregate(conjunct):
            pushable.append(conjunct)
        else:
            kept.append(conjunct)
    if not pushable:
        return None
    new_child = L.Filter(E.combine_conjuncts(pushable), agg.children[0])
    new_agg = L.Aggregate(agg.groupings, agg.aggregate_list, new_child)
    remaining = E.combine_conjuncts(kept)
    return L.Filter(remaining, new_agg) if remaining is not None else new_agg


# -- rule: constant folding ------------------------------------------------------

_FOLDABLE = (
    E.BinaryArithmetic, E.Comparison, E.Not, E.Cast, E.ScalarFunction, E.IsNull,
    E.IsNotNull,
)


def _fold_expr(expr: E.Expression) -> E.Expression:
    def rewrite(node: E.Expression) -> Optional[E.Expression]:
        if isinstance(node, E.And):
            left, right = node.children
            if isinstance(left, E.Literal):
                if left.value is True:
                    return right
                if left.value is False:
                    return E.Literal(False, left.dtype)
            if isinstance(right, E.Literal):
                if right.value is True:
                    return left
                if right.value is False:
                    return E.Literal(False, right.dtype)
            return None
        if isinstance(node, E.Or):
            left, right = node.children
            if isinstance(left, E.Literal):
                if left.value is False:
                    return right
                if left.value is True:
                    return E.Literal(True, left.dtype)
            if isinstance(right, E.Literal):
                if right.value is False:
                    return left
                if right.value is True:
                    return E.Literal(True, right.dtype)
            return None
        if isinstance(node, _FOLDABLE) and node.children and all(
            isinstance(c, E.Literal) for c in node.children
        ):
            return E.Literal(compile_row(node)(()), node.data_type())
        return None

    return expr.transform(rewrite)


def constant_folding(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Evaluate literal-only subtrees and simplify trivial booleans."""
    def rule(node: L.LogicalPlan) -> Optional[L.LogicalPlan]:
        if isinstance(node, L.Filter):
            return L.Filter(_fold_expr(node.condition), node.children[0])
        if isinstance(node, L.Project):
            return L.Project([_fold_expr(e) for e in node.project_list], node.children[0])
        return None

    return plan.transform_up(rule)


# -- rule: column pruning ----------------------------------------------------------

def prune_columns(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Top-down required-column propagation; scans get minimal Projects."""
    required = {a.attr_id for a in plan.output}
    return _prune(plan, required)


def _prune(node: L.LogicalPlan, required: Set[int]) -> L.LogicalPlan:
    if isinstance(node, L.Project):
        kept = [
            item for item in node.project_list
            if _output_id(item) in required
        ]
        if not kept:  # keep at least one column (e.g. count(*) over project)
            kept = node.project_list[:1]
        child_required: Set[int] = set()
        for item in kept:
            child_required |= item.references()
        child = _prune(node.children[0], child_required)
        return L.Project(kept, child)

    if isinstance(node, L.Filter):
        child_required = set(required) | node.condition.references()
        child = _prune(node.children[0], child_required)
        return L.Filter(node.condition, child)

    if isinstance(node, L.Join):
        needed = set(required)
        if node.condition is not None:
            needed |= node.condition.references()
        left = _prune_side(node.children[0], needed)
        right = _prune_side(node.children[1], needed)
        return L.Join(left, right, node.how, node.condition)

    if isinstance(node, L.Aggregate):
        kept = [
            item for item in node.aggregate_list if _output_id(item) in required
        ]
        if not kept:
            kept = node.aggregate_list[:1]
        child_required = set()
        for g in node.groupings:
            child_required |= g.references()
        for item in kept:
            child_required |= item.references()
        child = _prune(node.children[0], child_required)
        return L.Aggregate(node.groupings, kept, child)

    if isinstance(node, L.Sort):
        needed = set(required)
        for order in node.orders:
            needed |= order.expression.references()
        return L.Sort(node.orders, _prune(node.children[0], needed))

    if isinstance(node, (L.Limit, L.Distinct)):
        # Distinct semantics depend on the full row: keep every column
        child_required = {a.attr_id for a in node.children[0].output} \
            if isinstance(node, L.Distinct) else set(required)
        return node.with_new_children([_prune(node.children[0], child_required)])

    if isinstance(node, L.SetOperation):
        # positional semantics: keep every column on both sides
        left = _prune(node.children[0], {a.attr_id for a in node.children[0].output})
        right = _prune(node.children[1], {a.attr_id for a in node.children[1].output})
        return L.SetOperation(node.op, left, right, node.all_rows)

    if isinstance(node, (L.LogicalRelation, L.LocalRelation)):
        needed = [a for a in node.output if a.attr_id in required]
        if not needed:
            needed = node.output[:1]
        if len(needed) < len(node.output):
            return L.Project(needed, node)
        return node

    return node.with_new_children([_prune(c, required) for c in node.children])


def _prune_side(side: L.LogicalPlan, required: Set[int]) -> L.LogicalPlan:
    side_ids = {a.attr_id for a in side.output}
    needed = required & side_ids
    pruned = _prune(side, needed)
    # if the side still exposes more than needed, cap it with a Project
    if needed and len(needed) < len(pruned.output):
        keep = [a for a in pruned.output if a.attr_id in needed]
        return L.Project(keep, pruned)
    return pruned


def _output_id(item: E.Expression) -> Optional[int]:
    if isinstance(item, E.Alias):
        return item.attr_id
    if isinstance(item, E.Attribute):
        return item.attr_id
    return None
