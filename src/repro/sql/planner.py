"""The physical planner: optimized logical plans -> physical operators.

Two strategies matter for the paper:

- **DataSourceStrategy** -- ``Project``/``Filter`` stacks sitting directly on a
  ``LogicalRelation`` collapse into one :class:`DataSourceScanExec`: required
  columns are pruned to what the query needs, translatable predicates are
  *offered* to the relation, and only the filters the relation reports as
  unhandled (plus untranslatable ones) remain as an engine-side residual.
  This is the exact handshake of section VI.A.3 (``unhandledFilters``).

- **Join selection** -- a side whose *estimated* size fits under the broadcast
  threshold is broadcast; otherwise both sides are shuffled.  Estimates flow
  from ``BaseRelation.size_in_bytes()``: SHC computes real region sizes, the
  generic connector returns unknown (treated as huge), which is what forces
  vanilla Spark SQL into shuffling entire fact tables (Figure 5).

Every scan is one batch-producing operator that absorbs the filters and the
projection directly above it.  The strategies below never say which format
an operator exchanges: each operator declares that itself, and
:meth:`Planner.plan_query` applies the one rule that places the seams
between them (:mod:`repro.sql.vectorized`, docs/vectorized.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import AnalysisError
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql import physical as P
from repro.sql.sources import translate_expression
from repro.sql.vectorized import insert_transitions

#: size assigned to relations that cannot estimate themselves
UNKNOWN_SIZE = 1 << 60


def estimate_plan_size(plan: L.LogicalPlan, memo: Optional[dict] = None) -> int:
    """Coarse cardinality/size propagation (Catalyst statistics-lite).

    ``memo`` is a planning pass's: one size per node and one
    ``size_in_bytes()`` per relation, however many joins ask."""
    if memo is None:
        memo = {}
    known = memo.get(id(plan))
    if known is None:  # the entry holds the node, which pins its id
        known = memo[id(plan)] = (plan, _plan_size(plan, memo))
    return known[1]


def _plan_size(plan: L.LogicalPlan, memo: dict) -> int:
    if isinstance(plan, L.LogicalRelation):
        relation = plan.relation
        if id(relation) not in memo:
            memo[id(relation)] = (relation, relation.size_in_bytes())
        size = memo[id(relation)][1]
        return size if size is not None else UNKNOWN_SIZE
    if isinstance(plan, L.LocalRelation):
        from repro.engine.shuffle import estimate_size

        return sum(estimate_size(r) for r in plan.rows) + 1
    if isinstance(plan, L.Filter):
        return max(1, estimate_plan_size(plan.children[0], memo) // 4)
    if isinstance(plan, L.Project):
        child = plan.children[0]
        child_size = estimate_plan_size(child, memo)
        if child_size >= UNKNOWN_SIZE:
            return UNKNOWN_SIZE
        width_ratio = max(1, len(plan.output)) / max(1, len(child.output))
        return max(1, int(child_size * min(1.0, width_ratio)))
    if isinstance(plan, L.Aggregate):
        child_size = estimate_plan_size(plan.children[0], memo)
        if child_size >= UNKNOWN_SIZE:
            return UNKNOWN_SIZE
        return max(1, child_size // 5)
    if isinstance(plan, L.Join):
        sizes = [estimate_plan_size(c, memo) for c in plan.children]
        if any(s >= UNKNOWN_SIZE for s in sizes):
            return UNKNOWN_SIZE
        return sum(sizes)
    if isinstance(plan, L.Limit):
        return min(estimate_plan_size(plan.children[0], memo), plan.n * 64 + 1)
    if plan.children:
        sizes = [estimate_plan_size(c, memo) for c in plan.children]
        if any(s >= UNKNOWN_SIZE for s in sizes):
            return UNKNOWN_SIZE
        return sum(sizes)
    return UNKNOWN_SIZE


class Planner:
    """Compiles one optimized logical plan.

    The planner runs on every execution, a plan-cache hit included
    (docs/caching.md, "Plan cache"): values meet the source here.  The one
    subtree it fingerprints (:func:`repro.sql.fingerprint.plan_fingerprint`)
    is a broadcast join's build side, whose fingerprint is the join's
    ``build_stamp``.

    ``stats`` is the session's statistics store, or the planning pass's
    estimator (:func:`repro.sql.cbo.estimator_for`).  Where the plan's
    tables have ANALYZE statistics (docs/optimizer.md), join sizing uses
    the estimates and a hash join may push its build's keys to its probe.
    A broadcast join shares an equal build side with or without statistics.
    """

    def __init__(self, conf: Dict[str, object], cache=None, stats=None,
                 metrics=None) -> None:
        self.conf = conf
        # ``cache`` is unread: ROADMAP item 1(b), a benchmark-only change,
        # stops benchmarks/e2e/tracing.py passing it and then deletes it
        self.broadcast_threshold = int(
            conf.get("sql.autoBroadcastJoinThreshold", 128 * 1024)
        )
        self.metrics = metrics
        #: resolved to the pass's estimator (or None) by the first plan() call
        self._stats = stats
        self.estimator = None
        #: this pass's memo of estimate_plan_size
        self._sizes: dict = {}
        #: adaptive query execution (docs/adaptive.md), the one place the
        #: option is read: a non-broadcast equi-join plans as an
        #: AdaptiveJoinExec, which settles its strategy from measured sizes,
        #: instead of the static Spark 2 ShuffledHashJoinExec
        self.adaptive = bool(conf.get("sql.aqe.enabled", False))
        self.local_scan_partitions = int(conf.get("sql.local.scan.partitions", 2))

    def plan_query(self, node: L.LogicalPlan) -> P.PhysicalPlan:
        """Compile a whole query: :meth:`plan`, then finish the tree.  Every
        operator hands out batches; the session root and the write sink
        read row tuples, so the finished root unpacks them.
        """
        return insert_transitions(self.plan(node))

    def plan(self, node: L.LogicalPlan) -> P.PhysicalPlan:
        if self._stats is not None:
            from repro.sql.cbo import estimator_for

            # the first call is the caller's, with the whole plan
            self.estimator = estimator_for(self._stats, node, self.metrics)
            self._stats = None
        if isinstance(node, L.SubqueryAlias):
            return self.plan(node.children[0])

        if isinstance(node, L.Project):
            child = node.children[0]
            if isinstance(child, L.Filter):
                relation = _as_relation(child.children[0])
                if relation is not None:
                    return self._plan_scan(node.project_list, child.condition, relation)
            relation = _as_relation(child)
            if relation is not None and child is not node:
                return self._plan_scan(node.project_list, None, relation)
            return self._project(node.project_list, self.plan(child))

        if isinstance(node, L.Filter):
            relation = _as_relation(node.children[0])
            if relation is not None:
                # keep the pruned column set: project down to the child's output
                return self._plan_scan(
                    list(node.children[0].output), node.condition, relation
                )
            return self._filter(node.condition, self.plan(node.children[0]))

        if isinstance(node, L.LogicalRelation):
            return self._plan_scan(None, None, node)

        if isinstance(node, L.LocalRelation):
            return P.LocalScanExec(node.output, node.rows,
                                   num_partitions=self.local_scan_partitions)

        if isinstance(node, L.Join):
            return self._plan_join(node)

        if isinstance(node, L.Aggregate):
            pushed = self._try_aggregate_pushdown(node)
            if pushed is not None:
                return pushed
            return P.HashAggregateExec(node.groupings, node.aggregate_list,
                                       self.plan(node.children[0]))

        if isinstance(node, L.Sort):
            return P.SortExec(node.orders, self.plan(node.children[0]))

        if isinstance(node, L.Limit):
            return P.LimitExec(node.n, self.plan(node.children[0]))

        if isinstance(node, L.Distinct):
            return P.DistinctExec(self.plan(node.children[0]))

        if isinstance(node, L.SetOperation):
            left = self.plan(node.children[0])
            right = self.plan(node.children[1])
            if node.op == "union":
                union: P.PhysicalPlan = P.UnionExec(left, right)
                return union if node.all_rows else P.DistinctExec(union)
            return P.IntersectExec(left, right)

        raise AnalysisError(f"no physical strategy for {node.describe()}")

    @staticmethod
    def _filter(condition: E.Expression, child: P.PhysicalPlan) -> P.PhysicalPlan:
        """A filter over ``child``, fused into it when it is a scan (a scan
        that already projects evaluates its predicates first)."""
        if isinstance(child, P.ScanExec) and child.project_list is None:
            return child.fuse_filter(condition)
        return P.FilterExec(condition, child)

    @staticmethod
    def _project(project_list: Sequence[E.Expression],
                 child: P.PhysicalPlan) -> P.PhysicalPlan:
        """A projection over ``child``, fused into it when it is a scan."""
        if isinstance(child, P.ScanExec) and child.project_list is None:
            return child.fuse_project(project_list)
        return P.ProjectExec(project_list, child)

    # -- data source strategy ----------------------------------------------------
    def _plan_scan(
        self,
        project_list: Optional[Sequence[E.Expression]],
        condition: Optional[E.Expression],
        rel_node: L.LogicalRelation,
    ) -> P.PhysicalPlan:
        offered, handled, residual = _offer_filters(rel_node.relation, condition)

        needed_ids = set()
        if project_list is not None:
            for item in project_list:
                needed_ids |= item.references()
        else:
            needed_ids |= {a.attr_id for a in rel_node.output}
        if residual is not None:
            needed_ids |= residual.references()

        scan_attrs = [a for a in rel_node.output if a.attr_id in needed_ids]
        if not scan_attrs:
            scan_attrs = rel_node.output[:1]
        scan = P.DataSourceScanExec(
            rel_node.relation, scan_attrs, offered, residual, rel_node.name,
            handled_filters=handled,
        )
        if project_list is None or _is_identity_projection(project_list,
                                                           scan.output):
            return scan
        return scan.fuse_project(project_list)

    # -- aggregate pushdown (coprocessor-style connectors) --------------------------
    def _try_aggregate_pushdown(self, node: L.Aggregate) -> Optional[P.PhysicalPlan]:
        """Offer a grouped aggregation to the relation, if it wants it.

        Only relations exposing ``plan_aggregate`` (e.g. the Huawei-style
        coprocessor connector) participate; the aggregate's child must be an
        attribute-only Project/Filter stack over the relation.
        """
        conditions: List[E.Expression] = []
        current: L.LogicalPlan = node.children[0]
        while True:
            if isinstance(current, L.Project) and all(
                isinstance(item, E.Attribute) for item in current.project_list
            ):
                current = current.children[0]
                continue
            if isinstance(current, L.Filter):
                conditions.append(current.condition)
                current = current.children[0]
                continue
            break
        if not isinstance(current, L.LogicalRelation):
            return None
        plan_aggregate = getattr(current.relation, "plan_aggregate", None)
        if plan_aggregate is None:
            return None

        offered, __, residual = _offer_filters(
            current.relation, E.combine_conjuncts(conditions))

        needed_ids = set()
        for g in node.groupings:
            needed_ids |= g.references()
        for item in node.aggregate_list:
            needed_ids |= item.references()
        if residual is not None:
            needed_ids |= residual.references()
        input_attrs = [a for a in current.output if a.attr_id in needed_ids]
        if not needed_ids <= {a.attr_id for a in input_attrs}:
            return None
        return plan_aggregate(
            node.groupings, node.aggregate_list, offered, residual, input_attrs
        )

    # -- join strategy ---------------------------------------------------------------
    def _plan_join(self, node: L.Join) -> P.PhysicalPlan:
        left_plan = self.plan(node.children[0])
        right_plan = self.plan(node.children[1])
        left_ids = {a.attr_id for a in node.left.output}
        right_ids = {a.attr_id for a in node.right.output}
        left_keys, right_keys, residual = _extract_equi_keys(
            node.condition, left_ids, right_ids
        )
        left_size = estimate_plan_size(node.left, self._sizes)
        right_size = estimate_plan_size(node.right, self._sizes)

        # cost-based sizing: confident ANALYZE-backed estimates override the
        # syntactic heuristic for the broadcast decision below
        use_left, use_right = left_size, right_size
        est_left = est_right = est_join = None
        if self.estimator is not None:
            est_left = self.estimator.estimate(node.left)
            est_right = self.estimator.estimate(node.right)
            est_join = self.estimator.estimate(node)
            if est_left.confident:
                use_left = est_left.bytes
            if est_right.confident:
                use_right = est_right.bytes

        if left_keys:
            bc_right = use_right <= self.broadcast_threshold
            bc_left = use_left <= self.broadcast_threshold and node.how == "inner"
            if self.adaptive and self.estimator is not None:
                # stats acting as AQE priors: the estimate settled a strategy
                # the heuristic would have deferred to a stage barrier (or
                # chosen differently)
                h_right = right_size <= self.broadcast_threshold
                h_left = left_size <= self.broadcast_threshold and node.how == "inner"
                if bc_right != h_right or (not bc_right and bc_left != h_left):
                    self._incr("sql.cbo.aqe_priors_used")
            equi = (left_plan, right_plan, left_keys, right_keys, node.how,
                    residual, est_join)
            if bc_right:
                return self._broadcast(node.right, est_left, est_right, *equi)
            if bc_left:
                swapped = self._broadcast(
                    node.left, est_right, est_left, right_plan, left_plan,
                    right_keys, left_keys, "inner", None, est_join)
                reordered = self._project(
                    list(node.left.output) + list(node.right.output), swapped
                )
                if residual is not None:
                    return self._filter(residual, reordered)
                return reordered
            # a join that pushes runs its build first, before any AQE barrier
            pushes = self._pushes_keys(node.how, left_keys, right_keys,
                                       est_left, est_right)
            if self.adaptive and not pushes:
                from repro.sql.adaptive import AdaptiveJoinExec

                return self._equi_join(AdaptiveJoinExec, *equi)
            join = self._equi_join(P.ShuffledHashJoinExec, *equi)
            join.push_keys = pushes
            return join

        # no equi keys: nested loop with the right side broadcast
        return P.BroadcastNestedLoopJoinExec(left_plan, right_plan, node.how,
                                             node.condition)

    def _broadcast(self, build: L.LogicalPlan, est_probe, est_build,
                   *equi) -> P.BroadcastHashJoinExec:
        """A broadcast hash join whose build side is named by subplan and key
        positions, with or without statistics: an equal build elsewhere in
        the query is collected and broadcast once (docs/engine.md), as
        Spark's ``ReuseExchange`` does."""
        from repro.sql.fingerprint import plan_fingerprint

        join = self._equi_join(P.BroadcastHashJoinExec, *equi)
        build_ids = [a.attr_id for a in build.output]
        if all(isinstance(k, E.Attribute) and k.attr_id in build_ids
               for k in join.right_keys):
            join.build_stamp = (plan_fingerprint(build), tuple(
                build_ids.index(k.attr_id) for k in join.right_keys))
        join.push_keys = self._pushes_keys(join.how, join.left_keys,
                                           join.right_keys, est_probe, est_build)
        return join

    @staticmethod
    def _pushes_keys(how, probe_keys, build_keys, est_probe, est_build) -> bool:
        """The runtime key filter (docs/optimizer.md), for every hash join
        and decided only on confident estimates: push when the keys should
        skip more probe rows than there are keys to send."""
        if how not in ("inner", "semi") or est_probe is None \
                or not (est_probe.confident and est_build.confident):
            return False
        from repro.sql.cbo import semijoin_keep_fraction

        keep = semijoin_keep_fraction(est_probe, est_build, probe_keys, build_keys)
        return keep is not None and est_probe.rows * (1.0 - keep) > est_build.rows

    def _incr(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, 1)

    @staticmethod
    def _equi_join(strategy, left: P.PhysicalPlan, right: P.PhysicalPlan,
                   left_keys, right_keys, how: str, residual, est) -> P.PhysicalPlan:
        """One equi-join operator, stamped with the join-level row estimate
        (where confident) for EXPLAIN's est-vs-actual."""
        op = strategy(left, right, left_keys, right_keys, how, residual)
        if est is not None and est.confident:
            op.cbo_rows = est.rows
        return op


def _offer_filters(relation, condition: Optional[E.Expression]):
    """The ``unhandledFilters`` handshake (section VI.A.3), stated once.

    Every conjunct of ``condition`` that translates to a source filter is
    *offered* to ``relation``; the ones it does not report back as
    unhandled are *handled*; what did not translate or was not handled
    stays an engine-side *residual*.  Returns ``(offered, handled,
    residual)``.
    """
    conjuncts = E.split_conjuncts(condition) if condition is not None else []
    translated = [translate_expression(c) for c in conjuncts]
    offered = [f for f in translated if f is not None]
    unhandled = set(relation.unhandled_filters(offered))
    residual = E.combine_conjuncts(
        [c for c, f in zip(conjuncts, translated) if f is None or f in unhandled])
    return offered, [f for f in offered if f not in unhandled], residual


def _as_relation(node: L.LogicalPlan) -> Optional[L.LogicalRelation]:
    """See through attribute-only projections (column pruning inserts them)."""
    if isinstance(node, L.LogicalRelation):
        return node
    if isinstance(node, L.Project) and all(
        isinstance(item, E.Attribute) for item in node.project_list
    ):
        child = node.children[0]
        if isinstance(child, L.LogicalRelation):
            return child
    return None


def _extract_equi_keys(
    condition: Optional[E.Expression],
    left_ids: set,
    right_ids: set,
) -> Tuple[List[E.Expression], List[E.Expression], Optional[E.Expression]]:
    if condition is None:
        return [], [], None
    left_keys: List[E.Expression] = []
    right_keys: List[E.Expression] = []
    rest: List[E.Expression] = []
    for conjunct in E.split_conjuncts(condition):
        if isinstance(conjunct, E.Comparison) and conjunct.op == "=":
            a, b = conjunct.children
            a_refs, b_refs = a.references(), b.references()
            if a_refs and b_refs:
                if a_refs <= left_ids and b_refs <= right_ids:
                    left_keys.append(a)
                    right_keys.append(b)
                    continue
                if a_refs <= right_ids and b_refs <= left_ids:
                    left_keys.append(b)
                    right_keys.append(a)
                    continue
        rest.append(conjunct)
    return left_keys, right_keys, E.combine_conjuncts(rest)


def _is_identity_projection(
    project_list: Sequence[E.Expression], scan_output: Sequence[E.Attribute]
) -> bool:
    if len(project_list) != len(scan_output):
        return False
    for item, attr in zip(project_list, scan_output):
        if not isinstance(item, E.Attribute) or item.attr_id != attr.attr_id:
            return False
    return True
