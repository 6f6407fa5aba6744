"""Cost-based optimization: cardinality estimation and join reordering.

Built on the ANALYZE statistics in :mod:`repro.sql.stats` (docs/optimizer.md):

- :class:`CardinalityEstimator` propagates row counts, per-column NDVs and
  null fractions bottom-up through a logical plan, using the textbook
  System-R formulas (``1/ndv`` equality selectivity, histogram fractions
  for ranges, ``|L||R| / max(ndv_l, ndv_r)`` for equi-joins).
- :func:`reorder_joins` flattens maximal inner-join clusters and re-orders
  them by estimated cost -- exact left-deep dynamic programming up to
  :data:`DP_THRESHOLD` inputs, greedy smallest-intermediate above it.
  Clusters whose inputs lack (or have stale) statistics keep their
  syntactic order.
- :func:`semijoin_keep_fraction` prices the runtime key filter: whether a
  hash join hands its build's distinct keys to its probe
  (``HashJoinExec.push_keys``).

``ANALYZE TABLE`` is the opt-in: :func:`estimator_for` hands a planning pass
an estimator only when some leaf of the plan has statistics, so a query over
un-ANALYZEd tables is planned syntactically and touches nothing else here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.stats import (
    Histogram, StatsStore, TableStats, hydrate_relation_stats, stats_key,
)

#: selectivity guessed for predicates the estimator cannot model
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: rows assumed for leaves with no statistics (estimates stay unconfident)
UNKNOWN_ROWS = float(1 << 30)
#: exact left-deep DP join ordering up to this many inputs; greedy above
DP_THRESHOLD = 6
#: statistics whose recorded source size drifted by more than this factor
#: from the relation's current size are treated as absent
STALENESS_RATIO = 2.0

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class ColumnEstimate:
    """What the estimator tracks per attribute as it walks the plan."""

    ndv: float
    null_frac: float = 0.0
    histogram: Optional[Histogram] = None
    min_value: Optional[object] = None
    max_value: Optional[object] = None

    def scaled(self, selectivity: float, rows: float) -> "ColumnEstimate":
        return ColumnEstimate(
            max(1.0, min(self.ndv * max(selectivity, 0.0), max(rows, 1.0))),
            self.null_frac, self.histogram, self.min_value, self.max_value,
        )


@dataclass
class Estimate:
    """Cardinality estimate for one plan node."""

    rows: float
    avg_row_bytes: float
    cols: Dict[int, ColumnEstimate] = field(default_factory=dict)
    #: True only when every contributing leaf had fresh ANALYZE statistics
    confident: bool = False

    @property
    def bytes(self) -> float:
        return self.rows * self.avg_row_bytes


def _leaf_stats(store: StatsStore, leaf: L.LogicalPlan,
                absent: Set[str]) -> Optional[TableStats]:
    """ANALYZE statistics of a relation leaf: the session store's, else the
    ones persisted with the table (hydrated into the store).  A table found
    to have none lands in ``absent`` and is not asked about again."""
    if isinstance(leaf, L.LocalRelation) and not len(store):
        return None  # nothing was analyzed: the rows need not be hashed
    key = stats_key(leaf)
    if key in absent:
        return None
    stats = store.get(key)
    if stats is None and isinstance(leaf, L.LogicalRelation):
        stats = hydrate_relation_stats(store, key, leaf)
    if stats is None:
        absent.add(key)
    return stats


def estimator_for(stats, plan: L.LogicalPlan, metrics=None,
                  pricing_views: bool = False) -> Optional["CardinalityEstimator"]:
    """The estimator of one planning pass over ``plan``, or None when the
    pass has no use for one: nothing in it is decided by cost (no join to
    order, size or reduce, and no materialized view to price, which is what
    ``pricing_views`` says), or no leaf of it has statistics.

    ``stats`` is the session's :class:`StatsStore` -- or the estimator an
    earlier phase of the same pass already got from here, handed back as
    is, so the optimizer, the view pricer and the planner share one memo.
    """
    if stats is None or isinstance(stats, CardinalityEstimator):
        return stats
    # one walk, on every statement's way to a plan: keep it to a loop
    leaves, cost_based, stack = [], pricing_views, [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (L.LogicalRelation, L.LocalRelation)):
            leaves.append(node)
        elif isinstance(node, L.Join):
            cost_based = True
        stack.extend(node.children)
    if not cost_based:
        return None
    absent: Set[str] = set()
    if not any(_leaf_stats(stats, leaf, absent) is not None for leaf in leaves):
        return None
    return CardinalityEstimator(stats, metrics, absent)


class CardinalityEstimator:
    """Bottom-up estimates from the session's :class:`StatsStore`.

    One instance serves one planning pass: estimates are memoised per plan
    node, so however many rules ask about a subtree it is walked once.
    """

    def __init__(self, store: StatsStore, metrics=None,
                 absent: Optional[Set[str]] = None) -> None:
        self.store = store
        self.metrics = metrics
        #: stats keys already found to have no statistics (see _leaf_stats)
        self._absent: Set[str] = absent if absent is not None else set()
        #: id(node) -> (node, its estimate); holding the node pins its id
        self._memo: Dict[int, Tuple[L.LogicalPlan, Estimate]] = {}

    def _incr(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    def estimate(self, plan: L.LogicalPlan) -> Estimate:
        est = self._est(plan)
        self._incr("sql.cbo.estimates")
        return est

    def _est(self, node: L.LogicalPlan) -> Estimate:
        known = self._memo.get(id(node))
        if known is None:
            known = self._memo[id(node)] = (node, self._est_node(node))
        return known[1]

    # -- node dispatch -------------------------------------------------------
    def _est_node(self, node: L.LogicalPlan) -> Estimate:
        if isinstance(node, (L.LogicalRelation, L.LocalRelation)):
            return self._est_leaf(node)
        if isinstance(node, L.SubqueryAlias):
            return self._est(node.children[0])
        if isinstance(node, L.Filter):
            return self._est_filter(node)
        if isinstance(node, L.Project):
            return self._est_project(node)
        if isinstance(node, L.Join):
            return self._est_join(node)
        if isinstance(node, L.Aggregate):
            return self._est_aggregate(node)
        if isinstance(node, L.Distinct):
            child = self._est(node.children[0])
            return Estimate(max(1.0, child.rows * 0.5), child.avg_row_bytes,
                            dict(child.cols), child.confident)
        if isinstance(node, L.Limit):
            child = self._est(node.children[0])
            return Estimate(min(child.rows, float(node.n)), child.avg_row_bytes,
                            dict(child.cols), child.confident)
        if isinstance(node, L.Sort):
            return self._est(node.children[0])
        if isinstance(node, L.SetOperation):
            left = self._est(node.children[0])
            right = self._est(node.children[1])
            rows = left.rows + right.rows if node.op == "union" \
                else min(left.rows, right.rows)
            return Estimate(rows, left.avg_row_bytes, dict(left.cols),
                            left.confident and right.confident)
        if len(node.children) == 1:
            return self._est(node.children[0])
        return Estimate(UNKNOWN_ROWS, 64.0, {}, False)

    # -- leaves --------------------------------------------------------------
    def _table_estimate(self, node: L.LogicalPlan, ts) -> Estimate:
        rows = float(max(ts.row_count, 0))
        cols: Dict[int, ColumnEstimate] = {}
        for attr in node.output:
            cs = ts.columns.get(attr.name)
            if cs is not None:
                cols[attr.attr_id] = ColumnEstimate(
                    float(max(1, cs.ndv)), cs.null_fraction(ts.row_count),
                    cs.histogram, cs.min_value, cs.max_value,
                )
        return Estimate(rows, ts.avg_row_bytes, cols, confident=True)

    def _est_leaf(self, node: L.LogicalPlan) -> Estimate:
        """A relation of any kind is estimated confidently if and only if
        ANALYZE TABLE ran on it and its statistics are still fresh."""
        ts = _leaf_stats(self.store, node, self._absent)
        if ts is not None and not self._stale(node, ts):
            return self._table_estimate(node, ts)
        if isinstance(node, L.LocalRelation):
            rows = float(len(node.rows))
        else:
            size = node.relation.size_in_bytes()
            rows = max(1.0, size / 64.0) if size is not None else UNKNOWN_ROWS
        return Estimate(rows, 64.0, {}, confident=False)

    def _stale(self, node: L.LogicalPlan, ts) -> bool:
        """Stats whose recorded source size drifted too far are treated as
        absent (the query then keeps its syntactic plan)."""
        if ts.source_bytes is None or ts.source_bytes <= 0:
            return False
        current = node.relation.size_in_bytes()
        if current is None:
            return False
        if current > ts.source_bytes * STALENESS_RATIO \
                or current * STALENESS_RATIO < ts.source_bytes:
            self._incr("sql.cbo.stats_stale")
            return True
        return False

    # -- unary operators -----------------------------------------------------
    def _est_filter(self, node: L.Filter) -> Estimate:
        child = self._est(node.children[0])
        cols = dict(child.cols)
        selectivity = 1.0
        for conjunct in E.split_conjuncts(node.condition):
            selectivity *= self._selectivity(conjunct, cols)
        rows = child.rows * selectivity
        scaled = {aid: ce.scaled(selectivity, rows) for aid, ce in cols.items()}
        return Estimate(rows, child.avg_row_bytes, scaled, child.confident)

    def _est_project(self, node: L.Project) -> Estimate:
        child = self._est(node.children[0])
        cols: Dict[int, ColumnEstimate] = {}
        for item in node.project_list:
            if isinstance(item, E.Attribute):
                ce = child.cols.get(item.attr_id)
                if ce is not None:
                    cols[item.attr_id] = ce
            elif isinstance(item, E.Alias) and isinstance(item.child, E.Attribute):
                ce = child.cols.get(item.child.attr_id)
                if ce is not None:
                    cols[item.attr_id] = ce
        width_ratio = max(1, len(node.output)) / max(1, len(node.children[0].output))
        avg = max(1.0, child.avg_row_bytes * min(1.0, width_ratio))
        return Estimate(child.rows, avg, cols, child.confident)

    def _est_aggregate(self, node: L.Aggregate) -> Estimate:
        child = self._est(node.children[0])
        if not node.groupings:
            return Estimate(1.0, 16.0 * max(1, len(node.output)), {}, child.confident)
        groups = 1.0
        cols: Dict[int, ColumnEstimate] = {}
        for g in node.groupings:
            if isinstance(g, E.Attribute) and g.attr_id in child.cols:
                ce = child.cols[g.attr_id]
                groups *= ce.ndv
                cols[g.attr_id] = ce
            else:
                groups *= max(1.0, child.rows ** 0.5)
        rows = max(1.0, min(child.rows, groups))
        return Estimate(rows, 16.0 * max(1, len(node.output)), cols,
                        child.confident)

    # -- joins ---------------------------------------------------------------
    def _est_join(self, node: L.Join) -> Estimate:
        from repro.sql.planner import _extract_equi_keys

        left = self._est(node.left)
        right = self._est(node.right)
        confident = left.confident and right.confident
        if node.how == "cross" or node.condition is None:
            return Estimate(left.rows * right.rows,
                            left.avg_row_bytes + right.avg_row_bytes,
                            {**left.cols, **right.cols}, confident)
        left_ids = {a.attr_id for a in node.left.output}
        right_ids = {a.attr_id for a in node.right.output}
        left_keys, right_keys, residual = _extract_equi_keys(
            node.condition, left_ids, right_ids
        )
        selectivity, keep = 1.0, 1.0
        cols = {**left.cols, **right.cols}
        for a, b in zip(left_keys, right_keys):
            ndv_l = self._key_ndv(a, left.cols)
            ndv_r = self._key_ndv(b, right.cols)
            if ndv_l is not None and ndv_r is not None:
                selectivity *= 1.0 / max(ndv_l, ndv_r, 1.0)
                keep *= min(1.0, ndv_r / max(ndv_l, 1.0))
                overlap = min(ndv_l, ndv_r)
                for key in (a, b):
                    if isinstance(key, E.Attribute) and key.attr_id in cols:
                        ce = cols[key.attr_id]
                        cols[key.attr_id] = ColumnEstimate(
                            max(1.0, overlap), 0.0, ce.histogram,
                            ce.min_value, ce.max_value,
                        )
            else:
                selectivity *= 1.0 / max(1.0, min(left.rows, right.rows) ** 0.5)
                keep *= 0.7
        if residual is not None:
            selectivity *= DEFAULT_SELECTIVITY ** len(E.split_conjuncts(residual))
            keep *= DEFAULT_SELECTIVITY
        inner_rows = left.rows * right.rows * selectivity
        if node.how == "inner":
            rows, avg = inner_rows, left.avg_row_bytes + right.avg_row_bytes
        elif node.how == "left":
            rows = max(inner_rows, left.rows)
            avg = left.avg_row_bytes + right.avg_row_bytes
        elif node.how == "semi":
            rows, avg, cols = left.rows * keep, left.avg_row_bytes, dict(left.cols)
        else:  # anti
            rows = max(0.0, left.rows * (1.0 - keep))
            avg, cols = left.avg_row_bytes, dict(left.cols)
        return Estimate(rows, avg, cols, confident)

    @staticmethod
    def _key_ndv(key: E.Expression, cols: Dict[int, ColumnEstimate]) -> Optional[float]:
        if isinstance(key, E.Attribute):
            ce = cols.get(key.attr_id)
            return ce.ndv if ce is not None else None
        return None

    # -- predicate selectivity -----------------------------------------------
    def _selectivity(self, expr: E.Expression,
                     cols: Dict[int, ColumnEstimate]) -> float:
        if isinstance(expr, E.And):
            return (self._selectivity(expr.children[0], cols)
                    * self._selectivity(expr.children[1], cols))
        if isinstance(expr, E.Or):
            a = self._selectivity(expr.children[0], cols)
            b = self._selectivity(expr.children[1], cols)
            return min(1.0, a + b - a * b)
        if isinstance(expr, E.Not):
            return max(0.0, 1.0 - self._selectivity(expr.children[0], cols))
        if isinstance(expr, E.IsNull) and isinstance(expr.children[0], E.Attribute):
            ce = cols.get(expr.children[0].attr_id)
            return ce.null_frac if ce is not None else DEFAULT_SELECTIVITY
        if isinstance(expr, E.IsNotNull) and isinstance(expr.children[0], E.Attribute):
            ce = cols.get(expr.children[0].attr_id)
            return 1.0 - ce.null_frac if ce is not None else 1.0
        if isinstance(expr, E.In) and isinstance(expr.value, E.Attribute):
            ce = cols.get(expr.value.attr_id)
            if ce is not None and all(isinstance(o, E.Literal) for o in expr.options):
                return min(1.0, len(expr.options) / max(ce.ndv, 1.0))
            return DEFAULT_SELECTIVITY
        if isinstance(expr, E.Comparison):
            oriented = self._orient(expr)
            if oriented is not None:
                attr, value, op = oriented
                ce = cols.get(attr.attr_id)
                if ce is not None:
                    return self._comparison_selectivity(ce, value, op)
        return DEFAULT_SELECTIVITY

    @staticmethod
    def _orient(expr: E.Comparison) -> Optional[Tuple[E.Attribute, object, str]]:
        a, b = expr.children
        if isinstance(a, E.Attribute) and isinstance(b, E.Literal):
            return a, b.value, expr.op
        if isinstance(b, E.Attribute) and isinstance(a, E.Literal):
            return b, a.value, _FLIP[expr.op]
        return None

    @staticmethod
    def _comparison_selectivity(ce: ColumnEstimate, value: object, op: str) -> float:
        non_null = max(0.0, 1.0 - ce.null_frac)
        if value is None:
            return 0.0
        if op == "=":
            return non_null / max(ce.ndv, 1.0)
        if op == "!=":
            return non_null * (1.0 - 1.0 / max(ce.ndv, 1.0))
        try:
            if ce.histogram is not None:
                leq = ce.histogram.fraction_leq(value, inclusive=op in ("<=", ">"))
                frac = leq if op in ("<", "<=") else 1.0 - leq
                return non_null * min(1.0, max(0.0, frac))
            if isinstance(value, (int, float)) \
                    and isinstance(ce.min_value, (int, float)) \
                    and isinstance(ce.max_value, (int, float)) \
                    and ce.max_value > ce.min_value:
                frac = (value - ce.min_value) / (ce.max_value - ce.min_value)
                frac = min(1.0, max(0.0, frac))
                return non_null * (frac if op in ("<", "<=") else 1.0 - frac)
        except TypeError:
            pass
        return DEFAULT_SELECTIVITY


# -- join reordering ---------------------------------------------------------

def reorder_joins(plan: L.LogicalPlan,
                  estimator: CardinalityEstimator) -> L.LogicalPlan:
    """Re-order maximal inner-join clusters by estimated cost.

    Each reordered cluster is rebuilt left-deep and wrapped in a Project
    restoring the original column order, so downstream operators (and the
    query's answer) are unaffected.  Clusters with any unconfident input
    estimate are left in syntactic order (``sql.cbo.reorders_rejected``).
    """
    def transform(node: L.LogicalPlan) -> L.LogicalPlan:
        if isinstance(node, L.Join) and node.how == "inner":
            inputs, conjuncts = _flatten_inner(node)
            if len(inputs) >= 3:
                new_inputs = [transform(i) for i in inputs]
                replaced = _try_reorder(node, new_inputs, conjuncts, estimator)
                if replaced is not None:
                    return replaced
                if all(n is o for n, o in zip(new_inputs, inputs)):
                    return node
                mapping = {id(o): n for o, n in zip(inputs, new_inputs)}
                return _rebuild(node, mapping)
        children = [transform(c) for c in node.children]
        if all(c is o for c, o in zip(children, node.children)):
            return node
        return node.with_new_children(children)

    return transform(plan)


def _flatten_inner(node: L.LogicalPlan) -> Tuple[List[L.LogicalPlan], List[E.Expression]]:
    """Collect the inputs and conjuncts of a maximal inner-join tree."""
    if isinstance(node, L.Join) and node.how == "inner":
        left_in, left_conj = _flatten_inner(node.left)
        right_in, right_conj = _flatten_inner(node.right)
        own = E.split_conjuncts(node.condition) if node.condition is not None else []
        return left_in + right_in, left_conj + right_conj + own
    return [node], []


def _rebuild(node: L.LogicalPlan, mapping: Dict[int, L.LogicalPlan]) -> L.LogicalPlan:
    """The original join-tree shape over transformed inputs."""
    if isinstance(node, L.Join) and node.how == "inner":
        return L.Join(_rebuild(node.left, mapping), _rebuild(node.right, mapping),
                      "inner", node.condition)
    return mapping[id(node)]


#: a partial left-deep order: (cost, rows out, inputs joined so far, conjuncts used)
_State = Tuple[float, float, Tuple[int, ...], frozenset]


@dataclass
class _JoinGraph:
    """What the join search sees of an inner-join cluster: a row estimate
    per input and, per conjunct, the inputs it references and how selective
    it is.  Cost counts rows read and produced by every join."""

    rows: List[float]
    conj_inputs: List[frozenset]
    conj_sel: List[float]

    def start(self, i: int) -> _State:
        return 0.0, self.rows[i], (i,), frozenset()

    def extend(self, state: _State, j: int) -> _State:
        cost, state_rows, order, used = state
        members = set(order) | {j}
        applicable = frozenset(
            c for c in range(len(self.conj_inputs))
            if c not in used and self.conj_inputs[c] <= members
        )
        sel = 1.0
        for c in applicable:
            sel *= self.conj_sel[c]
        new_rows = state_rows * self.rows[j] * sel
        new_cost = cost + state_rows + self.rows[j] + new_rows
        return new_cost, new_rows, order + (j,), used | applicable

    def cost(self, order: Sequence[int]) -> float:
        state = self.start(order[0])
        for j in order[1:]:
            state = self.extend(state, j)
        return state[0]

    def linked(self, order: Sequence[int], j: int) -> bool:
        """True when some conjunct joins input ``j`` to the inputs in ``order``."""
        members = set(order) | {j}
        return any(j in refs and len(refs) > 1 and refs <= members
                   for refs in self.conj_inputs)

    def candidates(self, order: Sequence[int]) -> List[int]:
        """The inputs that may come next: those a conjunct joins to the
        order so far.  Row counts alone make a product of two small inputs
        look cheap, and it then meets the big input on a wide multi-column
        key; only where no remaining input is joined to the order at all (a
        genuinely disconnected cluster) is a Cartesian product allowed."""
        remaining = [j for j in range(len(self.rows)) if j not in order]
        return [j for j in remaining if self.linked(order, j)] or remaining


def _try_reorder(node: L.Join, inputs: List[L.LogicalPlan],
                 conjuncts: List[E.Expression],
                 estimator: CardinalityEstimator) -> Optional[L.LogicalPlan]:
    ests = [estimator.estimate(i) for i in inputs]
    if not all(e.confident for e in ests):
        estimator._incr("sql.cbo.reorders_rejected")
        return None
    n = len(inputs)

    attr_to_input: Dict[int, int] = {}
    for i, inp in enumerate(inputs):
        for a in inp.output:
            attr_to_input[a.attr_id] = i

    graph = _JoinGraph([max(e.rows, 1.0) for e in ests], [], [])
    for conjunct in conjuncts:
        refs = conjunct.references()
        idxs = {attr_to_input[r] for r in refs if r in attr_to_input}
        if not idxs or any(r not in attr_to_input for r in refs):
            idxs = set(range(n))  # defensive: only applicable at the very top
        graph.conj_inputs.append(frozenset(idxs))
        graph.conj_sel.append(_conjunct_selectivity(conjunct, ests, attr_to_input))

    order = _cheaper_order(graph)
    if order is None:
        return None

    # build the left-deep tree along `order`, attaching each conjunct at the
    # first join where all its inputs are available
    current = inputs[order[0]]
    state = graph.start(order[0])
    for j in order[1:]:
        prev_used = state[3]
        state = graph.extend(state, j)
        newly = state[3] - prev_used
        cond = E.combine_conjuncts([conjuncts[c] for c in sorted(newly)])
        current = L.Join(current, inputs[j], "inner", cond)
    leftover = [conjuncts[c] for c in range(len(conjuncts)) if c not in state[3]]
    if leftover:
        current = L.Filter(E.combine_conjuncts(leftover), current)
    estimator._incr("sql.cbo.reorders_applied")
    return L.Project(list(node.output), current)


def _conjunct_selectivity(conjunct: E.Expression, ests: List[Estimate],
                          attr_to_input: Dict[int, int]) -> float:
    """Selectivity of one join conjunct for the reorder search."""
    if isinstance(conjunct, E.Comparison) and conjunct.op == "=":
        a, b = conjunct.children
        if isinstance(a, E.Attribute) and isinstance(b, E.Attribute):
            ndvs = []
            for attr in (a, b):
                idx = attr_to_input.get(attr.attr_id)
                ce = ests[idx].cols.get(attr.attr_id) if idx is not None else None
                if ce is None:
                    return DEFAULT_SELECTIVITY
                ndvs.append(ce.ndv)
            return 1.0 / max(max(ndvs), 1.0)
    return DEFAULT_SELECTIVITY


def _cheaper_order(graph: _JoinGraph) -> Optional[Tuple[int, ...]]:
    """The order the search prefers to the query's own, or None.  A tie
    keeps the syntactic order, and a tie is judged to rounding: orders that
    apply the same conjuncts differ only in the last bits of their cost."""
    n = len(graph.rows)
    order = _dp_order(graph) if n <= DP_THRESHOLD else _greedy_order(graph)
    if graph.cost(order) < graph.cost(range(n)) * (1.0 - 1e-9):
        return order
    return None


def _dp_order(graph: _JoinGraph) -> Tuple[int, ...]:
    """Exact left-deep join order by DP over input subsets."""
    n = len(graph.rows)
    best: Dict[int, _State] = {1 << i: graph.start(i) for i in range(n)}
    for mask in range(1, 1 << n):
        if mask not in best or bin(mask).count("1") == n:
            continue
        for j in graph.candidates(best[mask][2]):
            candidate = graph.extend(best[mask], j)
            new_mask = mask | (1 << j)
            incumbent = best.get(new_mask)
            # deterministic tie-break on the order tuple itself
            if incumbent is None or (candidate[0], candidate[2]) < \
                    (incumbent[0], incumbent[2]):
                best[new_mask] = candidate
    return best[(1 << n) - 1][2]


def _greedy_order(graph: _JoinGraph) -> Tuple[int, ...]:
    """Smallest-intermediate-first greedy order for wide join sets."""
    n = len(graph.rows)
    state = graph.start(min(range(n), key=lambda i: (graph.rows[i], i)))
    while len(state[2]) < n:
        choice = min(graph.candidates(state[2]),
                     key=lambda j: (graph.extend(state, j)[1], j))
        state = graph.extend(state, choice)
    return state[2]


# -- runtime key filter profitability ---------------------------------------

def semijoin_keep_fraction(est_left: Estimate, est_right: Estimate,
                           left_keys: Sequence[E.Expression],
                           right_keys: Sequence[E.Expression]) -> Optional[float]:
    """Expected fraction of probe rows surviving a build-key pre-filter.

    ``None`` when any key column lacks NDV statistics -- the planner then
    pushes no keys rather than guessing.
    """
    keep = 1.0
    for a, b in zip(left_keys, right_keys):
        ndv_l = CardinalityEstimator._key_ndv(a, est_left.cols)
        ndv_r = CardinalityEstimator._key_ndv(b, est_right.cols)
        if ndv_l is None or ndv_r is None:
            return None
        keep *= min(1.0, ndv_r / max(ndv_l, 1.0))
    return keep
