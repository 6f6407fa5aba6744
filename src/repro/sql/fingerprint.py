"""Fingerprints: the keys of the plan cache and the broadcast build stamp.

The *plan* cache (end of this file; docs/caching.md, "Plan cache") keys a
statement by its tokens, literals replaced by typed markers.  A broadcast
join's ``build_stamp`` (docs/engine.md, "One build per fingerprint") keys
its build side's logical plan by structure:

Two equal subplans -- q38's three ``date_dim`` builds -- must get the same
stamp, but each mints its own attribute ids (``name#17`` vs ``name#42``),
so a naive ``pretty()`` hash would never match.  The fingerprint therefore
renders the plan tree to text and then *canonicalises* attribute ids by
order of first appearance -- the same trick Spark's
``QueryPlan.canonicalized`` uses -- so structurally identical plans
collapse to one key.

Leaf identity needs care too: a ``LogicalRelation``'s repr says nothing
about *which* table it reads, so relations contribute their durable
coordinates (cluster quorum + qualified table name + source options) when
they expose them, and fall back to Python object identity otherwise --
a conservative default that can only miss a shared build, never share a
wrong one.  ``LocalRelation`` hashes its actual rows, so two inline
datasets only share a key when their data is identical.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.analyzer import fresh_plan

_ATTR_ID = re.compile(r"#(\d+)")


def _relation_identity(node: L.LogicalRelation) -> str:
    """A durable identity string for an external relation."""
    relation = node.relation
    catalog = getattr(relation, "catalog", None)
    qualified = getattr(catalog, "qualified_name", None)
    if qualified is not None:
        quorum = getattr(relation, "quorum", "")
        options = getattr(relation, "options", None) or {}
        opts = ",".join(f"{k}={options[k]!r}" for k in sorted(options))
        return f"relation:{quorum}:{qualified}:{opts}"
    # unknown source type: object identity only ever under-matches
    return f"relation:{type(relation).__name__}:{id(relation)}"


def _describe(node: L.LogicalPlan) -> str:
    if isinstance(node, L.LogicalRelation):
        return (_relation_identity(node)
                + ":" + ",".join(repr(a) for a in node.output))
    if isinstance(node, L.LocalRelation):
        return node.identity()
    return node.describe()


def plan_fingerprint(plan: L.LogicalPlan) -> str:
    """A canonical hash identifying this plan's structure and sources."""
    lines: List[str] = []

    def visit(node: L.LogicalPlan, depth: int) -> None:
        lines.append(f"{depth}:{_describe(node)}")
        for child in node.children:
            visit(child, depth + 1)

    visit(plan, 0)
    text = "\n".join(lines)

    # canonicalise attribute ids by first appearance so fresh analyzer runs
    # of the same query produce the same fingerprint
    renumbered: dict = {}

    def canonical(match: "re.Match[str]") -> str:
        attr_id = match.group(1)
        if attr_id not in renumbered:
            renumbered[attr_id] = len(renumbered)
        return f"#{renumbered[attr_id]}"

    canonical_text = _ATTR_ID.sub(canonical, text)
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:16]


# -- the plan cache ------------------------------------------------------------------

_MARKERS = {int: "?i", float: "?f", str: "?s"}


def statement_shape(tokens) -> Tuple[str, ...]:
    """The token texts, each literal's replaced by its type's marker (no
    token's text starts with ``?`` and goes on; analysis depends on the type)."""
    return tuple([t.text if t.value is None else _MARKERS[type(t.value)]
                  for t in tokens])


def bind_plan(plan: L.LogicalPlan, values: Sequence[object]) -> L.LogicalPlan:
    """``plan`` with every bind slot replaced by the literal ``values`` gives it."""
    def bind(expr: E.Expression) -> E.Expression:
        return expr.transform(
            lambda e: e.bound(values) if isinstance(e, E.BindSlot) else None)

    return plan.transform_up(lambda node: node.map_expressions(bind))


def bind_slots(plan: L.LogicalPlan) -> List[E.BindSlot]:
    """Every bind slot still in ``plan``."""
    found: List[E.BindSlot] = []

    def collect(expr: E.Expression) -> E.Expression:
        found.extend(expr.collect(lambda e: isinstance(e, E.BindSlot)))
        return expr

    plan.transform_up(lambda node: node.map_expressions(collect))
    return found


class CachedPlan(NamedTuple):
    """What one statement shape (and its pinned values) was planned to."""
    analyzed: L.LogicalPlan  # both still hold their bind slots
    optimized: L.LogicalPlan
    summary: str  # "3 slots" / "2 slots; pinned: LIMIT", for EXPLAIN
    joins: bool  # a join, which statistics may decide


class BoundPlan:
    """A cached plan and one statement's values: what ``SparkSession.sql``
    hands to ``plan_query`` in place of an analyzed plan.  ``lookup`` is
    what the text lookup did, "hit" or "miss"."""

    def __init__(self, entry: CachedPlan, values: Sequence[object],
                 lookup: str) -> None:
        self.entry = entry
        self.values = values
        self.lookup = lookup
        self._analyzed: Optional[L.LogicalPlan] = None

    def optimized(self) -> L.LogicalPlan:
        return bind_plan(self.entry.optimized, self.values)

    def analyzed(self) -> L.LogicalPlan:
        """Bound on first use, under fresh attribute ids: two statements
        served by one entry can meet in one join."""
        if self._analyzed is None:
            self._analyzed = fresh_plan(
                bind_plan(self.entry.analyzed, self.values))
        return self._analyzed


class PlanCache:
    """A bounded least-recently-used map the threads of one session share;
    evictions are counted in the session's ``metrics``."""

    def __init__(self, capacity: int, metrics) -> None:
        self.capacity = capacity
        self._metrics = metrics
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: object) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: object, entry: object) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._metrics.incr("sql.plancache.evictions")
