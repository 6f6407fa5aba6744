"""Structural fingerprints of logical plans, the partition-cache key.

Two independently-built DataFrames over the same table with the same
transformations must hit the same cache entry, but every analysis pass
mints fresh attribute ids (``name#17`` vs ``name#42``), so a naive
``pretty()`` hash would never match.  The fingerprint therefore renders the
plan tree to text and then *canonicalises* attribute ids by order of first
appearance -- the same trick Spark's ``QueryPlan.canonicalized`` uses --
so structurally identical plans collapse to one key.

Leaf identity needs care too: a ``LogicalRelation``'s repr says nothing
about *which* table it reads, so relations contribute their durable
coordinates (cluster quorum + qualified table name + source options) when
they expose them, and fall back to Python object identity otherwise --
a conservative default that can only cause cache misses, never wrong hits.
``LocalRelation`` hashes its actual rows, so two inline datasets only share
an entry when their data is identical.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

from repro.sql import logical as L

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
