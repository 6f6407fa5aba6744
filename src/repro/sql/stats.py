"""Catalog statistics: what ``ANALYZE TABLE`` collects and where it lives.

``ANALYZE TABLE t COMPUTE STATISTICS`` scans the table once (paying the
simulated scan cost like any query) and distils the result into a
:class:`TableStats`: row count, total bytes, and one :class:`ColumnStats`
per column -- NDV, null count, min/max, and an equi-height histogram.
Stats are keyed by the *durable identity* of the scanned leaf (the same
``relation:<quorum>:<table>:<opts>`` string the plan-fingerprint cache
uses), so every later query over the same table finds them no matter which
fresh attribute ids the analyzer minted.  Column stats are keyed by column
*name* for the same reason.

For HBase-backed tables the JSON form is also persisted alongside the
table's schema metadata (a master-level table attribute stored in the
ZooKeeper model), so a new session against the same cluster starts warm.
See docs/optimizer.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import CatalogError, NoSuchTableError
from repro.sql import expressions as E
from repro.sql import logical as L

#: table-attribute key under which TableStats JSON is persisted
STATS_ATTRIBUTE = "shc.table.stats"

#: equi-height histogram buckets ANALYZE collects per column
HISTOGRAM_BUCKETS = 8

#: JSON-representable scalar types allowed into min/max/histogram bounds
_ORDERED_SCALARS = (int, float, str)


@dataclass
class Histogram:
    """Equi-height histogram: ``bounds`` has ``len(heights) + 1`` entries."""

    bounds: List[object]
    heights: List[int]

    def fraction_leq(self, value: object, inclusive: bool = True) -> float:
        """Estimated fraction of (non-null) values ``<= value`` (or ``<``)."""
        if not self.heights:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            # the max itself: everything but (exclusive) an epsilon of ties
            return 1.0 if inclusive or value > self.bounds[-1] else 0.99
        total = sum(self.heights)
        covered = 0.0
        for i, height in enumerate(self.heights):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if value >= hi:
                covered += height
                continue
            # value falls inside bucket i: interpolate numerics, else half
            if isinstance(value, (int, float)) and isinstance(lo, (int, float)) \
                    and hi != lo:
                frac = (value - lo) / (hi - lo)
            else:
                frac = 0.5
            covered += height * min(1.0, max(0.0, frac))
            break
        return covered / total

    def to_json(self) -> dict:
        return {"bounds": list(self.bounds), "heights": list(self.heights)}

    @staticmethod
    def from_json(data: dict) -> "Histogram":
        return Histogram(list(data["bounds"]), [int(h) for h in data["heights"]])


@dataclass
class ColumnStats:
    """Per-column statistics collected by ANALYZE."""

    ndv: int
    null_count: int
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    histogram: Optional[Histogram] = None

    def null_fraction(self, row_count: int) -> float:
        return self.null_count / row_count if row_count else 0.0

    def to_json(self) -> dict:
        data: dict = {"ndv": self.ndv, "null_count": self.null_count}
        if isinstance(self.min_value, _ORDERED_SCALARS):
            data["min"] = self.min_value
            data["max"] = self.max_value
        if self.histogram is not None:
            data["histogram"] = self.histogram.to_json()
        return data

    @staticmethod
    def from_json(data: dict) -> "ColumnStats":
        histogram = data.get("histogram")
        return ColumnStats(
            int(data["ndv"]), int(data["null_count"]),
            data.get("min"), data.get("max"),
            Histogram.from_json(histogram) if histogram else None,
        )


@dataclass
class TableStats:
    """Whole-table statistics; ``columns`` is keyed by column *name*."""

    row_count: int
    total_bytes: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    #: the relation's own ``size_in_bytes()`` at ANALYZE time (on-disk
    #: bytes, a different unit from the in-memory ``total_bytes``); the
    #: staleness check compares like against like through this field
    source_bytes: Optional[int] = None

    @property
    def avg_row_bytes(self) -> float:
        return self.total_bytes / self.row_count if self.row_count else 1.0

    def to_json(self) -> dict:
        data = {
            "row_count": self.row_count,
            "total_bytes": self.total_bytes,
            "columns": {n: c.to_json() for n, c in self.columns.items()},
        }
        if self.source_bytes is not None:
            data["source_bytes"] = self.source_bytes
        return data

    @staticmethod
    def from_json(data: dict) -> "TableStats":
        source = data.get("source_bytes")
        return TableStats(
            int(data["row_count"]), int(data["total_bytes"]),
            {n: ColumnStats.from_json(c)
             for n, c in data.get("columns", {}).items()},
            source_bytes=int(source) if source is not None else None,
        )


def build_histogram(values: Sequence[object], buckets: int) -> Optional[Histogram]:
    """Equi-height histogram over non-null ``values`` (None when unorderable)."""
    if not values or buckets < 1:
        return None
    try:
        ordered = sorted(values)
    except TypeError:
        return None
    if not isinstance(ordered[0], _ORDERED_SCALARS):
        return None
    n = len(ordered)
    buckets = min(buckets, n)
    bounds = [ordered[0]]
    heights = []
    prev = 0
    for i in range(1, buckets + 1):
        cut = (i * n) // buckets
        bounds.append(ordered[cut - 1])
        heights.append(cut - prev)
        prev = cut
    return Histogram(bounds, heights)


def compute_table_stats(rows: Sequence[tuple], schema) -> TableStats:
    """Distil collected rows into :class:`TableStats` (deterministic)."""
    from repro.engine.shuffle import estimate_size

    total_bytes = sum(estimate_size(tuple(r)) for r in rows)
    columns: Dict[str, ColumnStats] = {}
    for i, field_ in enumerate(schema):
        values = [r[i] for r in rows]
        non_null = [v for v in values if v is not None]
        try:
            ndv = len(set(non_null))
        except TypeError:  # unhashable values: every row its own group
            ndv = len(non_null)
        histogram = build_histogram(non_null, HISTOGRAM_BUCKETS)
        min_value = histogram.bounds[0] if histogram else None
        max_value = histogram.bounds[-1] if histogram else None
        columns[field_.name] = ColumnStats(
            ndv, len(values) - len(non_null), min_value, max_value, histogram
        )
    return TableStats(len(rows), total_bytes, columns)


def stats_key(plan: L.LogicalPlan) -> Optional[str]:
    """Durable stats-store key for a plan whose leaf identity is stable.

    Sees through scoping/identity nodes the optimizer would strip anyway;
    returns None for plans with no durable leaf identity (composite trees:
    statistics are kept per table, and ANALYZE refuses these).
    """
    node = plan
    while True:
        if isinstance(node, L.SubqueryAlias):
            node = node.children[0]
            continue
        if isinstance(node, L.Project) and all(
            isinstance(item, E.Attribute) for item in node.project_list
        ) and len(node.project_list) == len(node.children[0].output):
            node = node.children[0]
            continue
        break
    if isinstance(node, L.LogicalRelation):
        from repro.sql.fingerprint import _relation_identity

        return _relation_identity(node)
    if isinstance(node, L.LocalRelation):
        return node.identity()
    return None


class StatsStore:
    """In-session stats catalog: durable leaf keys -> :class:`TableStats`."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableStats] = {}

    def put(self, key: str, stats: TableStats) -> None:
        self._tables[key] = stats

    def get(self, key: str) -> Optional[TableStats]:
        return self._tables.get(key)

    def drop(self, key: str) -> None:
        self._tables.pop(key, None)

    def clear(self) -> None:
        self._tables.clear()

    def __len__(self) -> int:
        return len(self._tables)

    def keys(self) -> List[str]:
        return list(self._tables)


def persist_relation_stats(node: L.LogicalRelation, stats: TableStats) -> bool:
    """Write ``stats`` alongside the table's metadata, when the source can.

    Only relations exposing a cluster + qualified catalog name (the HBase
    connector) participate; everything else keeps session-local stats.
    """
    relation = node.relation
    cluster = getattr(relation, "cluster", None)
    catalog = getattr(relation, "catalog", None)
    qualified = getattr(catalog, "qualified_name", None)
    if cluster is None or qualified is None:
        return False
    setter = getattr(cluster, "set_table_attribute", None)
    if setter is None:
        return False
    setter(qualified, STATS_ATTRIBUTE, json.dumps(stats.to_json()))
    return True


def hydrate_relation_stats(store: StatsStore, key: str,
                           node: L.LogicalRelation) -> Optional[TableStats]:
    """Load persisted stats for a relation leaf into ``store`` on first miss."""
    relation = node.relation
    cluster = getattr(relation, "cluster", None)
    catalog = getattr(relation, "catalog", None)
    qualified = getattr(catalog, "qualified_name", None)
    if cluster is None or qualified is None:
        return None
    getter = getattr(cluster, "get_table_attribute", None)
    if getter is None:
        return None
    try:
        raw = getter(qualified, STATS_ATTRIBUTE)
    except NoSuchTableError:
        return None
    if not raw:
        return None
    try:
        stats = TableStats.from_json(json.loads(raw))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CatalogError(
            f"persisted statistics of table {qualified} are corrupt "
            f"(re-run ANALYZE TABLE): {exc!r}") from exc
    store.put(key, stats)
    return stats
