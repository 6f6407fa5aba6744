"""The Data Source API -- the plug-in surface SHC implements.

Mirrors Spark's ``org.apache.spark.sql.sources``: a :class:`BaseRelation`
exposes a schema, a ``build_scan(required_columns, filters)`` entry point
(PrunedFilteredScan), and ``unhandled_filters`` -- the API the paper calls
out (section VI.A.3) as the way a source tells the engine which predicates
it fully handled so Spark can skip re-applying them.  Source *filters* are a
deliberately small, serialisable language distinct from Catalyst expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sql import expressions as E
from repro.sql.types import StructType

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


# -- the source filter language --------------------------------------------------

@dataclass(frozen=True)
class Filter:
    """Base class of the source filter language."""

    def references(self) -> Tuple[str, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class AttributeFilter(Filter):
    attribute: str

    def references(self) -> Tuple[str, ...]:
        return (self.attribute,)


@dataclass(frozen=True)
class EqualTo(AttributeFilter):
    value: object


@dataclass(frozen=True)
class GreaterThan(AttributeFilter):
    value: object


@dataclass(frozen=True)
class GreaterThanOrEqual(AttributeFilter):
    value: object


@dataclass(frozen=True)
class LessThan(AttributeFilter):
    value: object


@dataclass(frozen=True)
class LessThanOrEqual(AttributeFilter):
    value: object


@dataclass(frozen=True)
class In(AttributeFilter):
    values: Tuple[object, ...]


@dataclass(frozen=True)
class StringStartsWith(AttributeFilter):
    prefix: str


@dataclass(frozen=True)
class IsNull(AttributeFilter):
    pass


@dataclass(frozen=True)
class IsNotNull(AttributeFilter):
    pass


@dataclass(frozen=True)
class Not(Filter):
    child: Filter

    def references(self) -> Tuple[str, ...]:
        return self.child.references()


@dataclass(frozen=True)
class And(Filter):
    left: Filter
    right: Filter

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()


@dataclass(frozen=True)
class Or(Filter):
    left: Filter
    right: Filter

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()


def translate_expression(expr: E.Expression) -> Optional[Filter]:
    """Compile a Catalyst predicate into a source filter, or None.

    Only expressions whose leaves are a single column and literals translate;
    anything else stays in the engine as a residual filter.
    """
    if isinstance(expr, E.Comparison):
        return _translate_comparison(expr)
    if isinstance(expr, E.In):
        if isinstance(expr.value, E.Attribute) and all(
            isinstance(o, E.Literal) for o in expr.options
        ):
            return In(expr.value.name, tuple(o.value for o in expr.options))
        return None
    if isinstance(expr, E.IsNull) and isinstance(expr.children[0], E.Attribute):
        return IsNull(expr.children[0].name)
    if isinstance(expr, E.IsNotNull) and isinstance(expr.children[0], E.Attribute):
        return IsNotNull(expr.children[0].name)
    if isinstance(expr, E.Like) and isinstance(expr.children[0], E.Attribute):
        pattern = expr.pattern
        if pattern.endswith("%") and "%" not in pattern[:-1] and "_" not in pattern:
            return StringStartsWith(expr.children[0].name, pattern[:-1])
        return None
    if isinstance(expr, E.And):
        left = translate_expression(expr.children[0])
        right = translate_expression(expr.children[1])
        if left is not None and right is not None:
            return And(left, right)
        return None
    if isinstance(expr, E.Or):
        left = translate_expression(expr.children[0])
        right = translate_expression(expr.children[1])
        if left is not None and right is not None:
            return Or(left, right)
        return None
    if isinstance(expr, E.Not):
        child = translate_expression(expr.children[0])
        return Not(child) if child is not None else None
    return None


def _translate_comparison(expr: E.Comparison) -> Optional[Filter]:
    left, right = expr.children
    op = expr.op
    if isinstance(left, E.Literal) and isinstance(right, E.Attribute):
        # normalise "5 < col" into "col > 5"
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        left, right, op = right, left, flipped[op]
    if not (isinstance(left, E.Attribute) and isinstance(right, E.Literal)):
        return None
    name, value = left.name, right.value
    if op == "=":
        return EqualTo(name, value)
    if op == "!=":
        return Not(EqualTo(name, value))
    if op == ">":
        return GreaterThan(name, value)
    if op == ">=":
        return GreaterThanOrEqual(name, value)
    if op == "<":
        return LessThan(name, value)
    return LessThanOrEqual(name, value)


# -- the relation plug-in API --------------------------------------------------------

class BaseRelation:
    """A pluggable data source (Spark's PrunedFilteredScan + InsertableRelation)."""

    @property
    def schema(self) -> StructType:
        raise NotImplementedError

    def size_in_bytes(self) -> Optional[int]:
        """Estimated data size; None means unknown (planner assumes huge)."""
        return None

    def build_scan(self, required_columns: Sequence[str],
                   filters: Sequence[Filter]) -> "RDD":
        """Return an RDD of tuples ordered as ``required_columns``.

        ``filters`` is advisory: the relation may apply any subset; the
        engine re-applies whatever ``unhandled_filters`` reports (and, for
        safety, everything unless the relation says otherwise).
        """
        raise NotImplementedError

    def unhandled_filters(self, filters: Sequence[Filter]) -> Sequence[Filter]:
        """The subset of ``filters`` the relation does NOT fully evaluate."""
        return list(filters)

    def insert(self, rdd: "RDD", schema: StructType, ctx,
               overwrite: bool = False) -> None:
        """Write an RDD of tuples (ordered as ``schema``) into the source.

        ``ctx`` is the query's :class:`~repro.sql.physical.ExecContext`; the
        relation runs whatever distributed jobs the write path needs through
        it so write time and metrics are accounted like a query.
        """
        raise NotImplementedError(f"{type(self).__name__} is not writable")


class RelationProvider:
    """Factory registered under a format name (DataSourceRegister)."""

    def create_relation(self, options: Dict[str, str], session) -> BaseRelation:
        raise NotImplementedError


_PROVIDERS: Dict[str, RelationProvider] = {}


def register_provider(format_name: str, provider: RelationProvider) -> None:
    """Register a data source format (e.g. SHC's full class name)."""
    _PROVIDERS[format_name] = provider


def lookup_provider(format_name: str) -> RelationProvider:
    """Resolve a registered data source format to its provider."""
    provider = _PROVIDERS.get(format_name)
    if provider is None:
        from repro.common.errors import AnalysisError

        raise AnalysisError(
            f"unknown data source format {format_name!r}; "
            f"registered: {sorted(_PROVIDERS)}"
        )
    return provider
