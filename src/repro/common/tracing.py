"""Per-query tracing: a span tree over the simulated query lifecycle.

A trace is a tree of :class:`Span` objects mirroring how a query executes:
``query`` at the root, planning phases (``optimize`` / ``plan`` /
``scan-plan``) and stages below it, task and attempt spans below stages, and
scan spans below tasks.  Every span carries two clocks — *simulated seconds*
(the cost-model time attributed to that span) and *wall-clock seconds*
(measured with ``perf_counter``) — plus a snapshot of the
:class:`~repro.common.metrics.MetricsRegistry` deltas observed while the
span was open, a free-form attribute dict and a list of point events
(retries, scan resumes, shuffle fetches).

Tracing is zero-overhead by default: when disabled, every producer holds
:data:`NOOP_SPAN`, whose methods do nothing and whose ``child()`` returns
itself, so the hot path never branches on a flag or allocates.  Code that
may run without any span at all (e.g. the HBase client, which only sees a
``CostLedger``) checks ``ledger.trace_span is None`` first.

Span trees are deterministic: children record an ``order`` key at creation
(stage id, task index, attempt number, ...) and ``finish()`` sorts them by
it, so the rendered tree does not depend on the order tasks were placed in
or on how concurrent queries interleave.  ``to_dict()`` serialises a trace to plain JSON for
the bench harness and the ``repro trace`` CLI; :func:`render_trace` is the
shared pretty-printer over that JSON shape.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

# One lock guards every span tree's child/event appends.  Contention is
# negligible (spans are created far less often than metrics are bumped) and
# a shared lock keeps Span allocation-free beyond its own slots.
_TREE_LOCK = threading.Lock()


class Span:
    """One timed node in a trace tree.

    ``sim_seconds`` is simulated (cost-model) time, ``wall_clock_s`` is
    measured host time, ``metrics`` is the counter delta observed inside
    the span (assigned by the producer at ``finish()``).
    """

    __slots__ = ("name", "kind", "order", "attrs", "children", "events",
                 "sim_seconds", "wall_clock_s", "metrics", "_wall_start")

    #: real spans record; NOOP_SPAN overrides this with False so producers
    #: can cheaply skip snapshot work that only feeds the trace.
    enabled = True

    def __init__(self, name: str, kind: str = "span",
                 order: Any = None, **attrs: Any) -> None:
        self.name = name
        self.kind = kind
        self.order = order
        self.attrs: Dict[str, Any] = dict(attrs)
        self.children: List["Span"] = []
        self.events: List[Dict[str, Any]] = []
        self.sim_seconds = 0.0
        self.wall_clock_s = 0.0
        self.metrics: Dict[str, float] = {}
        self._wall_start = time.perf_counter()

    def child(self, name: str, kind: str = "span",
              order: Any = None, **attrs: Any) -> "Span":
        """Open a child span.  Thread-safe; explicit parent, no thread-locals."""
        span = Span(name, kind, order=order, **attrs)
        with _TREE_LOCK:
            self.children.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event (retry, resume, fetch) inside this span."""
        record = {"event": name}
        record.update(attrs)
        with _TREE_LOCK:
            self.events.append(record)

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on this span."""
        self.attrs.update(attrs)

    def finish(self, sim_seconds: Optional[float] = None,
               metrics: Optional[Dict[str, float]] = None) -> "Span":
        """Close the span: stamp wall-clock, attach the metrics delta and
        sort children into their deterministic order."""
        self.wall_clock_s = time.perf_counter() - self._wall_start
        if sim_seconds is not None:
            self.sim_seconds = float(sim_seconds)
        if metrics:
            self.metrics = dict(metrics)
        with _TREE_LOCK:
            if all(c.order is not None for c in self.children):
                self.children.sort(key=lambda c: c.order)
        return self

    def find(self, kind: str) -> List["Span"]:
        """All descendant spans (including self) of the given kind."""
        found = [self] if self.kind == kind else []
        for c in self.children:
            found.extend(c.find(kind))
        return found

    def find_events(self, name: str) -> List[Dict[str, Any]]:
        """All events of ``name`` in this span and every descendant.

        Lets tests and the observability docs locate e.g. the adaptive
        executor's ``reopt`` events without walking the tree by hand.
        """
        found = [dict(e) for e in self.events if e.get("event") == name]
        for c in self.children:
            found.extend(c.find_events(name))
        return found

    def total(self, metric: str) -> float:
        """Sum a metric over this span and every descendant."""
        return (self.metrics.get(metric, 0.0)
                + sum(c.total(metric) for c in self.children))

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to the JSON trace schema (see docs/observability.md)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "sim_seconds": round(self.sim_seconds, 9),
            "wall_clock_s": round(self.wall_clock_s, 9),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        if self.events:
            out["events"] = [dict(e) for e in self.events]
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"children={len(self.children)})")


class _NoopSpan:
    """The disabled recorder: every operation is a no-op, ``child()``
    returns itself so a whole subtree of calls collapses to nothing."""

    __slots__ = ()
    enabled = False
    name = kind = "noop"
    order = None
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    events: List[Dict[str, Any]] = []
    sim_seconds = 0.0
    wall_clock_s = 0.0
    metrics: Dict[str, float] = {}

    def child(self, name: str, kind: str = "span",
              order: Any = None, **attrs: Any) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    def finish(self, sim_seconds: Optional[float] = None,
               metrics: Optional[Dict[str, float]] = None) -> "_NoopSpan":
        return self

    def find(self, kind: str) -> List[Span]:
        return []

    def find_events(self, name: str) -> List[Dict[str, Any]]:
        return []

    def total(self, metric: str) -> float:
        return 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NOOP_SPAN"


#: Shared no-op recorder used whenever tracing is disabled.
NOOP_SPAN = _NoopSpan()


def save_trace(trace: Any, path: str) -> None:
    """Write a trace (a :class:`Span` or an already-serialised dict) to a
    JSON file readable by ``python -m repro.cli trace``."""
    data = trace.to_dict() if hasattr(trace, "to_dict") else trace
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_trace(path: str) -> Dict[str, Any]:
    """Read a trace JSON file written by :func:`save_trace`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_EVENT_ATTR_ORDER = ("event",)


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_attrs(attrs: Dict[str, Any], skip: tuple = ()) -> str:
    parts = [f"{k}={_fmt_value(v)}" for k, v in attrs.items() if k not in skip]
    return " ".join(parts)


def render_trace(node: Dict[str, Any], indent: int = 0,
                 show_metrics: bool = False) -> str:
    """Pretty-print a serialised trace dict as an indented tree.

    Used by the ``repro trace`` CLI subcommand and tests; accepts the
    output of :meth:`Span.to_dict` / :func:`load_trace`.
    """
    pad = "  " * indent
    head = f"{pad}{node.get('name', '?')} [{node.get('kind', 'span')}]"
    timing = (f"sim={node.get('sim_seconds', 0.0):.4f}s "
              f"wall={node.get('wall_clock_s', 0.0):.4f}s")
    attrs = _fmt_attrs(node.get("attrs", {}))
    line = f"{head}  {timing}" + (f"  {attrs}" if attrs else "")
    lines = [line]
    if show_metrics:
        for name in sorted(node.get("metrics", {})):
            lines.append(f"{pad}    {name} = "
                         f"{_fmt_value(node['metrics'][name])}")
    for event in node.get("events", []):
        detail = _fmt_attrs(event, skip=_EVENT_ATTR_ORDER)
        lines.append(f"{pad}  ! {event.get('event', '?')}"
                     + (f"  {detail}" if detail else ""))
    for childd in node.get("children", []):
        lines.append(render_trace(childd, indent + 1,
                                  show_metrics=show_metrics))
    return "\n".join(lines)
