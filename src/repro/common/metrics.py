"""Metrics registry used across the stack.

Region servers meter bytes scanned/returned and RPC counts, the engine meters
shuffle bytes, task counts and peak materialised memory, and coders meter
encode/decode work.  The benchmark harness reads one registry per query run,
so every reported number in EXPERIMENTS.md is mechanically derived from work
actually performed, never hard-coded.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, Iterator, Mapping, Optional, Tuple


class MetricsRegistry:
    """A named bag of float counters and gauges.

    Counters only accumulate (:meth:`incr`); gauges track a maximum
    (:meth:`record_peak`), which is how peak memory is metered.  An
    increment may name the plan operator it belongs to (``op``, a
    ``PhysicalPlan.op_id``): it still adds to the global counter, and the
    same amount lands in that operator's entry, read by :meth:`for_op`.
    The operators' entries of a counter therefore sum to its scoped share
    by construction; :meth:`snapshot` and :meth:`get` never see them.

    Thread-safe: a registry may be shared by concurrently running tasks
    (the HBase cluster's registry is hit from every executor thread), so
    read-modify-write on the underlying dicts happens under a lock.  Merging
    snapshots the source registry first, so two registries never need to be
    locked at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = defaultdict(float)
        self._peaks: Dict[str, float] = defaultdict(float)
        self._scoped: Dict[int, Dict[str, float]] = {}

    # -- counters ---------------------------------------------------------
    def incr(self, name: str, amount: float = 1.0, op: Optional[int] = None) -> None:
        """Add ``amount`` to counter ``name`` (and to operator ``op``'s entry)."""
        with self._lock:
            self._counters[name] += amount
            if op is not None:
                entry = self._scoped.setdefault(op, {})
                entry[name] = entry.get(name, 0.0) + amount

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name``."""
        with self._lock:
            return self._counters.get(name, default)

    def for_op(self, op: int) -> Dict[str, float]:
        """Counter name -> amount, of the increments scoped to operator ``op``.

        Empty when nothing named ``op``; a name is present once any
        increment of it named ``op``, even one of zero.
        """
        with self._lock:
            return dict(self._scoped.get(op, ()))

    # -- peak gauges ------------------------------------------------------
    def record_peak(self, name: str, value: float) -> None:
        """Record ``value`` for gauge ``name`` keeping only the maximum seen."""
        with self._lock:
            if value > self._peaks[name]:
                self._peaks[name] = value

    def peak(self, name: str, default: float = 0.0) -> float:
        """Maximum value recorded for gauge ``name``."""
        with self._lock:
            return self._peaks.get(name, default)

    # -- plumbing ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s counters, operator entries and peaks into this
        registry."""
        with other._lock:
            counters = dict(other._counters)
            peaks = dict(other._peaks)
            scoped = [(op, dict(entry)) for op, entry in other._scoped.items()]
        with self._lock:
            for name, value in counters.items():
                self._counters[name] += value
            for name, value in peaks.items():
                if value > self._peaks[name]:
                    self._peaks[name] = value
            for op, entry in scoped:
                mine = self._scoped.setdefault(op, {})
                for name, value in entry.items():
                    mine[name] = mine.get(name, 0.0) + value

    def reset(self) -> None:
        """Zero every counter, operator entry and gauge."""
        with self._lock:
            self._counters.clear()
            self._peaks.clear()
            self._scoped.clear()

    def snapshot(self) -> Mapping[str, float]:
        """An immutable view of all counters (peaks are prefixed ``peak.``)."""
        with self._lock:
            out = dict(self._counters)
            out.update({f"peak.{k}": v for k, v in self._peaks.items()})
        return out

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self.snapshot().items())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.snapshot().items()))
        return f"MetricsRegistry({body})"


class CostLedger:
    """Accumulates simulated seconds + counters for one unit of work.

    Every HBase client/server operation and every engine operator charges the
    ledger it is handed; the scheduler turns a task's ledger into that task's
    duration.  Ledgers also carry a :class:`MetricsRegistry` so per-query
    metrics (bytes scanned, RPCs, shuffle volume) fall out of the same pass.

    A ledger is mostly owned by one task, but shared-state charges cross
    threads -- a region server billing each writer for flushing the bytes it
    contributed, say -- so the running total is updated under a lock.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self.seconds: float = 0.0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: trace span of the task attempt this ledger belongs to, set by the
        #: scheduler when tracing is enabled.  Lets code that only sees a
        #: ledger (the HBase client's retry decorator) record trace events
        #: without threading a span through every call signature.
        self.trace_span = None
        #: simulated seconds the work unit already spent queued at the
        #: serving front door before it started running.  Client operation
        #: deadlines (``hbase.client.operation.timeout``) count this wait
        #: against their budget -- a query that sat in the admission queue
        #: has less time left for attempts and backoff (docs/serving.md).
        self.queued_s: float = 0.0

    def charge(self, seconds: float, counter: str | None = None, amount: float = 1.0,
               op: Optional[int] = None) -> None:
        """Add ``seconds`` of simulated work, optionally bumping a counter
        (scoped to operator ``op``, see :meth:`MetricsRegistry.incr`)."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        with self._lock:
            self.seconds += seconds
        if counter is not None:
            self.metrics.incr(counter, amount, op)

    def charge_each(self, seconds: float, times: int,
                    counter: Optional[str] = None) -> None:
        """``times`` calls of ``charge(seconds, counter)`` in one: the
        seconds are added one at a time, in order, so the total is bit for
        bit theirs, and ``counter``, if any, is bumped by ``times``.
        Nothing at all happens for ``times == 0``."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if not times:
            return
        with self._lock:
            total = self.seconds
            for __ in range(times):
                total += seconds
            self.seconds = total
        if counter is not None:
            self.metrics.incr(counter, times)

    def count(self, counter: str, amount: float = 1.0, op: Optional[int] = None) -> None:
        """Bump a counter without charging time (scoped to operator ``op``)."""
        self.metrics.incr(counter, amount, op)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's time and counters into this one."""
        with self._lock:
            self.seconds += other.seconds
        self.metrics.merge(other.metrics)

    def __repr__(self) -> str:
        return f"CostLedger(seconds={self.seconds:.6f})"
