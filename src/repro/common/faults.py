"""Deterministic, seeded fault injection for the whole stack.

A :class:`FaultInjector` holds a set of :class:`FaultRule`\\ s keyed by
named *fault points* threaded through the substrate (HBase client RPCs,
mid-scan page fetches, pushed-down filter evaluation, shuffle fetches,
serving admission).  Whether a given invocation of a fault point fires is a
pure function of ``(seed, point, key, invocation index)`` -- no wall clock,
no ``random`` module -- so a chaos schedule replays identically for a given
seed even with queries driven from several caller threads: each
``(point, key)`` pair keeps its own invocation counter, and per-key
invocation order is determined by the task that owns the key, not by
thread interleaving.

No code path depends on whether an injector is installed: every fault
point is consulted either way, and with no injector the consultation is a
single ``is None`` check.  Turning fault injection off yields zero behavior
or ledger difference.

Fault points currently wired in:

======================  ======================================================
``hbase.rpc``           raised before a client data RPC (default: transient)
``hbase.stale_meta``    forces a NotServingRegion-style relocation
``hbase.scan_stream``   between scan result pages (crash a server mid-scan)
``hbase.filter``        pushed-down filter blows up server-side
``engine.shuffle_fetch`` reduce-side block fetch fails (task retry)
``serving.admission``   front-door overload (queue-full / degraded server)
======================  ======================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    FilterEvalError,
    OverloadedError,
    RegionOfflineError,
    RegionServerStoppedError,
    TransientRpcError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.retry import stable_fraction

#: fault-point names (the registry below is open: sites may add their own)
FAULT_RPC = "hbase.rpc"
FAULT_STALE_META = "hbase.stale_meta"
FAULT_SCAN_STREAM = "hbase.scan_stream"
FAULT_FILTER = "hbase.filter"
FAULT_SHUFFLE_FETCH = "engine.shuffle_fetch"
FAULT_ADMISSION = "serving.admission"

#: an action gets the site's context dict; it raises the injected failure
#: (or, like a crash, acts on the cluster first and then raises)
FaultAction = Callable[[dict], None]


def raise_transient(ctx: dict) -> None:
    """Default action: a retryable RPC failure."""
    raise TransientRpcError(
        f"injected transient fault at {ctx.get('point')} ({ctx.get('key')})"
    )


def raise_stale_meta(ctx: dict) -> None:
    """Pretend the cached region location went stale (NotServingRegion)."""
    raise RegionOfflineError(
        f"injected stale meta at {ctx.get('point')} ({ctx.get('key')})"
    )


def raise_filter_error(ctx: dict) -> None:
    """Pushed-down filter evaluation blows up on the server."""
    raise FilterEvalError(
        f"injected filter failure at {ctx.get('point')} ({ctx.get('key')})"
    )


def raise_overloaded(ctx: dict) -> None:
    """The serving front door is overloaded (queue-full / degraded server).

    The default action for :data:`FAULT_ADMISSION`: the query under
    admission is shed with a structured retry-after error exactly as if the
    bounded queue had filled, which is how the chaos suite injects overload
    scenarios without having to saturate the simulated cluster for real.
    ``retry_after_s`` may be supplied through the site context.
    """
    raise OverloadedError(
        f"injected admission overload at {ctx.get('point')} ({ctx.get('key')})",
        reason="injected",
        retry_after_s=float(ctx.get("retry_after_s", 1.0)),
        tenant=str(ctx.get("key")) or None,
    )


def crash_region_server(ctx: dict) -> None:
    """Crash the region server serving the faulted request, mid-scan.

    The site passes ``cluster`` and ``server_id`` in its context.  The crash
    runs the master's failure handling synchronously (region reassignment +
    WAL replay on the new owners), then raises
    :class:`RegionServerStoppedError` so the in-flight scan aborts exactly
    the way a broken socket would -- after which the client's resume logic
    re-locates and continues from the last row it yielded.
    """
    cluster = ctx.get("cluster")
    server_id = ctx.get("server_id")
    if cluster is not None and server_id is not None:
        server = cluster.region_servers.get(server_id)
        if server is not None and server.alive:
            cluster.kill_region_server(server_id)
    raise RegionServerStoppedError(
        f"injected crash of region server {server_id} mid-scan"
    )


#: per-point default actions for rules registered without an explicit one;
#: every point not listed here injects a retryable RPC failure
_DEFAULT_ACTIONS: Dict[str, FaultAction] = {
    FAULT_ADMISSION: raise_overloaded,
}


@dataclass
class FaultRule:
    """One injection rule bound to a fault point.

    ``rate`` is the per-invocation firing probability, decided by a stable
    hash (deterministic per key + invocation index).  ``times`` caps total
    fires; ``after`` skips the first N invocations of each key; ``key`` and
    ``key_substr`` narrow which site keys the rule applies to.
    """

    point: str
    rate: float = 1.0
    times: Optional[int] = None
    after: int = 0
    key: Optional[str] = None
    key_substr: Optional[str] = None
    action: Optional[FaultAction] = None
    fired: int = field(default=0, compare=False)

    def matches(self, key: str) -> bool:
        """Whether this rule applies to an invocation with ``key``."""
        if self.key is not None and key != self.key:
            return False
        if self.key_substr is not None and self.key_substr not in key:
            return False
        return True


class FaultInjector:
    """A seeded registry of fault rules plus injection bookkeeping.

    Install one on an :class:`~repro.hbase.cluster.HBaseCluster` (substrate
    faults) and/or a :class:`~repro.sql.session.SparkSession` (engine
    faults); sites call :meth:`check` and either nothing happens or an
    injected error is raised.  Thread-safe:
    invocation counters and fire caps mutate under one lock.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._rules: Dict[str, List[FaultRule]] = {}
        self._counts: Dict[Tuple[str, str], int] = {}

    # -- configuration -----------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Register a rule; returns it for later inspection (``rule.fired``)."""
        with self._lock:
            self._rules.setdefault(rule.point, []).append(rule)
        return rule

    def inject(self, point: str, rate: float = 1.0,
               times: Optional[int] = None, after: int = 0,
               key: Optional[str] = None, key_substr: Optional[str] = None,
               action: Optional[FaultAction] = None) -> FaultRule:
        """Convenience wrapper building and registering a :class:`FaultRule`."""
        return self.add_rule(FaultRule(point=point, rate=rate, times=times,
                                       after=after, key=key,
                                       key_substr=key_substr, action=action))

    # -- the hot path ------------------------------------------------------
    def check(self, point: str, key: str = "", ledger=None, **ctx) -> None:
        """Decide whether the fault point fires for this invocation.

        When a rule fires, its action runs and raises.  The decision is made
        under the injector lock; the action runs outside it, because crash
        actions take cluster-level locks of their own.
        """
        rules = self._rules.get(point)
        if not rules:
            return
        with self._lock:
            index = self._counts.get((point, key), 0)
            self._counts[(point, key)] = index + 1
            chosen: Optional[FaultRule] = None
            for rule in rules:
                if not rule.matches(key):
                    continue
                if index < rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if stable_fraction(self.seed, point, key, index) < rule.rate:
                    rule.fired += 1
                    chosen = rule
                    break
        if chosen is None:
            return
        self.metrics.incr("faults.injected")
        self.metrics.incr(f"faults.injected.{point}")
        if ledger is not None:
            ledger.count("faults.injected")
        if chosen.action is not None:
            action = chosen.action
        else:
            action = _DEFAULT_ACTIONS.get(point, raise_transient)
        ctx.update({"point": point, "key": key})
        action(ctx)

    # -- inspection --------------------------------------------------------
    def injected(self, point: Optional[str] = None) -> float:
        """Total faults injected, overall or for one fault point."""
        name = "faults.injected" if point is None else f"faults.injected.{point}"
        return self.metrics.get(name)

    def __repr__(self) -> str:
        points = sorted(self._rules)
        return f"FaultInjector(seed={self.seed}, points={points})"
