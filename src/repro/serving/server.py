"""The multi-tenant query front door: a ``QueryServer`` over the session.

Today every ``SparkSession.sql()`` call owns the whole simulated cluster; a
system serving many concurrent tenants needs the four classic guardrails
between the client and the engine (docs/serving.md):

* **queue-based load leveling** -- a bounded admission queue absorbs bursts;
  wait time is charged to the simulated ledger and counted against client
  operation deadlines (``CostLedger.queued_s``).
* **throttling** -- per-tenant token buckets shed sustained overload with a
  structured ``retry_after_s`` instead of queueing it.
* **weighted fair sharing + bulkheads** -- queued queries drain in
  weighted-fair order and execute on *leased* executor-slot partitions, so
  one tenant's scan storm cannot starve another tenant's reserved slots.
* **circuit breaking** -- region-server fault/latency signals open a breaker
  that sheds queries during degradation rather than letting the queue
  collapse into timeouts (:mod:`repro.serving.breaker`).

The server is a deterministic discrete-event simulation over *simulated*
time: requests carry explicit arrival times, every admit/shed/throttle/
breaker decision is a pure function of ``(config, request sequence, seed)``,
and the chaos suite asserts the decisions byte-identical across runs.
Queries themselves still execute through the real session (each one runs
its stages through the engine's stage runner), so served results are the
same rows a direct ``session.sql().run()`` would produce.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import OverloadedError, ReproError
from repro.common.faults import FAULT_ADMISSION
from repro.common.metrics import MetricsRegistry
from repro.common.tracing import NOOP_SPAN, Span
from repro.serving.admission import FairQueue, TokenBucket
from repro.serving.breaker import BreakerConfig, CircuitBreaker

#: ticket states
PENDING = "pending"
COMPLETED = "completed"
FAILED = "failed"
SHED = "shed"

#: simulated cost assigned to a failed execution with no deadline to infer
#: it from (slot-occupancy bookkeeping only; successes use real seconds)
DEFAULT_FAILED_COST_S = 1.0


@dataclass
class TenantSpec:
    """One tenant's serving contract.

    ``weight`` drives weighted fair queuing (a weight-4 tenant drains four
    queued queries for each one of a weight-1 tenant).  ``rate``/``burst``
    configure the tenant's token bucket (``None`` rate = unthrottled).
    ``reserved_slots`` is the tenant's bulkhead: executor slots only this
    tenant's queries may lease; everything unreserved forms the shared pool.
    """

    name: str
    weight: float = 1.0
    rate: Optional[float] = None
    burst: float = 4.0
    reserved_slots: int = 0


@dataclass
class ServingConfig:
    """Front-door tuning knobs (docs/serving.md lists them)."""

    max_queue_depth: int = 16
    slots_per_query: int = 2
    deadline_s: Optional[float] = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: a completed query counts as a degradation signal when it needed at
    #: least this many hbase client retries (or any mid-scan resume)
    breaker_retry_signal: int = 2


@dataclass
class Ticket:
    """One submitted request plus everything the front door decided about it.

    ``status`` moves from ``pending`` to exactly one of ``completed``
    (rows available via :meth:`result`), ``failed`` (admitted but execution
    raised) or ``shed`` (refused with a structured
    :class:`~repro.common.errors.OverloadedError`).
    """

    seq: int
    tenant: str
    sql: str
    at_s: float
    deadline_s: Optional[float] = None
    analyze: bool = False
    status: str = PENDING
    probe: bool = False
    wait_s: float = 0.0
    start_s: float = 0.0
    finish_s: float = 0.0
    reason: Optional[str] = None
    retry_after_s: float = 0.0
    degraded: bool = False
    query_result: Optional[object] = None
    error: Optional[BaseException] = None
    report: Optional[str] = None
    trace: Optional[Span] = None
    leased_slots: Tuple[int, ...] = ()

    @property
    def latency_s(self) -> float:
        """Simulated end-to-end latency: admission-queue wait + execution."""
        return self.finish_s - self.at_s

    def result(self):
        """The executed :class:`QueryResult`, or raise the shed/failure error."""
        if self.status == COMPLETED:
            return self.query_result
        if self.error is not None:
            raise self.error
        raise ReproError(f"request #{self.seq} has not completed "
                         f"(status={self.status})")


class QueryServer:
    """Admission control, fair scheduling and load shedding for one session.

    Submit requests with :meth:`submit` (thread-safe; deterministic when
    arrival times are pinned), then :meth:`drain` runs the discrete-event
    loop to completion.  Constructing a server is the opt-in: a session
    nobody wraps in one runs exactly as it always did.
    """

    def __init__(self, session, config: Optional[ServingConfig] = None,
                 faults=None, hbase_cluster=None) -> None:
        self.session = session
        self.config = config if config is not None else ServingConfig()
        #: optional FaultInjector checked at the FAULT_ADMISSION point
        self.faults = faults
        #: optional HBaseCluster whose region-server deaths feed the breaker
        self.hbase_cluster = hbase_cluster
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(self.config.breaker)
        self.queue = FairQueue(self.config.max_queue_depth)
        self._tenants: Dict[str, TenantSpec] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(0)
        self._pending: List[Ticket] = []
        self._last_arrival_s = 0.0
        self._slot_free: List[float] = []
        self._reserved_idx: Dict[str, Tuple[int, ...]] = {}
        self._shared_idx: Tuple[int, ...] = ()
        self._partitioned = False
        self._events: List[Tuple[float, int, int, str, Ticket]] = []
        self._event_seq = itertools.count(0)
        self._seen_transitions = 0
        self._dead_servers_seen = 0

    # -- tenants -----------------------------------------------------------
    def register_tenant(self, name: str, weight: float = 1.0,
                        rate: Optional[float] = None, burst: float = 4.0,
                        reserved_slots: int = 0) -> TenantSpec:
        """Declare a tenant's weight, rate limit and bulkhead reservation.

        Must happen before the first :meth:`drain` (slot partitions are
        frozen then).  Unregistered tenants get weight 1, no rate limit and
        no reserved slots.
        """
        if self._partitioned:
            raise ReproError("tenants must be registered before drain()")
        spec = TenantSpec(name, weight=weight, rate=rate, burst=burst,
                          reserved_slots=reserved_slots)
        self._tenants[name] = spec
        if rate is not None:
            self._buckets[name] = TokenBucket(rate=rate, burst=burst)
        return spec

    def _tenant(self, name: str) -> TenantSpec:
        spec = self._tenants.get(name)
        if spec is None:
            spec = TenantSpec(name)
            self._tenants[name] = spec
        return spec

    # -- submission --------------------------------------------------------
    def submit(self, sql: str, tenant: str = "default",
               at: Optional[float] = None,
               deadline_s: Optional[float] = None,
               analyze: bool = False) -> Ticket:
        """Buffer one request for the next :meth:`drain`.

        ``at`` is the request's *simulated* arrival time; omitted, it
        reuses the latest arrival seen (same instant, later sequence), so a
        plain burst of submits stays deterministic.  ``deadline_s``
        overrides ``ServingConfig.deadline_s`` for this request.
        """
        with self._lock:
            at_s = self._last_arrival_s if at is None else float(at)
            if at_s < self._last_arrival_s:
                raise ReproError(
                    f"arrival times must be non-decreasing: got {at_s} "
                    f"after {self._last_arrival_s}")
            self._last_arrival_s = at_s
            ticket = Ticket(seq=next(self._seq), tenant=tenant, sql=sql,
                            at_s=at_s, deadline_s=deadline_s, analyze=analyze)
            self._pending.append(ticket)
        return ticket

    # -- the event loop ----------------------------------------------------
    def drain(self) -> List[Ticket]:
        """Run every buffered request to a final state; returns the tickets.

        The discrete-event loop processes arrivals and completions in
        ``(simulated time, completions-first, sequence)`` order, so the
        whole admit/shed/throttle/breaker schedule is a deterministic
        function of the submitted workload -- thread interleaving never
        participates.
        """
        with self._lock:
            tickets, self._pending = self._pending, []
        if not tickets:
            return tickets
        self._ensure_partitions()
        for ticket in tickets:
            heapq.heappush(
                self._events,
                (ticket.at_s, 1, next(self._event_seq), "arrival", ticket))
        while self._events:
            now, __, __, kind, ticket = heapq.heappop(self._events)
            if kind == "completion":
                self._on_completion(now, ticket)
            else:
                self._on_arrival(now, ticket)
            self._dispatch(now)
        return tickets

    # -- bulkhead partitions -----------------------------------------------
    def _ensure_partitions(self) -> None:
        """Freeze the executor-slot partitions on first drain."""
        if self._partitioned:
            return
        slots = self.session.cluster.slots()
        total = len(slots)
        per_query = self.config.slots_per_query
        if per_query < 1 or per_query > total:
            raise ReproError(
                f"slots_per_query={per_query} must be in "
                f"[1, {total}] for this cluster")
        reserved_total = sum(
            t.reserved_slots for t in self._tenants.values())
        if reserved_total > total:
            raise ReproError(
                f"bulkhead reservations ({reserved_total} slots) exceed the "
                f"cluster's {total} slots")
        cursor = 0
        for name in sorted(self._tenants):
            count = self._tenants[name].reserved_slots
            if count:
                self._reserved_idx[name] = tuple(range(cursor, cursor + count))
                cursor += count
        self._shared_idx = tuple(range(cursor, total))
        for name, spec in sorted(self._tenants.items()):
            eligible = len(self._reserved_idx.get(name, ())) + \
                len(self._shared_idx)
            if eligible < per_query:
                raise ReproError(
                    f"tenant {name!r} can never lease {per_query} slots "
                    f"(bulkhead {spec.reserved_slots} + shared "
                    f"{len(self._shared_idx)})")
        self._slot_free = [0.0] * total
        self._partitioned = True

    def _eligible_idx(self, tenant: str) -> Tuple[int, ...]:
        return self._reserved_idx.get(tenant, ()) + self._shared_idx

    def _free_idx(self, tenant: str, now_s: float) -> List[int]:
        return [i for i in self._eligible_idx(tenant)
                if self._slot_free[i] <= now_s]

    # -- arrivals ----------------------------------------------------------
    def _on_arrival(self, now_s: float, ticket: Ticket) -> None:
        self.metrics.incr("serving.submitted")
        if self.faults is not None:
            try:
                self.faults.check(FAULT_ADMISSION, key=ticket.tenant)
            except OverloadedError as exc:
                self._shed(ticket, now_s, exc.reason, exc.retry_after_s)
                return
        decision = self.breaker.admit(now_s)
        self._note_transitions(now_s, ticket)
        if not decision["admit"]:
            self._shed(ticket, now_s, "breaker_open",
                       float(decision["retry_after_s"]))
            return
        ticket.probe = bool(decision["probe"])
        bucket = self._buckets.get(ticket.tenant)
        if bucket is not None:
            admitted, retry_after = bucket.try_acquire(now_s)
            if not admitted:
                self._shed(ticket, now_s, "throttled", retry_after)
                return
        if self.queue.full:
            self._shed(ticket, now_s, "queue_full",
                       self._queue_full_hint(ticket.tenant, now_s))
            return
        spec = self._tenant(ticket.tenant)
        self.queue.push(ticket.tenant, spec.weight, ticket.seq, ticket)
        self.metrics.record_peak("serving.queue_depth", float(len(self.queue)))

    def _queue_full_hint(self, tenant: str, now_s: float) -> float:
        busy = [self._slot_free[i] for i in self._eligible_idx(tenant)
                if self._slot_free[i] > now_s]
        if not busy:
            return 1.0
        return max(0.0, min(busy) - now_s)

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, now_s: float) -> None:
        while True:
            ticket = self.queue.pop_dispatchable(
                lambda t: len(self._free_idx(t.tenant, now_s))
                >= self.config.slots_per_query)
            if ticket is None:
                return
            self._start(now_s, ticket)

    def _start(self, now_s: float, ticket: Ticket) -> None:
        wait = now_s - ticket.at_s
        deadline = ticket.deadline_s if ticket.deadline_s is not None \
            else self.config.deadline_s
        if deadline is not None and wait >= deadline:
            # the whole operation budget drained in the queue: deterministic
            # load shedding instead of dispatching doomed work
            self._shed(ticket, now_s, "deadline", 0.0)
            return
        per_query = self.config.slots_per_query
        reserved = [i for i in self._reserved_idx.get(ticket.tenant, ())
                    if self._slot_free[i] <= now_s]
        shared = [i for i in self._shared_idx if self._slot_free[i] <= now_s]
        leased = tuple((reserved + shared)[:per_query])
        ticket.leased_slots = leased
        ticket.wait_s = wait
        ticket.start_s = now_s
        self.metrics.incr("serving.admitted")
        if wait > 0:
            self.metrics.incr("serving.queued")
            self.metrics.incr("serving.queue_wait_s", wait)
        if ticket.probe:
            self.metrics.incr("serving.probes")
        duration = self._execute(ticket, wait, leased, deadline)
        for idx in leased:
            self._slot_free[idx] = now_s + duration
        self.metrics.incr("serving.slot_busy_s", duration * len(leased))
        ticket.finish_s = now_s + duration
        heapq.heappush(
            self._events,
            (ticket.finish_s, 0, next(self._event_seq), "completion", ticket))

    def _execute(self, ticket: Ticket, wait: float,
                 leased: Tuple[int, ...], deadline: Optional[float]) -> float:
        """Run the query on its leased slots; returns its simulated seconds."""
        cluster_slots = self.session.cluster.slots()
        lease = [cluster_slots[i] for i in leased]
        trace = self.session.query_trace()
        if trace.enabled:
            trace.event("admission", tenant=ticket.tenant, wait_s=wait,
                        probe=ticket.probe, slots=len(lease),
                        breaker_state=self.breaker.state)
        ticket.trace = trace if trace.enabled else None
        df = self.session.sql(ticket.sql)
        try:
            if ticket.analyze:
                # execute_plan's two steps, keeping the plan for the report
                planned = self.session.plan_query(df.query, trace)
                result = self.session.execute_planned(
                    planned, trace, slots=lease, queued_s=wait)
            else:
                result = self.session.execute_plan(
                    df.query, trace=trace, slots=lease, queued_s=wait)
            self._stamp(ticket, result, wait, lease)
            if ticket.analyze:
                from repro.sql.explain import explain_analyze_report

                ticket.report = explain_analyze_report(planned.physical,
                                                       result)
        except ReproError as exc:
            ticket.error = exc
            ticket.status = FAILED
            if deadline is not None:
                return max(0.0, deadline - wait)
            return DEFAULT_FAILED_COST_S
        ticket.query_result = result
        ticket.status = COMPLETED
        return result.seconds

    def _stamp(self, ticket: Ticket, result, wait: float, lease) -> None:
        """Attach the admission record to the executed result."""
        result.serving = {
            "tenant": ticket.tenant,
            "wait_s": wait,
            "arrival_s": ticket.at_s,
            "start_s": ticket.start_s,
            "slots": len(lease),
            "probe": ticket.probe,
            "breaker_state": self.breaker.state,
        }
        if wait > 0:
            result.metrics.incr("serving.queue_wait_s", wait)

    # -- completions -------------------------------------------------------
    def _on_completion(self, now_s: float, ticket: Ticket) -> None:
        degraded = ticket.error is not None
        result = ticket.query_result
        if not degraded and result is not None:
            m = result.metrics
            degraded = (
                m.get("hbase.retries") >= self.config.breaker_retry_signal
                or m.get("shc.scan_resumes") >= 1
                or self.breaker.is_degraded_latency(result.seconds)
            )
        if self.hbase_cluster is not None:
            dead = 0
            for s in self.hbase_cluster.region_servers.values():
                if not s.alive:
                    dead += 1
                    # feed replica-aware read routing: dead servers stay out
                    # of the candidate set until reported healthy again
                    self.hbase_cluster.report_server_health(
                        s.server_id, healthy=False)
            if dead > self._dead_servers_seen:
                self._dead_servers_seen = dead
                degraded = True
        ticket.degraded = degraded
        self.breaker.record(now_s, degraded, probe=ticket.probe)
        self._note_transitions(now_s, ticket)
        if ticket.status == COMPLETED:
            self.metrics.incr("serving.completed")
        else:
            self.metrics.incr("serving.failed")

    def _note_transitions(self, now_s: float, ticket: Ticket) -> None:
        """Fold any new breaker transitions into metrics and the trace."""
        new = self.breaker.transitions[self._seen_transitions:]
        self._seen_transitions = len(self.breaker.transitions)
        for tr in new:
            if tr["to"] == "open":
                self.metrics.incr("serving.breaker.opened")
            elif tr["to"] == "half-open":
                self.metrics.incr("serving.breaker.half_opened")
            else:
                self.metrics.incr("serving.breaker.closed")
            span = ticket.trace if ticket.trace is not None else NOOP_SPAN
            if span.enabled:
                span.event("breaker", at_s=tr["at_s"],
                           from_state=tr["from"], to_state=tr["to"],
                           reason=tr["reason"])

    # -- shedding ----------------------------------------------------------
    def _shed(self, ticket: Ticket, now_s: float, reason: str,
              retry_after_s: float) -> None:
        ticket.status = SHED
        ticket.reason = reason
        ticket.retry_after_s = retry_after_s
        ticket.finish_s = now_s
        ticket.error = OverloadedError(
            f"request #{ticket.seq} ({ticket.tenant}) shed: {reason}, "
            f"retry after {retry_after_s:.3f}s",
            reason=reason, retry_after_s=retry_after_s, tenant=ticket.tenant)
        self.metrics.incr("serving.shed")
        if reason == "queue_full":
            self.metrics.incr("serving.shed.queue_full")
        elif reason == "throttled":
            self.metrics.incr("serving.shed.throttled")
        elif reason == "breaker_open":
            self.metrics.incr("serving.shed.breaker_open")
        elif reason == "deadline":
            self.metrics.incr("serving.shed.deadline")
        else:
            self.metrics.incr("serving.shed.injected")
        if bool(self.session.conf.get("tracing.enabled", False)):
            span = Span("query", "query", tenant=ticket.tenant)
            span.event("shed", tenant=ticket.tenant, reason=reason,
                       retry_after_s=retry_after_s,
                       breaker_state=self.breaker.state)
            span.finish(sim_seconds=0.0)
            ticket.trace = span

    # -- inspection --------------------------------------------------------
    def shed_set(self, tickets: List[Ticket]) -> List[Tuple[int, str]]:
        """The ``(seq, reason)`` pairs of every shed request, in order --
        what the chaos suite pins byte-identical across runs."""
        return [(t.seq, t.reason or "?") for t in tickets if t.status == SHED]

    def __repr__(self) -> str:
        return (f"QueryServer(tenants={sorted(self._tenants)}, "
                f"breaker={self.breaker.state})")
