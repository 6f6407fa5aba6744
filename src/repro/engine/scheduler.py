"""The DAG scheduler: stages, locality-aware placement, simulated makespan.

A job is split at shuffle boundaries.  Map stages bucket their output through
the shuffle block store (charging write bandwidth); reduce tasks fetch and
charge read bandwidth.  Each task runs with a :class:`TaskContext` carrying
the executor's host (so an HBase scan knows whether it is co-located with the
region server) and a cost ledger; the stage's simulated duration is the
makespan of task durations over the executor slots the tasks were placed on.

Execution itself is delegated to the stage runner (:mod:`repro.engine.runner`):
event-driven, locality-aware placement (delay scheduling) over the slots'
simulated timelines, with every task body run inline on the calling thread.
``StageInfo`` reports both the simulated makespan and the measured
wall-clock per stage.

Fault tolerance follows Spark: a failing task is retried on another slot
while :data:`TASK_RETRY_POLICY` allows, then the job aborts -- recomputation
is free because compute() re-runs the lineage.  Locality is counted against
the host that *actually* ran the task, so a retry that rotated hosts is not
misreported as node-local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.cost import CostModel
from repro.common.errors import CoderError, FatalTaskError
from repro.common.faults import FAULT_SHUFFLE_FETCH
from repro.common.metrics import CostLedger, MetricsRegistry
from repro.common.retry import RetryPolicy
from repro.common.tracing import NOOP_SPAN
from repro.engine.cluster import ComputeCluster
from repro.engine.rdd import Partition, RDD, ShuffledRDD
from repro.engine.runner import (
    DEFAULT_LOCALITY_WAIT_SKIPS,
    StageRunner,
    TaskOutcome,
    TaskSpec,
)
from repro.engine.shuffle import ShuffleBlockStore, estimate_size, stable_hash

#: how a failed task is retried: four attempts in all, capped exponential
#: backoff charged as ``engine.retry_backoff_s``, jitter keyed by the
#: task's index -- the HBase client's retry policy with the engine's seed
TASK_RETRY_POLICY = RetryPolicy(max_attempts=4, base_backoff_s=0.05,
                                max_backoff_s=2.0, jitter_seed="engine.retry")


class TaskContext:
    """Per-task execution context handed to ``RDD.compute``.

    Carries the executor's ``host`` (so an HBase scan knows whether it is
    co-located with the region server), the attempt's :class:`CostLedger`,
    and the attempt's trace span (:data:`NOOP_SPAN` when tracing is off) so
    scan code can hang child spans and events off the right parent.
    """

    def __init__(self, host: str, ledger: CostLedger,
                 scheduler: "TaskScheduler", span=NOOP_SPAN) -> None:
        self.host = host
        self.ledger = ledger
        self.span = span
        self._scheduler = scheduler

    def fetch_shuffle(self, shuffle_id: int, reduce_partition: int,
                      map_ids: Optional[frozenset] = None) -> Iterator[object]:
        """Stream one reduce partition's rows, paying shuffle-read bandwidth.

        Rows are yielded block by block (one block per upstream map task) and
        each block's bytes, as its map task sized them, are charged as it is
        fetched, so a consumer that stops early -- a LIMIT, say -- never pays
        for blocks it did not pull.
        ``map_ids`` restricts the fetch to blocks from those map tasks; the
        adaptive executor uses this to split a skewed reduce partition into
        several tasks that each read a disjoint subset of map outputs.
        """
        cost = self._scheduler.cost
        faults = self._scheduler.faults
        blocks = self._scheduler.block_store.blocks_for(shuffle_id, reduce_partition)
        fetched_bytes = 0
        fetched_blocks = 0
        try:
            for map_id, rows, nbytes in blocks:
                if map_ids is not None and map_id not in map_ids:
                    continue
                if faults is not None:
                    faults.check(FAULT_SHUFFLE_FETCH,
                                 key=f"{shuffle_id}:{reduce_partition}",
                                 ledger=self.ledger)
                self.ledger.charge(
                    nbytes / cost.shuffle_bytes_per_sec, "engine.shuffle_read_bytes", nbytes
                )
                fetched_bytes += nbytes
                fetched_blocks += 1
                yield from rows
        finally:
            if self.span.enabled:
                self.span.event("shuffle-read", shuffle_id=shuffle_id,
                                partition=reduce_partition,
                                blocks=fetched_blocks, bytes=fetched_bytes)


@dataclass
class StageInfo:
    """What one stage did, for the harness and for debugging plans."""

    stage_id: int
    kind: str                 # "shuffle-map" or "result"
    num_tasks: int
    duration_s: float         # simulated makespan (paper-fidelity metric)
    local_tasks: int
    output_bytes: int
    wall_clock_s: float = 0.0  # measured driver-side wall clock
    #: op_id of the scan operator this stage's lineage reads (None when the
    #: stage reads no scan, or more than one -- e.g. a union of scans)
    scope: Optional[int] = None
    #: the counters this stage booked (its span snapshots them); a job's
    #: registry is the sum of its stages'
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry,
                                     compare=False, repr=False)


@dataclass
class JobResult:
    """Everything a job run produced."""

    partitions: List[List[object]]
    seconds: float
    metrics: MetricsRegistry
    stages: List[StageInfo] = field(default_factory=list)

    def rows(self) -> List[object]:
        """All result rows, flattened across partitions in partition order."""
        out: List[object] = []
        for part in self.partitions:
            out.extend(part)
        return out

    @property
    def wall_clock_s(self) -> float:
        """Measured wall-clock across all stages (simulated time is ``seconds``)."""
        return sum(s.wall_clock_s for s in self.stages)


class TaskScheduler:
    """Runs RDD jobs over a compute cluster with simulated timing.

    One scheduler serves one query on one thread: its stages run inline
    through the :class:`~repro.engine.runner.StageRunner`, so the
    scheduler's own bookkeeping (stage ids, shuffle maps) needs no locking.
    Concurrent queries each get their own scheduler; what they share (block
    cache, connection cache, fault injector) synchronises itself.
    """

    def __init__(
        self,
        cluster: ComputeCluster,
        cost_model: CostModel,
        locality_wait_skips: int = DEFAULT_LOCALITY_WAIT_SKIPS,
        faults=None,
        trace=NOOP_SPAN,
        slots=None,
        queued_s: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model
        #: parent span for stage spans; NOOP_SPAN = tracing disabled
        self.trace = trace if trace is not None else NOOP_SPAN
        self._stage_span = NOOP_SPAN
        #: optional FaultInjector for the engine's shuffle-fetch fault
        #: point; None keeps it a no-op
        self.faults = faults
        self.block_store = ShuffleBlockStore()
        self._materialized_shuffles: set[int] = set()
        self._shuffle_ids: Dict[ShuffledRDD, int] = {}
        self._stage_ids = 0
        #: simulated seconds the query spent in the serving admission queue
        #: before this scheduler ran; stamped onto every task ledger so
        #: client operation deadlines charge queue wait against their budget
        self.queued_s = queued_s
        #: the executor slots this job may run on: the whole cluster by
        #: default, or the subset the serving front door leased (bulkhead
        #: slot partitions -- one tenant's scan storm cannot occupy another
        #: tenant's reserved slots)
        self._slots = list(slots) if slots is not None else cluster.slots()
        self._runner = StageRunner(
            self._slots,
            cost_model.task_launch_s,
            locality_wait_skips=locality_wait_skips,
        )

    # -- public API -------------------------------------------------------
    def run_job(self, rdd: RDD, map_stages_only: bool = False) -> JobResult:
        """Execute the full lineage of ``rdd`` and gather its partitions.

        With ``map_stages_only`` -- the adaptive executor's stage barrier,
        ``rdd`` a :class:`ShuffledRDD` -- the job ends once that exchange's
        map stage has written its blocks, and gathers no partitions.
        """
        stages: List[StageInfo] = []
        partitions: List[List[object]] = []
        job_shuffles: List[int] = []
        try:
            for shuffled in self._pending_shuffles(rdd):
                job_shuffles.append(shuffled.shuffle_id)
                stages.append(self._run_shuffle_map_stage(shuffled))
            if not map_stages_only:
                partitions, info = self._run_result_stage(rdd)
                stages.append(info)
        except Exception:
            self._abort_job_shuffles(job_shuffles)
            raise
        metrics = MetricsRegistry()
        for info in stages:
            metrics.merge(info.metrics)
        peak = max((s.output_bytes for s in stages), default=0)
        metrics.record_peak("engine.peak_stage_bytes", peak)
        return JobResult(partitions, sum(s.duration_s for s in stages),
                         metrics, stages)

    def collect(self, rdd: RDD) -> List[object]:
        """Convenience: run the job and flatten the result partitions."""
        return self.run_job(rdd).rows()

    def _abort_job_shuffles(self, shuffle_ids: Sequence[int]) -> None:
        """Drop shuffle output the aborted job produced (or started producing).

        Without this, completed map tasks of a stage that later aborted leave
        their blocks in the ShuffleBlockStore forever and the shuffle stays
        marked materialised -- a rerun of the same lineage would then read a
        possibly partial shuffle instead of recomputing it.
        """
        for shuffle_id in shuffle_ids:
            self.block_store.clear(shuffle_id)
            self._materialized_shuffles.discard(shuffle_id)

    # -- stage planning -----------------------------------------------------
    def _pending_shuffles(self, rdd: RDD) -> List[ShuffledRDD]:
        """Every unmaterialised ShuffledRDD in the lineage, parents first.  Each
        gets its ``shuffle_id`` the first time this scheduler meets it, so the
        ids count per query and the ``engine.shuffle_fetch`` key replays."""
        ordered: List[ShuffledRDD] = []
        seen: set[RDD] = set()

        def visit(node: RDD) -> None:
            if node in seen:
                return
            seen.add(node)
            for parent in node.parents:
                visit(parent)
            if isinstance(node, ShuffledRDD):
                node.shuffle_id = self._shuffle_ids.setdefault(node, len(self._shuffle_ids) + 1)
                if node.shuffle_id not in self._materialized_shuffles:
                    ordered.append(node)

        visit(rdd)
        return ordered

    # -- stage execution ----------------------------------------------------
    def _run_shuffle_map_stage(self, shuffled: ShuffledRDD) -> StageInfo:
        parent = shuffled.parents[0]

        def make_runner(partition: Partition) -> Callable[[TaskContext], int]:
            def run(ctx: TaskContext) -> int:
                buckets: List[List[object]] = [[] for __ in range(shuffled.num_partitions)]
                bucket_bytes = [0] * shuffled.num_partitions
                for row in parent.compute(partition, ctx):
                    target = stable_hash(shuffled.key_fn(row)) % shuffled.num_partitions
                    buckets[target].append(row)
                    bucket_bytes[target] += estimate_size(row)
                for reduce_idx, bucket in enumerate(buckets):
                    if bucket:
                        self.block_store.put_block(
                            shuffled.shuffle_id, partition.index, reduce_idx,
                            bucket, bucket_bytes[reduce_idx],
                        )
                nbytes = sum(bucket_bytes)
                ctx.ledger.charge(
                    nbytes / self.cost.shuffle_bytes_per_sec,
                    "engine.shuffle_write_bytes", nbytes,
                )
                return nbytes

            return run

        tasks = [
            (make_runner(p), tuple(parent.preferred_locations(p)))
            for p in parent.partitions()
        ]
        outputs, info = self._execute(tasks, kind="shuffle-map",
                                      scope=self._stage_scope(parent))
        info.output_bytes = sum(outputs)
        info.metrics.incr("engine.shuffles", 1)
        self._materialized_shuffles.add(shuffled.shuffle_id)
        return info

    def _run_result_stage(
        self, rdd: RDD
    ) -> Tuple[List[List[object]], StageInfo]:
        def make_runner(partition: Partition) -> Callable[[TaskContext], List[object]]:
            def run(ctx: TaskContext) -> List[object]:
                return list(rdd.compute(partition, ctx))

            return run

        tasks = [
            (make_runner(p), tuple(rdd.preferred_locations(p)))
            for p in rdd.partitions()
        ]
        partitions, info = self._execute(tasks, kind="result",
                                         scope=self._stage_scope(rdd))
        info.output_bytes = sum(
            estimate_size(row) for part in partitions for row in part
        )
        return partitions, info

    def _stage_scope(self, root: RDD) -> Optional[int]:
        """The scan-operator ``op_id`` this stage reads, if it is unique.

        Walks the stage-local lineage (stopping at shuffle boundaries, which
        belong to earlier stages) looking for RDDs stamped with a ``scope``
        by :class:`~repro.sql.physical.DataSourceScanExec`.  Exactly one
        scope means every task in the stage works for that scan operator --
        which is how EXPLAIN ANALYZE attributes per-stage locality back to
        plan operators.  Zero or several scopes (pure shuffle stages, unions
        of scans) yield ``None``.
        """
        scopes: set[int] = set()
        seen: set[RDD] = set()
        stack: List[RDD] = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            scope = getattr(node, "scope", None)
            if scope is not None:
                scopes.add(scope)
            if not isinstance(node, ShuffledRDD):
                stack.extend(node.parents)
        return scopes.pop() if len(scopes) == 1 else None

    def _execute(
        self,
        tasks: Sequence[Tuple[Callable[[TaskContext], object], Tuple[str, ...]]],
        kind: str,
        scope: Optional[int] = None,
    ) -> Tuple[List[object], StageInfo]:
        """Hand a stage to the runner; fold outcomes into ordered results."""
        self._stage_ids += 1
        # root-level spans sort by (phase, seq): planning phases come first,
        # scan-plan spans next, stages last -- see docs/observability.md
        stage_span = self.trace.child(
            f"stage-{self._stage_ids}", "stage", order=(2, self._stage_ids),
            stage_kind=kind, num_tasks=len(tasks),
        )
        if scope is not None and stage_span.enabled:
            stage_span.set(scope=scope)
        self._stage_span = stage_span
        specs = [
            TaskSpec(index=i, body=body, preferred=preferred)
            for i, (body, preferred) in enumerate(tasks)
        ]
        try:
            execution = self._runner.run(specs, self._run_with_retries)
        finally:
            self._stage_span = NOOP_SPAN

        metrics = MetricsRegistry()
        results: List[object] = []
        local_tasks = 0
        for outcome in execution.outcomes:          # already in task order
            results.append(outcome.value)
            metrics.merge(outcome.ledger.metrics)
            metrics.incr("engine.tasks", 1)
            if outcome.failures:
                metrics.incr("engine.task_failures", outcome.failures)
            if outcome.rehosted:
                metrics.incr("engine.task_retries_rehosted", 1)
            preferred = specs[outcome.index].preferred
            if preferred and outcome.ran_on_host in preferred:
                local_tasks += 1
        metrics.incr("engine.local_tasks", local_tasks)
        info = StageInfo(
            stage_id=self._stage_ids,
            kind=kind,
            num_tasks=len(tasks),
            duration_s=execution.sim_makespan_s,
            local_tasks=local_tasks,
            output_bytes=0,
            wall_clock_s=execution.wall_clock_s,
            scope=scope,
            metrics=metrics,
        )
        if stage_span.enabled:
            stage_span.set(local_tasks=local_tasks)
            stage_span.finish(sim_seconds=execution.sim_makespan_s,
                              metrics=metrics.snapshot())
        return results, info

    def _run_with_retries(self, spec: TaskSpec, host: str,
                          slot_idx: int) -> TaskOutcome:
        """Run one task, moving to the next host after each failed attempt.

        The returned outcome records the host that *actually* ran the task so
        locality accounting stays truthful across retries.  Failed attempts'
        ledgers are *not* discarded: their simulated work plus the inter-retry
        backoff is folded into the final outcome, so a task that needed three
        tries costs what three tries cost.  A :class:`CoderError` is the
        data's fault and fails the task at once: no host encodes it.
        """
        placed_host = host
        attempts = 0
        carry: Optional[CostLedger] = None
        last_error: Optional[Exception] = None
        task_span = self._stage_span.child(
            f"task-{spec.index}", "task", order=spec.index,
            index=spec.index, placed_host=placed_host,
        )
        while True:
            ledger = CostLedger()
            ledger.queued_s = self.queued_s
            attempt_span = task_span.child(f"attempt-{attempts + 1}", "attempt",
                                           order=attempts, host=host)
            if attempt_span.enabled:
                # lets ledger-only code paths (the HBase client's retry
                # decorator) record events against the running attempt
                ledger.trace_span = attempt_span
            ctx = TaskContext(host, ledger, self, span=attempt_span)
            try:
                value = spec.body(ctx)
            except Exception as exc:  # noqa: BLE001 - task code is user code
                attempts += 1
                last_error = exc
                if attempt_span.enabled:
                    attempt_span.set(failed=True, error=repr(exc))
                    attempt_span.finish(sim_seconds=ledger.seconds,
                                        metrics=ledger.metrics.snapshot())
                if carry is None:
                    carry = CostLedger()
                carry.merge(ledger)
                if isinstance(exc, CoderError) or \
                        not TASK_RETRY_POLICY.allows_retry(attempts):
                    break
                backoff = TASK_RETRY_POLICY.backoff_s(attempts, key=spec.index)
                carry.charge(backoff, "engine.retry_backoff_s", backoff)
                # Spark would retry on another executor; rotate hosts
                host = self._retry_host(slot_idx, attempts)
                continue
            if attempt_span.enabled:
                attempt_span.finish(sim_seconds=ledger.seconds,
                                    metrics=ledger.metrics.snapshot())
            if carry is not None:
                ledger.merge(carry)
            if task_span.enabled:
                task_span.set(ran_on_host=host, failures=attempts)
                task_span.finish(sim_seconds=ledger.seconds,
                                 metrics=ledger.metrics.snapshot())
            return TaskOutcome(
                index=spec.index,
                value=value,
                ledger=ledger,
                placed_host=placed_host,
                ran_on_host=host,
                failures=attempts,
            )
        if task_span.enabled:
            task_span.set(failures=attempts, aborted=True)
            task_span.finish()
        raise FatalTaskError(
            f"task failed after {attempts} attempts: {last_error}"
        ) from last_error

    # -- retry plumbing ----------------------------------------------------
    def _retry_host(self, slot_idx: int, attempts: int) -> str:
        """The next host in the retry rotation: ``attempts`` slots further on."""
        return self._slots[(slot_idx + attempts) % len(self._slots)].host
