"""The stage runner: event-driven placement in simulated time, tasks inline.

A stage's tasks are placed by a discrete-event loop over the executor
slots' *simulated* timelines.  Whenever a slot frees up it is offered the
next task, preferring tasks local to that slot's host; a task whose
preferred hosts are all busy waits briefly (delay scheduling, counted in
scheduling events rather than seconds) before accepting a non-local slot.
The next event is always the earliest simulated completion among the
running tasks -- a heap pop.

Every task body executes inline on the calling thread, at the moment the
loop places it: its ledger is therefore known at once and its simulated
completion can be queued.  Stage execution creates no thread, pool, future
or lock, and the same job always yields the same placement, task order and
simulated timeline (docs/engine.md says why worker threads were removed).

A task's simulated start is the moment its slot freed, so the stage's
simulated makespan is consistent with the placement even when durations are
heavily skewed.  Wall-clock time is measured around the whole stage and
never fed back into it: real time does not enter the engine.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.metrics import CostLedger
from repro.engine.cluster import Executor

#: scheduling events a task waits for a preferred slot before going remote
DEFAULT_LOCALITY_WAIT_SKIPS = 2


@dataclass
class TaskSpec:
    """One schedulable unit: a task body plus its locality preferences."""

    index: int
    body: Callable[..., object]          # Callable[[TaskContext], object]
    preferred: Tuple[str, ...] = ()
    skips: int = 0                       # delay-scheduling bookkeeping


@dataclass
class TaskOutcome:
    """Everything one finished task reports back to the scheduler."""

    index: int
    value: object
    ledger: CostLedger
    placed_host: str
    ran_on_host: str
    failures: int = 0
    slot_index: int = -1
    sim_start_s: float = 0.0
    sim_end_s: float = 0.0

    @property
    def rehosted(self) -> bool:
        """True when retries moved the task off its original placement."""
        return self.ran_on_host != self.placed_host


@dataclass
class StageExecution:
    """A completed stage: per-task outcomes plus both timing views."""

    outcomes: List[TaskOutcome]          # in task-index order
    sim_makespan_s: float                # event-simulated stage duration
    wall_clock_s: float                  # measured on the driver


#: the scheduler-provided task executor: (spec, host, slot_index) -> outcome
RunTaskFn = Callable[[TaskSpec, str, int], TaskOutcome]

#: a launched task queued on its simulated completion; (sim_end, task index)
#: is unique within a stage, so the heap never compares the outcome
_Running = Tuple[float, int, TaskOutcome]


class StageRunner:
    """Places a stage's tasks on executor slots and runs them inline.

    Each time a slot frees up it is offered (1) a pending task that prefers
    its host, then (2) a task with no preference, then (3) a task that has
    already waited ``locality_wait_skips`` scheduling events for a preferred
    slot (delay scheduling).  If nothing is running and nothing could be
    dispatched, the head task is forced onto the least-loaded slot so the
    stage always makes progress.
    """

    def __init__(
        self,
        slots: Sequence[Executor],
        task_launch_s: float,
        locality_wait_skips: int = DEFAULT_LOCALITY_WAIT_SKIPS,
    ) -> None:
        if not slots:
            raise ValueError("a stage runner needs at least one slot")
        self.slots = list(slots)
        self._slot_hosts = frozenset(s.host for s in self.slots)
        self.task_launch_s = task_launch_s
        self.locality_wait_skips = max(0, locality_wait_skips)

    def run(self, tasks: Sequence[TaskSpec], run_task: RunTaskFn) -> StageExecution:
        """Execute one stage: place and run every task, return the outcomes.

        ``run_task`` is the scheduler's task executor (it owns retries and
        ledgers); the runner owns *placement* -- which slot each task gets,
        in which order, and how the slots' simulated timelines advance.
        Outcomes come back sorted by task index.  The first task error
        aborts the stage and propagates: no later task is started.
        """
        pending: Deque[TaskSpec] = deque(tasks)
        sim_free_at = [0.0] * len(self.slots)
        free_slots: List[int] = list(range(len(self.slots)))
        running: List[_Running] = []         # heap, earliest completion first
        done: Dict[int, TaskOutcome] = {}
        wall_start = time.perf_counter()

        while pending or running:
            self._dispatch_round(pending, free_slots, sim_free_at, running,
                                 run_task)
            if pending and not running:
                # every slot is free yet all pending tasks are still
                # waiting for locality: force the head task through
                slot_idx = self._least_loaded(free_slots, sim_free_at)
                free_slots.remove(slot_idx)
                self._launch(pending.popleft(), slot_idx,
                             sim_free_at[slot_idx], running, run_task)
            sim_end, index, outcome = heapq.heappop(running)
            free_slots.append(outcome.slot_index)
            done[index] = outcome
            sim_free_at[outcome.slot_index] = sim_end

        makespan = max(sim_free_at)
        wall = time.perf_counter() - wall_start
        return StageExecution([done[i] for i in sorted(done)], makespan, wall)

    def _launch(self, spec: TaskSpec, slot_idx: int, sim_start: float,
                running: List[_Running], run_task: RunTaskFn) -> None:
        """Run ``spec`` inline on a slot and queue its simulated completion."""
        outcome = run_task(spec, self.slots[slot_idx].host, slot_idx)
        outcome.slot_index = slot_idx
        outcome.sim_start_s = sim_start
        outcome.sim_end_s = sim_start + self.task_launch_s + outcome.ledger.seconds
        heapq.heappush(running, (outcome.sim_end_s, spec.index, outcome))

    def _least_loaded(self, candidates: Sequence[int],
                      sim_free_at: Sequence[float]) -> int:
        """The candidate slot that frees earliest in *simulated* time."""
        return min(candidates, key=lambda i: (sim_free_at[i], i))

    # -- dispatch ----------------------------------------------------------
    def _dispatch_round(
        self,
        pending: Deque[TaskSpec],
        free_slots: List[int],
        sim_free_at: Sequence[float],
        running: List[_Running],
        run_task: RunTaskFn,
    ) -> None:
        """Offer every free slot a task and run the ones that were taken."""
        # offer the slot that frees earliest (in simulated time) first
        for slot_idx in sorted(free_slots, key=lambda i: (sim_free_at[i], i)):
            if not pending:
                break
            spec = self._pick_for_slot(self.slots[slot_idx].host, pending)
            if spec is None:
                continue
            free_slots.remove(slot_idx)
            self._launch(spec, slot_idx, sim_free_at[slot_idx], running, run_task)
        if free_slots and pending:
            # at least one slot went idle waiting on locality: that is one
            # scheduling event each passed-over task has now waited through
            for spec in pending:
                spec.skips += 1

    def _pick_for_slot(self, host: str,
                       pending: Deque[TaskSpec]) -> Optional[TaskSpec]:
        """The best pending task for a freed slot, honouring delay scheduling.

        A task with a preferred host *somewhere* in the cluster waits up to
        ``locality_wait_skips`` scheduling events (dispatch rounds in which
        a slot sat idle) for that host to free before accepting a non-local
        slot -- counting events rather than wall time keeps runs
        reproducible.  A task whose preferred hosts have no slot at all is
        treated as unconstrained: it must run remote anyway, so waiting
        would only serialise the stage behind slots it can never use.
        """
        fallback: Optional[TaskSpec] = None
        for spec in pending:
            if (not spec.preferred or host in spec.preferred
                    or not self._locality_possible(spec)):
                pending.remove(spec)
                return spec
            if fallback is None and spec.skips >= self.locality_wait_skips:
                fallback = spec
        if fallback is not None:
            pending.remove(fallback)
        return fallback

    def _locality_possible(self, spec: TaskSpec) -> bool:
        """Does any slot in the cluster live on one of the preferred hosts?"""
        return any(host in self._slot_hosts for host in spec.preferred)
