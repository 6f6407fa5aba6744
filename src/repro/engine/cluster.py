"""Compute cluster topology: hosts, a YARN-like resource manager, executors.

Reproduces the deployment of section V.A: Spark executors run on the same
hosts as HBase Region Servers, and YARN caps how many executors one job can
actually get -- the cap is what makes the speedup curves of Figure 6 flatten
("the allocated resource is limited for each job").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import EngineError


@dataclass(frozen=True)
class Executor:
    """One executor process: a host plus a number of task slots (cores)."""

    executor_id: str
    host: str
    cores: int


class YarnResourceManager:
    """Grants executors up to a per-application cap.

    ``max_executors_per_app`` models the queue capacity the paper's jobs ran
    under: asking for more executors than the cap silently yields the cap.
    """

    def __init__(self, total_executors: int, max_executors_per_app: int) -> None:
        if total_executors <= 0 or max_executors_per_app <= 0:
            raise EngineError("executor counts must be positive")
        self.total_executors = total_executors
        self.max_executors_per_app = max_executors_per_app

    def grant(self, requested: int) -> int:
        """How many executors an application asking for ``requested`` gets."""
        if requested <= 0:
            raise EngineError("must request at least one executor")
        return min(requested, self.max_executors_per_app, self.total_executors)


class ComputeCluster:
    """A set of hosts running executors, co-locatable with region servers."""

    def __init__(
        self,
        hosts: Sequence[str],
        executors_requested: int = 5,
        cores_per_executor: int = 2,
        resource_manager: YarnResourceManager | None = None,
    ) -> None:
        if not hosts:
            raise EngineError("a compute cluster needs at least one host")
        self.hosts = list(hosts)
        self.resource_manager = resource_manager or YarnResourceManager(
            total_executors=4 * len(self.hosts),
            max_executors_per_app=3 * len(self.hosts),
        )
        granted = self.resource_manager.grant(executors_requested)
        self.executors: List[Executor] = [
            Executor(f"exec-{i}", self.hosts[i % len(self.hosts)], cores_per_executor)
            for i in range(granted)
        ]
        self._slots: List[Executor] | None = None

    def slots(self) -> List[Executor]:
        """One entry per task slot (an executor appears once per core).

        The expansion is computed once and a copy handed out: the stage
        runner indexes slots by position, so the ordering must be stable
        for the cluster's life.
        """
        if self._slots is None:
            expanded: List[Executor] = []
            for executor in self.executors:
                expanded.extend([executor] * executor.cores)
            self._slots = expanded
        return list(self._slots)

    def num_slots(self) -> int:
        """How many tasks can run concurrently across all executors."""
        return len(self.slots())

    def hosts_with_executors(self) -> List[str]:
        return sorted({e.host for e in self.executors})

    def __repr__(self) -> str:
        return (
            f"ComputeCluster(hosts={len(self.hosts)}, "
            f"executors={len(self.executors)})"
        )
