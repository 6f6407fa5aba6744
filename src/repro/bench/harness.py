"""Shared machinery for the paper-reproduction benchmarks.

Every figure/table benchmark follows the same recipe: load a TPC-DS
environment at some nominal size, mint one session per *system under test*
(SHC vs vanilla Spark SQL -- same physical HBase tables, different
connector), run the query, and harvest simulated seconds plus metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.baselines import BASELINE_FORMAT
from repro.common.tracing import save_trace
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.session import QueryResult
from repro.workloads.loader import TpcdsEnvironment, load_tpcds


@dataclass(frozen=True)
class SystemUnderTest:
    """One connector configuration to benchmark."""

    label: str
    format_name: str
    conf: Dict[str, object] = field(default_factory=dict)
    extra_options: Dict[str, str] = field(default_factory=dict)


SHC_SYSTEM = SystemUnderTest("SHC", DEFAULT_FORMAT)
SPARKSQL_SYSTEM = SystemUnderTest("SparkSQL", BASELINE_FORMAT)


@dataclass
class QueryRun:
    """One measured execution."""

    system: str
    query: str
    size_gb: int
    seconds: float
    shuffle_kb: float
    peak_memory_mb: float
    rows: int
    metrics: Dict[str, float]
    #: serialised span tree (Span.to_dict()), present when the run traced
    trace: Optional[Dict[str, object]] = None

    @classmethod
    def from_result(cls, system: SystemUnderTest, query: str, size_gb: int,
                    result: QueryResult) -> "QueryRun":
        return cls(
            system=system.label,
            query=query,
            size_gb=size_gb,
            seconds=result.seconds,
            shuffle_kb=result.shuffle_bytes / 1024.0,
            peak_memory_mb=result.peak_memory_bytes / (1024.0 * 1024.0),
            rows=len(result.rows),
            metrics=dict(result.metrics.snapshot()),
            trace=result.trace.to_dict() if result.trace is not None else None,
        )

    def export_json(self, path: str) -> None:
        """Write the run -- measurements, metrics and trace -- as one JSON
        document readable by ``python -m repro.cli trace`` (trace key) and
        by ad-hoc analysis scripts."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "system": self.system,
                "query": self.query,
                "size_gb": self.size_gb,
                "seconds": self.seconds,
                "shuffle_kb": self.shuffle_kb,
                "peak_memory_mb": self.peak_memory_mb,
                "rows": self.rows,
                "metrics": self.metrics,
                "trace": self.trace,
            }, fh, indent=2)
            fh.write("\n")

    def export_trace(self, path: str) -> None:
        """Write just the span tree, in the ``repro trace`` file format."""
        if self.trace is None:
            raise ValueError(
                f"run {self.query}/{self.system} was not traced; "
                f"pass tracing=True to run_query")
        save_trace(self.trace, path)


def run_query(
    env: TpcdsEnvironment,
    system: SystemUnderTest,
    query_name: str,
    sql: str,
    executors_requested: int = 5,
    fresh_application: bool = True,
    tracing: bool = False,
) -> QueryRun:
    """Execute one query under one system and collect its measurements.

    ``fresh_application`` clears the cluster's connection cache first so
    each measured run pays its own connection setups, like a newly launched
    Spark application -- otherwise whichever system ran first would subsidise
    the others.  ``tracing`` turns on span-tree tracing for the run; the
    serialised trace lands on ``QueryRun.trace`` (simulated costs are
    unaffected either way -- the recorder only observes).
    """
    if fresh_application:
        env.cluster.connection_cache.clear()
    conf = dict(system.conf or {})
    if tracing:
        conf["tracing.enabled"] = True
    session = env.new_session(
        system.format_name,
        executors_requested=executors_requested,
        conf=conf or None,
        extra_options=system.extra_options or None,
    )
    result = session.sql(sql).run()
    return QueryRun.from_result(system, query_name, env.size_gb, result)


def sweep_data_sizes(
    sizes: Sequence[int],
    tables: Iterable[str],
    systems: Sequence[SystemUnderTest],
    query_name: str,
    sql_factory: Callable[[], str],
    coder: str = "PrimitiveType",
    env_cache: Optional[Dict[int, TpcdsEnvironment]] = None,
) -> List[QueryRun]:
    """The Figure 4/5 sweep: one run per (size, system)."""
    runs: List[QueryRun] = []
    tables = list(tables)
    for size in sizes:
        if env_cache is not None and size in env_cache:
            env = env_cache[size]
        else:
            env = load_tpcds(size, tables, coder=coder)
            if env_cache is not None:
                env_cache[size] = env
        sql = sql_factory()
        for system in systems:
            runs.append(run_query(env, system, query_name, sql))
    return runs
