"""Workload loader: generate TPC-DS data, write it to HBase, register views.

``load_tpcds`` stands up an HBase cluster, writes the requested tables
through SHC's write path (pre-split into one region per host, like the
paper's 5-node deployment), and returns an environment that can mint
sessions whose temp views read the same physical tables through either
connector -- SHC or the vanilla Spark SQL baseline -- so every comparison
runs against identical bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.cost import DEFAULT_COST_MODEL, CostModel
from repro.common.simclock import SimClock
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT, QUORUM_OPTION
from repro.hbase.cluster import HBaseCluster
from repro.sql.session import SparkSession, WriteResult
from repro.workloads.tpcds_gen import TpcdsGenerator
from repro.workloads.tpcds_schema import TABLES, catalog_json

_env_ids = itertools.count(1)

DEFAULT_HOSTS = ("node1", "node2", "node3", "node4", "node5")


@dataclass
class TpcdsEnvironment:
    """A loaded cluster plus the recipe for building reader sessions."""

    cluster: HBaseCluster
    size_gb: int
    coder: str
    tables: List[str]
    hosts: List[str]
    cost_model: CostModel
    write_results: Dict[str, WriteResult] = field(default_factory=dict)

    def catalog_for(self, table: str) -> str:
        return catalog_json(TABLES[table], table_coder=self.coder)

    def reader_options(self, table: str) -> Dict[str, str]:
        return {
            HBaseTableCatalog.tableCatalog: self.catalog_for(table),
            QUORUM_OPTION: self.cluster.quorum,
        }

    def new_session(
        self,
        format_name: str = DEFAULT_FORMAT,
        executors_requested: int = 5,
        cores_per_executor: int = 2,
        conf: Optional[Dict[str, object]] = None,
        extra_options: Optional[Dict[str, str]] = None,
    ) -> SparkSession:
        """A session whose temp views read this environment's tables."""
        session = SparkSession(
            self.hosts,
            executors_requested=executors_requested,
            cores_per_executor=cores_per_executor,
            cost_model=self.cost_model,
            clock=self.cluster.clock,
            conf=conf,
        )
        for table in self.tables:
            options = self.reader_options(table)
            if extra_options:
                options.update(extra_options)
            df = session.read.format(format_name).options(options).load()
            df.create_or_replace_temp_view(table)
        return session


def load_tpcds(
    size_gb: int,
    tables: Iterable[str],
    hosts: Sequence[str] = DEFAULT_HOSTS,
    coder: str = "PrimitiveType",
    cost_model: Optional[CostModel] = None,
    seed: int = 42,
    clock: Optional[SimClock] = None,
    regions_per_table: Optional[int] = None,
    name: Optional[str] = None,
) -> TpcdsEnvironment:
    """Generate and load the requested tables; returns the environment.

    ``name`` names the cluster; by default clusters are numbered across the
    process (``tpcds1``, ``tpcds2``, ...).  The name keys hashed placement,
    retry jitter and fault schedules, so a run that must replay another
    passes the same one.
    """
    cost = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    cluster = HBaseCluster(
        name if name is not None else f"tpcds{next(_env_ids)}", list(hosts),
        clock=clock if clock is not None else SimClock(),
        cost_model=cost,
    )
    table_list = list(tables)
    env = TpcdsEnvironment(cluster, size_gb, coder, table_list, list(hosts), cost)

    generator = TpcdsGenerator(size_gb=size_gb, seed=seed)
    writer_session = SparkSession(
        list(hosts), executors_requested=len(hosts),
        cost_model=cost, clock=cluster.clock,
    )
    for table in table_list:
        spec = TABLES[table]
        rows = generator.rows_for(table)
        df = writer_session.create_dataframe(rows, spec.schema())
        result = (
            df.write.format(DEFAULT_FORMAT)
            .options({
                HBaseTableCatalog.tableCatalog: env.catalog_for(table),
                HBaseTableCatalog.newTable: str(regions_per_table or len(hosts)),
                QUORUM_OPTION: cluster.quorum,
            })
            .save()
        )
        env.write_results[table] = result
        # settle the stores so reads hit compacted files, like a warm cluster
        cluster.compact_table(table, major=True)
    return env
