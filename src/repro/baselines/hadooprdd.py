"""Vanilla "Spark SQL over HBase": the paper's comparison system.

Models the stock path the paper benchmarks against (sections III.C and VII):
Spark SQL reading HBase through a generic ``HadoopRDD`` +
``TableInputFormat``.  The differences from SHC are all *absences*:

- **no predicate pushdown** -- every filter is re-applied by Spark after the
  full rows have crossed the wire (``unhandled_filters`` returns everything);
- **no partition pruning** -- every region gets a task regardless of row-key
  predicates ("it requires scanning the whole table");
- **no column pruning** -- a HadoopRDD "fails to understand the schema of
  data", so every column family is fetched and every cell decoded before
  Spark projects columns away;
- **no size statistics** -- ``size_in_bytes`` is unknown, so the planner can
  never broadcast this relation's side of a join and falls back to shuffling
  both sides in full;
- **no operator fusion** -- one task per region (a TableInputFormat split);
- **no connection cache** -- each task pays connection setup;
- **generic row conversion** -- decoding goes through Spark's generic
  converter instead of scanning HBase's byte arrays natively (a higher
  per-cell CPU factor).

Data locality is kept (TableInputFormat does report block hosts), so the
measured gaps come from the mechanisms above, not from an unfairly crippled
baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.partitions import build_partitions
from repro.core.ranges import FULL_SCAN
from repro.core.relation import HBaseRelation
from repro.core.scan_rdd import HBaseTableScanRDD
from repro.sql.columnar import RecordBatch
from repro.sql.sources import Filter as SourceFilter, RelationProvider, register_provider

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD

BASELINE_FORMAT = "hadoop-hbase"
_GENERIC_CODER_FACTOR = "GenericSparkSql"


class SparkSqlGenericHBaseRelation(HBaseRelation):
    """The stock Spark SQL relation over HBase."""

    def __init__(self, options, session) -> None:
        super().__init__(options, session)
        if self.catalog.table_coder != "PrimitiveType":
            from repro.common.errors import AnalysisError

            # Table I / Table II: vanilla Spark SQL has no Phoenix/Avro
            # decoding for HBase cells
            raise AnalysisError(
                "Spark SQL's generic HBase path only supports the native "
                f"PrimitiveType encoding, not {self.catalog.table_coder!r}"
            )

    # -- capability downgrades -----------------------------------------------
    @property
    def pushdown_enabled(self) -> bool:
        return False

    @property
    def pruning_enabled(self) -> bool:
        return False

    @property
    def column_pruning_enabled(self) -> bool:
        return False

    @property
    def fusion_enabled(self) -> bool:
        return False

    @property
    def connection_cache_enabled(self) -> bool:
        return False

    def size_in_bytes(self) -> Optional[int]:
        return None  # a generic RDD carries no statistics

    def unhandled_filters(self, filters: Sequence[SourceFilter]) -> Sequence[SourceFilter]:
        return list(filters)

    def decode_cell_cost(self) -> float:
        cost = self.session.cost
        return cost.decode_cell_s * cost.coder_factor(_GENERIC_CODER_FACTOR)

    def encode_cell_cost(self) -> float:
        cost = self.session.cost
        return cost.encode_cell_s * cost.coder_factor(_GENERIC_CODER_FACTOR)

    # -- the generic scan --------------------------------------------------------
    def build_scan(self, required_columns: Sequence[str],
                   filters: Sequence[SourceFilter]) -> "RDD":
        """Full scan of every region; decode everything, then project."""
        all_columns = self.schema.names
        locations = self.cluster.region_locations(self.catalog.qualified_name)
        partitions = build_partitions(locations, list(FULL_SCAN), fusion_enabled=False)
        full_rdd = HBaseTableScanRDD(self, all_columns, None, partitions)
        indices = [all_columns.index(name) for name in required_columns]

        def project(batches, task_ctx):
            return (RecordBatch([batch.columns[i] for i in indices], batch.num_rows)
                    for batch in batches)

        return full_rdd.map_partitions(project)


class SparkSqlGenericHBaseProvider(RelationProvider):
    """Registers the vanilla connector under its format name."""

    def create_relation(self, options, session) -> SparkSqlGenericHBaseRelation:
        return SparkSqlGenericHBaseRelation(options, session)


register_provider(BASELINE_FORMAT, SparkSqlGenericHBaseProvider())
