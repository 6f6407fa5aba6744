"""SHC's DataFrame write path (sections IV.B and VII's write benchmark).

``df.write.format(...).options(catalog, newtable=N).save()`` lands here:
optionally create the target table pre-split into N regions (split keys are
data-derived quantiles of the encoded row keys, like the connector's
``HBaseTableCatalog.newTable`` path), then run a distributed job where each
partition encodes its rows straight into HBase byte arrays and issues
batched ``Put``s against the region servers.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.common.errors import CatalogError
from repro.core.catalog import HBaseTableCatalog
from repro.hbase.client import Put
from repro.sql.types import StructType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.relation import HBaseRelation
    from repro.engine.rdd import RDD
    from repro.sql.physical import ExecContext

PUT_BATCH_SIZE = 500


def insert_into_hbase(relation: "HBaseRelation", rdd: "RDD", schema: StructType,
                      ctx: "ExecContext", overwrite: bool = False) -> int:
    """Write an RDD of tuples into the relation's HBase table."""
    catalog = relation.catalog
    _check_schema(catalog, schema)
    cluster = relation.cluster

    if overwrite and cluster.has_table(catalog.qualified_name):
        cluster.drop_table(catalog.qualified_name)

    if not cluster.has_table(catalog.qualified_name):
        num_regions = int(relation.options.get(HBaseTableCatalog.newTable, 1))
        split_keys = _sample_split_keys(relation, rdd, schema, ctx, num_regions)
        cluster.create_table(catalog.qualified_name, catalog.families(), split_keys)

    encode = relation.codec.encoder(schema.names)
    encode_cost = relation.encode_cell_cost()

    def write_partition(rows, task_ctx):
        connection = relation.acquire_connection(task_ctx)
        try:
            table = connection.get_table(catalog.qualified_name)
            batch: List[Put] = []
            written = 0
            encoded_cells = 0
            for row in rows:
                put, ncells = encode(row)
                encoded_cells += ncells
                batch.append(put)
                written += 1
                if len(batch) >= PUT_BATCH_SIZE:
                    table.put(batch, task_ctx.ledger)
                    batch = []
            if batch:
                table.put(batch, task_ctx.ledger)
            task_ctx.ledger.charge(
                encode_cost * encoded_cells, "shc.cells_encoded", encoded_cells
            )
            yield written
        finally:
            relation.release_connection(task_ctx)

    counts = ctx.run_job(rdd.map_partitions(write_partition)).rows()
    cluster.flush_table(catalog.qualified_name)
    cluster.run_maintenance()
    return sum(counts)


def _check_schema(catalog: HBaseTableCatalog, schema: StructType) -> None:
    names = set(schema.names)
    for key_name in catalog.row_key:
        if key_name not in names:
            raise CatalogError(
                f"write schema is missing row-key column {key_name!r}"
            )
    for name in schema.names:
        if name not in catalog.columns:
            raise CatalogError(
                f"write schema column {name!r} is not in the catalog for "
                f"{catalog.name}"
            )


def _sample_split_keys(relation: "HBaseRelation", rdd: "RDD", schema: StructType,
                       ctx: "ExecContext", num_regions: int) -> List[bytes]:
    """Quantile split keys so the new table's regions are balanced."""
    if num_regions <= 1:
        return []
    encode_key = relation.codec.key_encoder(schema.names)

    def encode_keys(rows, task_ctx):
        return map(encode_key, rows)

    keys = sorted(ctx.run_job(rdd.map_partitions(encode_keys)).rows())
    if not keys:
        return []
    splits: List[bytes] = []
    for i in range(1, num_regions):
        idx = (i * len(keys)) // num_regions
        candidate = keys[min(idx, len(keys) - 1)]
        if candidate and (not splits or candidate != splits[-1]):
            splits.append(candidate)
    return splits
