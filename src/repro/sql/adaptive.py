"""Adaptive query execution: one join operator that decides at runtime.

The compile-time planner fixes join strategy and shuffle layout from *size
estimates* before a single byte is scanned.  With ``sql.aqe.enabled`` a
non-broadcast equi-join is planned as an :class:`AdaptiveJoinExec` instead:
its inputs sit behind :class:`QueryStageExec` barriers, each exchange's map
side materialises eagerly, and the reduce side is planned from the bytes
the map tasks actually wrote, which the
:class:`~repro.engine.shuffle.ShuffleBlockStore` keeps per block.
Two rules, mirroring Spark's AQE:

1. **Broadcast conversion** -- a planned shuffled join whose build side
   *measured* under ``sql.autoBroadcastJoinThreshold`` becomes a broadcast
   hash join (for inner joins the small *left* side can also swap into the
   build role).
2. **Skew splitting** -- a reduce partition much larger than the median
   splits into several tasks that each fetch a disjoint subset of map
   outputs (the build side is duplicated per split, so every stream row
   still sees the full build table).

Nothing else in the engine is adaptive: aggregations, set operators and
every join the planner could settle statically run the same with the option
on or off.  See docs/adaptive.md (which also says why merging small reduce
partitions, Spark's third rule, is not here).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.engine.rdd import RDD, ShuffleReadRDD
from repro.engine.shuffle import ShuffleBlockStore
from repro.sql import columnar as C
from repro.sql.physical import (
    ExecContext,
    HashJoinExec,
    PhysicalPlan,
    _charge_broadcast,
    _chunks,
    _hash_build,
)

#: a read spec: (shuffle_id, reduce_partition, optional map-id subset)
ReadSpec = Tuple[int, int, Optional[frozenset]]

#: a stream partition is skewed when larger than this many times the
#: stage's median partition ...
SKEW_FACTOR = 4.0
#: ... and than this many bytes
SKEW_MIN_BYTES = 64 * 1024


class QueryStageExec(PhysicalPlan):
    """Stage barrier: this subtree materialises before downstream planning.

    A passthrough marker in the plan tree -- execution semantics live in the
    parent operator (e.g. :class:`AdaptiveJoinExec`), which materialises the
    stage's exchange through :meth:`ExecContext.run_job` and re-plans from
    the bytes its blocks were written.
    """

    def __init__(self, child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: ExecContext) -> RDD:
        return self.children[0].execute(ctx)

    def describe(self) -> str:
        return "QueryStage"


def plan_skew_chunks(store: ShuffleBlockStore, shuffle_id: int,
                     partition: int, target_bytes: float) -> List[List[int]]:
    """Partition the map outputs feeding one reduce partition into chunks.

    Each chunk groups map tasks whose blocks for ``partition`` total about
    ``target_bytes``; a skewed partition then runs as one task per chunk,
    each fetching a disjoint ``map_ids`` subset.
    """
    chunks: List[List[int]] = []
    current: List[int] = []
    current_bytes = 0
    for map_id, __, nbytes in store.blocks_for(shuffle_id, partition):
        if current and current_bytes + nbytes > target_bytes:
            chunks.append(current)
            current, current_bytes = [], 0
        current.append(map_id)
        current_bytes += nbytes
    if current:
        chunks.append(current)
    return chunks or [[]]


class AdaptiveJoinExec(HashJoinExec):
    """Equi-join whose strategy is finalised at runtime, not plan time.

    Planned where the compile-time planner would emit a
    :class:`~repro.sql.physical.ShuffledHashJoinExec`.  Both inputs sit
    behind :class:`QueryStageExec` barriers; executing materialises the
    build-side exchange first and then picks, from measured bytes: broadcast
    conversion (rule 1, including the swapped inner-join variant) or the
    shuffled join, its skewed partitions split (rule 2).
    The tagging, the probe loop and the build seam are
    :class:`HashJoinExec`'s, so rows, bytes and ledger charges are computed
    identically whichever strategy wins; this join charges ``row_cpu_s``
    per tagged and per output row.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, *join) -> None:
        super().__init__(QueryStageExec(left), QueryStageExec(right), *join)

    def execute(self, ctx: ExecContext) -> RDD:
        left_stage, right_stage = self.children
        per_row = ctx.cost.row_cpu_s
        num_parts = ctx.shuffle_partitions()
        threshold = int(ctx.conf.get("sql.autoBroadcastJoinThreshold", 128 * 1024))
        store = ctx.scheduler.block_store
        ctx.record_operator(self, initial_strategy="ShuffledHashJoin")

        def barrier(stage, keys, side) -> Tuple[int, List[int]]:
            """Materialise one side's exchange: its shuffle id and the bytes
            each reduce partition was written."""
            shuffled = self._tagged(ctx, stage, keys, side, per_row).partition_by(
                num_parts, key_fn=lambda e: e[0])
            stages = ctx.run_job(shuffled, map_stages_only=True).stages
            ctx.metrics.incr("engine.aqe.stages_materialized", len(stages))
            return (shuffled.shuffle_id,
                    store.partition_bytes(shuffled.shuffle_id, num_parts))

        # rule 1: the build (right) side measured small -> broadcast instead
        right_id, right_bytes = barrier(right_stage, self.right_keys, 1)
        if sum(right_bytes) <= threshold:
            table = self._convert_to_broadcast(
                ctx, right_id, right_bytes, "BroadcastHashJoin",
                f"build side wrote {sum(right_bytes)}B "
                f"<= threshold {threshold}B")
            probe = self._probe_loop(per_row)
            # like the static broadcast join, the probe pipelines inside the
            # stream side's stage -- no scope stamp of its own
            return left_stage.execute(ctx).map_partitions(
                self._probe_stream(probe, table))

        # rule 1 (swapped): inner joins can build on a small *left* side and
        # stream the already-shuffled right side against it
        left_id, left_bytes = barrier(left_stage, self.left_keys, 0)
        if self.how == "inner" and sum(left_bytes) <= threshold:
            table = self._convert_to_broadcast(
                ctx, left_id, left_bytes, "BroadcastHashJoin (build side swapped)",
                f"left side wrote {sum(left_bytes)}B <= threshold "
                f"{threshold}B; sides swapped")
            probe = self._probe_loop(per_row, build_left=True)
            key_and_row = itemgetter(0, 2)   # of a (key, side, row) entry
            batch_size = C.BATCH_SIZE
            rdd = ShuffleReadRDD(
                [[(right_id, p, None)] for p in range(num_parts)],
                post_shuffle=lambda entries, task_ctx: probe(
                    table, _chunks(map(key_and_row, entries), batch_size),
                    task_ctx))
            rdd.scope = self.op_id
            return rdd

        # rule 2: shuffled join, skewed reduce partitions split
        return self._shuffled_with_layout(ctx, left_id, left_bytes, right_id,
                                          per_row)

    def _convert_to_broadcast(self, ctx: ExecContext, shuffle_id: int,
                              written: List[int], final_strategy: str,
                              detail: str) -> Dict[tuple, List[tuple]]:
        """Rule 1 fired: a materialised (tagged) shuffle becomes the build
        table, and the decision goes on record.

        The blocks already paid their shuffle *write*; collecting them at
        the driver charges the read, and shipping the build table to every
        executor charges broadcast volume exactly like the static
        :class:`~repro.sql.physical.BroadcastHashJoinExec`.
        """
        store = ctx.scheduler.block_store
        table, build_bytes = _hash_build(
            (key, row) for p in range(len(written))
            for key, __side, row in store.fetch(shuffle_id, p))
        nbytes = sum(written)
        ctx.charge_driver(nbytes / ctx.cost.shuffle_bytes_per_sec,
                          "engine.shuffle_read_bytes", nbytes)
        _charge_broadcast(ctx, build_bytes)
        ctx.metrics.incr("engine.aqe.broadcast_conversions", 1)
        ctx.record_reopt(self, "broadcast-conversion", detail)
        ctx.record_operator(self, final_strategy=final_strategy)
        return table

    def _shuffled_with_layout(self, ctx: ExecContext, left_id: int,
                              stream_bytes: List[int], right_id: int,
                              per_row: float) -> RDD:
        """Rule 2: the shuffled join, its skewed reduce partitions split.

        Skewed stream partitions split into per-chunk tasks (the build
        partition is duplicated into each chunk, so every stream row still
        sees the full build table -- correct for all supported join types
        because out rows derive from exactly one stream row).  A chunk is
        sized like the stage's median partition, so the split tasks finish
        with their siblings, and never below the bytes whose shuffle read
        takes as long as launching the task that reads them.  The reopt
        event names the split partition's heaviest key by rows, counted
        from its blocks.
        """
        store = ctx.scheduler.block_store
        ordered = sorted(stream_bytes)
        median = ordered[len(ordered) // 2]
        chunk_bytes = max(
            median, ctx.cost.task_launch_s * ctx.cost.shuffle_bytes_per_sec)
        specs: List[List[ReadSpec]] = []
        splits = 0
        for p, nbytes in enumerate(stream_bytes):
            skewed = (nbytes > SKEW_MIN_BYTES
                      and nbytes > SKEW_FACTOR * max(median, 1))
            chunks = (plan_skew_chunks(store, left_id, p, chunk_bytes)
                      if skewed else [])
            if len(chunks) > 1:
                for maps in chunks:
                    specs.append([(left_id, p, frozenset(maps)),
                                  (right_id, p, None)])
                splits += 1
                hot, rows = Counter(
                    entry[0] for entry in store.fetch(left_id, p)
                ).most_common(1)[0]
                ctx.record_reopt(
                    self, "skew-split",
                    f"partition {p} ({nbytes}B > {SKEW_FACTOR:g}x median "
                    f"{median}B) split into {len(chunks)} tasks; hot key "
                    f"{hot!r} ({rows} rows)")
                continue
            specs.append([(left_id, p, None), (right_id, p, None)])
        if splits:
            ctx.metrics.incr("engine.aqe.skew_splits", splits)
        ctx.record_operator(
            self, final_strategy=f"ShuffledHashJoin ({len(specs)} tasks)",
            aqe_partitions=len(specs),
        )
        rdd = ShuffleReadRDD(specs, post_shuffle=self._reducer(per_row))
        rdd.scope = self.op_id
        return rdd
