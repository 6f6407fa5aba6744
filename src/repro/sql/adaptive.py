"""Adaptive query execution: one join operator that decides at runtime.

The compile-time planner fixes join strategy and shuffle layout from *size
estimates* before a single byte is scanned.  With ``sql.aqe.enabled`` a
non-broadcast equi-join is planned as an :class:`AdaptiveJoinExec` instead:
its inputs sit behind :class:`QueryStageExec` barriers, each exchange's map
side materialises eagerly, the scheduler hands back
:class:`~repro.engine.shuffle.ShuffleRuntimeStats` (actual rows, bytes and
hot keys per reduce partition), and the reduce side is planned from those.
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

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.engine.rdd import RDD, ShuffleReadRDD
from repro.engine.shuffle import ShuffleRuntimeStats
from repro.sql.physical import (
    ExecContext,
    HashJoinExec,
    PhysicalPlan,
    _charge_broadcast,
    _hash_build,
    _keyed,
    _row_key,
    _row_tagger,
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
    stage's exchange through :meth:`ExecContext.materialize_stage` and
    re-plans from the resulting runtime statistics.
    """

    def __init__(self, child: PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: ExecContext) -> RDD:
        return self.children[0].execute(ctx)

    def describe(self) -> str:
        return "QueryStage"


def plan_skew_chunks(stats: ShuffleRuntimeStats, partition: int,
                     target_bytes: float) -> List[List[int]]:
    """Partition the map outputs feeding one reduce partition into chunks.

    Each chunk groups map tasks whose blocks for ``partition`` total about
    ``target_bytes``; a skewed partition then runs as one task per chunk,
    each fetching a disjoint ``map_ids`` subset.
    """
    chunks: List[List[int]] = []
    current: List[int] = []
    current_bytes = 0
    for map_id, per_reduce in enumerate(stats.block_bytes):
        nbytes = per_reduce[partition]
        if nbytes <= 0:
            continue
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
    The probe loop and the build seam are :class:`HashJoinExec`'s, so rows,
    bytes and ledger charges are computed identically whichever strategy
    wins.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, *join) -> None:
        super().__init__(QueryStageExec(left), QueryStageExec(right), *join)

    def execute(self, ctx: ExecContext) -> RDD:
        left_stage, right_stage = self.children
        left_key = _row_key(self.left_keys, left_stage.output)
        right_key = _row_key(self.right_keys, right_stage.output)
        per_row = ctx.cost.row_cpu_s
        num_parts = ctx.shuffle_partitions()
        threshold = int(ctx.conf.get("sql.autoBroadcastJoinThreshold", 128 * 1024))
        ctx.record_operator(self, initial_strategy="ShuffledHashJoin")

        def barrier(stage, key, side) -> ShuffleRuntimeStats:
            """Materialise one side's exchange; what it actually wrote."""
            return ctx.materialize_stage(stage.execute(ctx).map_partitions(
                _row_tagger(key, side, per_row)
            ).partition_by(num_parts, key_fn=lambda e: e[0]))

        # rule 1: the build (right) side measured small -> broadcast instead
        stats_r = barrier(right_stage, right_key, 1)
        if stats_r.total_bytes <= threshold:
            table = self._convert_to_broadcast(
                ctx, stats_r, "BroadcastHashJoin",
                f"build side wrote {stats_r.total_bytes}B "
                f"<= threshold {threshold}B")
            probe = self._probe_loop(per_row)
            # like the static broadcast join, the probe pipelines inside the
            # stream side's stage -- no scope stamp of its own
            return left_stage.execute(ctx).map_partitions(
                lambda rows, task_ctx: probe(table, _keyed(rows, left_key),
                                             task_ctx))

        # rule 1 (swapped): inner joins can build on a small *left* side and
        # stream the already-shuffled right side against it
        stats_l = barrier(left_stage, left_key, 0)
        if self.how == "inner" and stats_l.total_bytes <= threshold:
            table = self._convert_to_broadcast(
                ctx, stats_l, "BroadcastHashJoin (build side swapped)",
                f"left side wrote {stats_l.total_bytes}B <= threshold "
                f"{threshold}B; sides swapped")
            probe = self._probe_loop(per_row, build_left=True)
            key_and_row = itemgetter(0, 2)   # of a (key, side, row) entry
            rdd = ShuffleReadRDD(
                [[(stats_r.shuffle_id, p, None)] for p in range(num_parts)],
                post_shuffle=lambda entries, task_ctx: probe(
                    table, map(key_and_row, entries), task_ctx))
            rdd.scope = self.op_id
            return rdd

        # rule 2: shuffled join, skewed reduce partitions split
        return self._shuffled_with_layout(ctx, stats_l, stats_r, per_row,
                                          num_parts)

    def _convert_to_broadcast(self, ctx: ExecContext, stats: ShuffleRuntimeStats,
                              final_strategy: str, detail: str
                              ) -> Dict[tuple, List[tuple]]:
        """Rule 1 fired: a materialised (tagged) shuffle becomes the build
        table, and the decision goes on record.

        The blocks already paid their shuffle *write*; collecting them at
        the driver charges the read, and shipping the build table to every
        executor charges broadcast volume exactly like the static
        :class:`~repro.sql.physical.BroadcastHashJoinExec`.
        """
        store = ctx.scheduler.block_store
        table, build_bytes = _hash_build(
            (key, row) for p in range(stats.num_partitions)
            for key, __side, row in store.fetch(stats.shuffle_id, p))
        ctx.charge_driver(
            stats.total_bytes / ctx.cost.shuffle_bytes_per_sec,
            "engine.shuffle_read_bytes", stats.total_bytes,
        )
        _charge_broadcast(ctx, build_bytes)
        ctx.metrics.incr("engine.aqe.broadcast_conversions", 1)
        ctx.record_reopt(self, "broadcast-conversion", detail)
        ctx.record_operator(self, final_strategy=final_strategy)
        return table

    def _shuffled_with_layout(self, ctx: ExecContext,
                              stats_l: ShuffleRuntimeStats,
                              stats_r: ShuffleRuntimeStats,
                              per_row: float, num_parts: int) -> RDD:
        """Rule 2: the shuffled join, its skewed reduce partitions split.

        Skewed stream partitions split into per-chunk tasks (the build
        partition is duplicated into each chunk, so every stream row still
        sees the full build table -- correct for all supported join types
        because out rows derive from exactly one stream row).  A chunk is
        sized like the stage's median partition, so the split tasks finish
        with their siblings, and never below the bytes whose shuffle read
        takes as long as launching the task that reads them.
        """
        stream_bytes = stats_l.partition_bytes
        ordered = sorted(stream_bytes)
        median = ordered[len(ordered) // 2]
        chunk_bytes = max(
            median, ctx.cost.task_launch_s * ctx.cost.shuffle_bytes_per_sec)
        specs: List[List[ReadSpec]] = []
        splits = 0
        for p in range(num_parts):
            skewed = (stream_bytes[p] > SKEW_MIN_BYTES
                      and stream_bytes[p] > SKEW_FACTOR * max(median, 1))
            chunks = plan_skew_chunks(stats_l, p, chunk_bytes) if skewed else []
            if len(chunks) > 1:
                for maps in chunks:
                    specs.append([
                        (stats_l.shuffle_id, p, frozenset(maps)),
                        (stats_r.shuffle_id, p, None),
                    ])
                splits += 1
                detail = (f"partition {p} ({stream_bytes[p]}B > "
                          f"{SKEW_FACTOR:g}x median {median}B) split into "
                          f"{len(chunks)} tasks")
                hot = stats_l.hot_key(p)
                if hot is not None:
                    detail += f"; hot key {hot[0]!r} ~{int(hot[1])}B"
                ctx.record_reopt(self, "skew-split", detail)
                continue
            specs.append([(stats_l.shuffle_id, p, None),
                          (stats_r.shuffle_id, p, None)])
        if splits:
            ctx.metrics.incr("engine.aqe.skew_splits", splits)
        ctx.record_operator(
            self, final_strategy=f"ShuffledHashJoin ({len(specs)} tasks)",
            aqe_partitions=len(specs),
        )
        rdd = ShuffleReadRDD(specs, post_shuffle=self._reducer(per_row))
        rdd.scope = self.op_id
        return rdd
