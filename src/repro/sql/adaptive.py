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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.rdd import RDD, ShuffleReadRDD
from repro.engine.shuffle import ShuffleRuntimeStats, estimate_size
from repro.sql import expressions as E
from repro.sql.physical import (
    ExecContext,
    PhysicalPlan,
    _combine_rows,
    _join_output,
    _make_broadcast_probe,
    _make_join_reducer,
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


class AdaptiveJoinExec(PhysicalPlan):
    """Equi-join whose strategy is finalised at runtime, not plan time.

    Planned where the compile-time planner would emit a
    :class:`~repro.sql.physical.ShuffledHashJoinExec`.  Both inputs sit
    behind :class:`QueryStageExec` barriers; executing materialises the
    build-side exchange first and then picks, from measured bytes: broadcast
    conversion (rule 1, including the swapped inner-join variant) or the
    shuffled join, its skewed partitions split (rule 2).
    Join closures are shared with the static operators, so rows, bytes and
    ledger charges are computed identically whichever strategy wins.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan,
                 left_keys: Sequence[E.Expression],
                 right_keys: Sequence[E.Expression],
                 how: str, residual: Optional[E.Expression]) -> None:
        super().__init__(_join_output(left, right, how),
                         [QueryStageExec(left), QueryStageExec(right)])
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.how = how
        self.residual = residual

    def describe(self) -> str:
        return f"AdaptiveJoin({self.how}, {self.left_keys!r} = {self.right_keys!r})"

    def execute(self, ctx: ExecContext) -> RDD:
        self._record_cbo_estimate(ctx)
        left_stage, right_stage = self.children
        bound_left = [E.bind_expression(k, left_stage.output) for k in self.left_keys]
        bound_right = [E.bind_expression(k, right_stage.output) for k in self.right_keys]
        left_width = len(left_stage.output)
        right_width = len(right_stage.output)
        combined_attrs = list(left_stage.output) + list(right_stage.output)
        residual_bound = (
            E.bind_expression(self.residual, combined_attrs)
            if self.residual is not None else None
        )
        how = self.how
        per_row = ctx.cost.row_cpu_s
        num_parts = ctx.shuffle_partitions()
        threshold = int(ctx.conf.get("sql.autoBroadcastJoinThreshold", 128 * 1024))
        ctx.record_operator(self, initial_strategy="ShuffledHashJoin")

        def on_output(rows_out: int, bytes_out: int) -> None:
            ctx.accumulate_operator(self, rows_out=rows_out, bytes_out=bytes_out)

        # stage barrier 1: materialise the build (right) side's exchange
        shuffled_r = right_stage.execute(ctx).map_partitions(
            _row_tagger(bound_right, 1, per_row)
        ).partition_by(num_parts, key_fn=lambda e: e[0])
        stats_r = ctx.materialize_stage(shuffled_r)

        # rule 1: the build side measured small -> broadcast instead
        if stats_r.total_bytes <= threshold:
            table = self._collect_build_table(ctx, stats_r)
            ctx.metrics.incr("engine.aqe.broadcast_conversions", 1)
            ctx.record_reopt(
                self, "broadcast-conversion",
                f"build side wrote {stats_r.total_bytes}B "
                f"<= threshold {threshold}B",
            )
            ctx.record_operator(self, final_strategy="BroadcastHashJoin")
            probe = _make_broadcast_probe(
                table, bound_left, how, left_width, right_width,
                residual_bound, per_row, on_output,
            )
            # like the static broadcast join, the probe pipelines inside the
            # stream side's stage -- no scope stamp of its own
            return left_stage.execute(ctx).map_partitions(probe)

        # stage barrier 2: materialise the stream (left) side's exchange
        shuffled_l = left_stage.execute(ctx).map_partitions(
            _row_tagger(bound_left, 0, per_row)
        ).partition_by(num_parts, key_fn=lambda e: e[0])
        stats_l = ctx.materialize_stage(shuffled_l)

        # rule 1 (swapped): inner joins can build on a small *left* side and
        # stream the already-shuffled right side against it
        if how == "inner" and stats_l.total_bytes <= threshold:
            return self._swapped_broadcast(
                ctx, stats_l, stats_r, residual_bound,
                left_width, right_width, per_row, threshold, on_output,
            )

        # rule 2: shuffled join, skewed reduce partitions split
        return self._shuffled_with_layout(
            ctx, stats_l, stats_r, how, left_width, right_width,
            residual_bound, per_row, num_parts, on_output,
        )

    def _collect_build_table(
        self, ctx: ExecContext, stats: ShuffleRuntimeStats
    ) -> Dict[tuple, List[tuple]]:
        """Gather a materialised (tagged) shuffle into a broadcast table.

        The blocks already paid their shuffle *write*; collecting them at
        the driver charges the read, and shipping the build table to every
        executor charges broadcast volume exactly like the static
        :class:`~repro.sql.physical.BroadcastHashJoinExec`.
        """
        store = ctx.scheduler.block_store
        table: Dict[tuple, List[tuple]] = {}
        build_bytes = 0
        for p in range(stats.num_partitions):
            for key, __side, row in store.fetch(stats.shuffle_id, p):
                build_bytes += estimate_size(row)
                if None not in key:
                    table.setdefault(key, []).append(row)
        ctx.charge_driver(
            stats.total_bytes / ctx.cost.shuffle_bytes_per_sec,
            "engine.shuffle_read_bytes", stats.total_bytes,
        )
        executors = len(ctx.scheduler.cluster.executors)
        ctx.charge_driver(
            build_bytes * executors / ctx.cost.network_bytes_per_sec,
            "engine.broadcast_bytes", build_bytes * executors,
        )
        return table

    def _swapped_broadcast(self, ctx: ExecContext,
                           stats_l: ShuffleRuntimeStats,
                           stats_r: ShuffleRuntimeStats,
                           residual_bound, left_width: int, right_width: int,
                           per_row: float, threshold: int, on_output) -> RDD:
        """Rule 1's swapped variant: broadcast the small left, stream right."""
        table = self._collect_build_table(ctx, stats_l)
        ctx.metrics.incr("engine.aqe.broadcast_conversions", 1)
        ctx.record_reopt(
            self, "broadcast-conversion",
            f"left side wrote {stats_l.total_bytes}B <= threshold "
            f"{threshold}B; sides swapped",
        )
        ctx.record_operator(
            self, final_strategy="BroadcastHashJoin (build side swapped)")
        specs: List[List[ReadSpec]] = [
            [(stats_r.shuffle_id, p, None)]
            for p in range(stats_r.num_partitions)
        ]

        def probe_tagged(entries, task_ctx):
            out_count = 0
            out_bytes = 0
            for key, __side, right_row in entries:
                matches = table.get(key, []) if None not in key else []
                for left_row in matches:
                    combined = _combine_rows(left_row, right_row,
                                             left_width, right_width)
                    if residual_bound is None or residual_bound.eval(combined) is True:
                        out_count += 1
                        out_bytes += estimate_size(combined)
                        yield combined
            task_ctx.ledger.count("engine.join.rows_out", out_count)
            task_ctx.ledger.count("engine.join.bytes_out", out_bytes)
            on_output(out_count, out_bytes)
            task_ctx.ledger.charge(per_row * out_count,
                                   "engine.rows_processed", out_count)

        rdd = ShuffleReadRDD(specs, post_shuffle=probe_tagged)
        rdd.scope = self.op_id
        return rdd

    def _shuffled_with_layout(self, ctx: ExecContext,
                              stats_l: ShuffleRuntimeStats,
                              stats_r: ShuffleRuntimeStats,
                              how: str, left_width: int, right_width: int,
                              residual_bound, per_row: float, num_parts: int,
                              on_output) -> RDD:
        """Rule 2: the shuffled join, its skewed reduce partitions split.

        Skewed stream partitions split into per-chunk tasks (the build
        partition is duplicated into each chunk, so every stream row still
        sees the full build table -- correct for all supported join types
        because out rows derive from exactly one stream row).  A chunk is
        sized like the stage's median partition, so the split tasks finish
        with their siblings, and never below the bytes whose shuffle read
        takes as long as launching the task that reads them.
        """
        reducer = _make_join_reducer(how, left_width, right_width,
                                     residual_bound, per_row, on_output)
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
        rdd = ShuffleReadRDD(specs, post_shuffle=reducer)
        rdd.scope = self.op_id
        return rdd
