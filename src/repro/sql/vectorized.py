"""Batch/row adapters: the explicit seams of the batch execution model.

Scans, filters, projections, aggregate builds and hash-join key evaluation
exchange :class:`~repro.sql.columnar.RecordBatch` column vectors
(:mod:`repro.sql.physical`).  Consumers that are inherently row-ordered --
sorts, limits, set operators, nested-loop / adaptive joins, the write
sink and the session root -- read row tuples.  Wherever a producer's
format differs from what its consumer reads, the planner calls
:func:`adapt`, which inserts :class:`ColumnarToRowExec`
or :class:`RowToColumnarExec`: a format change is always a visible plan
node, never implicit.  Each adapter counts one
``engine.vectorized.transitions`` per partition it converts, scoped to
itself, which is what its EXPLAIN ANALYZE note reads.  See docs/vectorized.md.
"""

from __future__ import annotations

from repro.engine.rdd import RDD
from repro.sql import columnar as C
from repro.sql import physical as P


class RowToColumnarExec(P.PhysicalPlan):
    """Transition: pack a row stream into column batches inside the task."""

    columnar_output = True

    def __init__(self, child: P.PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: P.ExecContext) -> RDD:
        width = len(self.output)
        batch_size = C.BATCH_SIZE

        def to_batches(rows, task_ctx):
            try:
                yield from C.batches_from_rows(rows, width, batch_size)
            except GeneratorExit:  # booked like exhaustion: physical.py, "Book-keeping tails"
                pass
            task_ctx.ledger.count("engine.vectorized.transitions", 1, self.op_id)

        return self.children[0].execute(ctx).map_partitions(to_batches)

    def describe(self) -> str:
        return "RowToColumnar"


class ColumnarToRowExec(P.PhysicalPlan):
    """Transition: unpack column batches back into row tuples."""

    def __init__(self, child: P.PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: P.ExecContext) -> RDD:
        def to_rows(batches, task_ctx):
            try:
                for batch in batches:
                    yield from batch.to_rows()
            except GeneratorExit:  # booked like exhaustion: physical.py, "Book-keeping tails"
                pass
            task_ctx.ledger.count("engine.vectorized.transitions", 1, self.op_id)

        return self.children[0].execute(ctx).map_partitions(to_rows)

    def describe(self) -> str:
        return "ColumnarToRow"


def adapt(child: P.PhysicalPlan, columnar: bool) -> P.PhysicalPlan:
    """``child`` in the format its consumer reads (``columnar`` batches or
    rows), behind a transition node when it produces the other one."""
    if child.columnar_output == columnar:
        return child
    return RowToColumnarExec(child) if columnar else ColumnarToRowExec(child)


__all__ = ["ColumnarToRowExec", "RowToColumnarExec", "adapt"]
