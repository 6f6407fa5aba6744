"""Batch/row adapters: the explicit seams of the batch execution model.

Scans, filters, projections, aggregate builds and hash-join key evaluation
exchange :class:`~repro.sql.columnar.RecordBatch` column vectors
(:mod:`repro.sql.physical`).  Consumers that are inherently row-ordered --
sorts, limits, set operators, nested-loop / adaptive joins, the write
sink and the session root -- read row tuples.  Every operator declares the
format it reads each child in (``PhysicalPlan.child_formats``), and one
rule, :func:`insert_transitions`, applied once to a planned tree, puts a
:class:`ColumnarToRowExec` or :class:`RowToColumnarExec` on every edge
whose child produces the other format: a format change is always a visible
plan node, never implicit.  Each adapter counts one
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

    child_formats = (True,)

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


def insert_transitions(root: P.PhysicalPlan) -> P.PhysicalPlan:
    """The one rule that places transitions and finishes a tree: below
    every operator, each child in the format the operator reads it in
    (``child_formats``), and the root as rows.  A child producing the other
    format gets an adapter; the tree is rewritten in place, numbered 1..n
    in pre-order (``op_id``), and its root returned.  Running the rule on
    its own result changes nothing: an adapter reads its child's format."""
    def place(op: P.PhysicalPlan, batches: bool) -> P.PhysicalPlan:
        reads = op.child_formats
        op.children = [place(child, i < len(reads) and reads[i])
                       for i, child in enumerate(op.children)]
        if op.columnar_output == batches:
            return op
        return RowToColumnarExec(op) if batches else ColumnarToRowExec(op)

    root = place(root, False)
    for op_id, op in enumerate(root.walk(), 1):
        op.op_id = op_id
    return root


__all__ = ["ColumnarToRowExec", "RowToColumnarExec", "insert_transitions"]
