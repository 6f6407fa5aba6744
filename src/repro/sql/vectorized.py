"""The session root's adapter: rows out of a plan that runs on batches.

Every physical operator hands out :class:`~repro.sql.columnar.RecordBatch`
column vectors (:mod:`repro.sql.physical`), so no edge inside a plan
changes format.  Rows appear only where work leaves a task -- an exchange
or a driver sub-job, which each operator unpacks and packs itself -- and
at the root, where the session collects and the write sink inserts row
tuples.  :func:`insert_transitions` finishes a planned tree: one
:class:`ColumnarToRowExec` on its root, and every operator numbered.  See
docs/vectorized.md.
"""

from __future__ import annotations

from repro.engine.rdd import RDD
from repro.sql import columnar as C
from repro.sql import physical as P


class ColumnarToRowExec(P.PhysicalPlan):
    """The root: unpack the plan's batches into the row tuples the session
    collects and the write sink inserts."""

    def __init__(self, child: P.PhysicalPlan) -> None:
        super().__init__(child.output, [child])

    def execute(self, ctx: P.ExecContext) -> RDD:
        return self.children[0].execute(ctx).map_partitions(
            lambda batches, task_ctx: C.rows_from_batches(batches))

    def describe(self) -> str:
        return "ColumnarToRow"


def insert_transitions(root: P.PhysicalPlan) -> P.PhysicalPlan:
    """Finish a planned tree: put a :class:`ColumnarToRowExec` on ``root``
    unless it is one, number every operator 1..n in pre-order (``op_id``)
    and return the new root.  Finishing a finished tree changes nothing."""
    if not isinstance(root, ColumnarToRowExec):
        root = ColumnarToRowExec(root)
    for op_id, op in enumerate(root.walk(), 1):
        op.op_id = op_id
    return root


__all__ = ["ColumnarToRowExec", "insert_transitions"]
