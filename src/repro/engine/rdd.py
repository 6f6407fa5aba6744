"""Resilient Distributed Datasets: lineage-carrying partitioned collections.

The paper's connector is literally "a standard RDD" that re-implements
``getPartitions``, ``getPreferredLocations`` and ``compute`` (section V.A),
so the substrate exposes exactly that contract.  Narrow transformations
(map/filter/mapPartitions) pipeline inside one task; wide ones
(:class:`ShuffledRDD`) introduce a stage boundary the scheduler materialises
through the shuffle block store.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.scheduler import TaskContext


class Partition:
    """Identifies one slice of an RDD."""

    def __init__(self, index: int, payload: object = None) -> None:
        self.index = index
        self.payload = payload

    def __repr__(self) -> str:
        return f"Partition({self.index})"


class RDD:
    """Base class.  Subclasses define partitions, locality and compute."""

    _ids = itertools.count(1)

    def __init__(self, parents: Sequence["RDD"] = ()) -> None:
        self.rdd_id = next(RDD._ids)
        self.parents: Tuple[RDD, ...] = tuple(parents)

    # -- the three methods the paper's HBaseTableScanRDD overrides ---------
    def partitions(self) -> List[Partition]:
        raise NotImplementedError

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        """Hosts where computing ``partition`` avoids network transfer."""
        if self.parents:
            return self.parents[0].preferred_locations(partition)
        return ()

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        raise NotImplementedError

    # -- transformations -----------------------------------------------------
    def map(self, fn: Callable[[object], object]) -> "RDD":
        return MapPartitionsRDD(self, lambda rows, ctx: (fn(r) for r in rows))

    def filter(self, predicate: Callable[[object], bool]) -> "RDD":
        return MapPartitionsRDD(self, lambda rows, ctx: (r for r in rows if predicate(r)))

    def map_partitions(
        self, fn: Callable[[Iterable[object], "TaskContext"], Iterable[object]]
    ) -> "RDD":
        return MapPartitionsRDD(self, fn)

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD([self, other])

    def partition_by(
        self,
        num_partitions: int,
        key_fn: Callable[[object], object],
        post_shuffle: Optional[Callable[[Iterable[object], "TaskContext"], Iterable[object]]] = None,
    ) -> "ShuffledRDD":
        """Hash-repartition by key -- a wide dependency / stage boundary."""
        return ShuffledRDD(self, num_partitions, key_fn, post_shuffle)

    def coalesce_to_driver(self) -> "ShuffledRDD":
        """Gather everything into a single partition (for final results)."""
        return ShuffledRDD(self, 1, lambda row: 0, None)


class ParallelCollectionRDD(RDD):
    """Driver-side data distributed into ``num_partitions`` slices."""

    def __init__(self, data: Sequence[object], num_partitions: int = 4,
                 hosts: Sequence[str] = ()) -> None:
        super().__init__()
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self._slices: List[List[object]] = [[] for __ in range(num_partitions)]
        for i, row in enumerate(data):
            self._slices[i % num_partitions].append(row)
        self._hosts = list(hosts)

    def partitions(self) -> List[Partition]:
        return [Partition(i) for i in range(len(self._slices))]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        if not self._hosts:
            return ()
        return (self._hosts[partition.index % len(self._hosts)],)

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        return iter(self._slices[partition.index])


class MapPartitionsRDD(RDD):
    """Narrow transformation: runs inside the parent's task (pipelined)."""

    def __init__(
        self,
        parent: RDD,
        fn: Callable[[Iterable[object], "TaskContext"], Iterable[object]],
    ) -> None:
        super().__init__([parent])
        self._fn = fn

    def partitions(self) -> List[Partition]:
        return self.parents[0].partitions()

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        return iter(self._fn(self.parents[0].compute(partition, ctx), ctx))


class UnionRDD(RDD):
    """Concatenation of the parents' partitions (narrow)."""

    def __init__(self, parents: Sequence[RDD]) -> None:
        super().__init__(parents)

    def partitions(self) -> List[Partition]:
        out: List[Partition] = []
        index = 0
        for parent_pos, parent in enumerate(self.parents):
            for child in parent.partitions():
                out.append(Partition(index, payload=(parent_pos, child)))
                index += 1
        return out

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        parent_pos, child = partition.payload
        return self.parents[parent_pos].preferred_locations(child)

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        parent_pos, child = partition.payload
        return self.parents[parent_pos].compute(child, ctx)


class ShuffledRDD(RDD):
    """Wide dependency: rows are hash-bucketed by key across the exchange.

    ``post_shuffle`` (if given) runs over each reduce partition after the
    fetch -- aggregation and join operators live there.
    """

    _shuffle_ids = itertools.count(1)

    def __init__(
        self,
        parent: RDD,
        num_partitions: int,
        key_fn: Callable[[object], object],
        post_shuffle: Optional[Callable[[Iterable[object], "TaskContext"], Iterable[object]]],
    ) -> None:
        super().__init__([parent])
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.key_fn = key_fn
        self.post_shuffle = post_shuffle
        self.shuffle_id = next(ShuffledRDD._shuffle_ids)

    def partitions(self) -> List[Partition]:
        return [Partition(i) for i in range(self.num_partitions)]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        return ()  # reduce tasks fetch from everywhere

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        # fetch_shuffle streams block by block; post_shuffle operators that
        # stop early (LIMIT) therefore never pull -- or pay for -- the rest
        rows = ctx.fetch_shuffle(self.shuffle_id, partition.index)
        if self.post_shuffle is None:
            return iter(rows)
        return iter(self.post_shuffle(rows, ctx))


class ShuffleReadRDD(RDD):
    """Reduce side of an *adaptively re-planned* exchange.

    Where :class:`ShuffledRDD` reads exactly one reduce partition of one
    shuffle per task, this RDD's partitions are arbitrary groups of
    ``(shuffle_id, reduce_partition, map_ids)`` read specs: the adaptive
    join reads the same reduce partition of both its shuffles in one task,
    or splits a skewed partition into several tasks that each fetch a
    disjoint ``map_ids`` subset (docs/adaptive.md).  It has no lineage parents -- the
    caller guarantees every referenced shuffle is already materialised in
    the block store (that is what the stage barrier did).
    """

    def __init__(
        self,
        specs: Sequence[Sequence[Tuple[int, int, Optional[frozenset]]]],
        post_shuffle: Optional[Callable[[Iterable[object], "TaskContext"], Iterable[object]]] = None,
    ) -> None:
        super().__init__()
        self._specs: List[List[Tuple[int, int, Optional[frozenset]]]] = [
            list(group) for group in specs
        ] or [[]]
        self.post_shuffle = post_shuffle

    def partitions(self) -> List[Partition]:
        return [Partition(i) for i in range(len(self._specs))]

    def preferred_locations(self, partition: Partition) -> Sequence[str]:
        return ()  # like reduce tasks, these fetch from everywhere

    def compute(self, partition: Partition, ctx: "TaskContext") -> Iterator[object]:
        specs = self._specs[partition.index]

        def fetch() -> Iterator[object]:
            for shuffle_id, reduce_partition, map_ids in specs:
                yield from ctx.fetch_shuffle(shuffle_id, reduce_partition,
                                             map_ids=map_ids)

        rows = fetch()
        if self.post_shuffle is None:
            return rows
        return iter(self.post_shuffle(rows, ctx))
