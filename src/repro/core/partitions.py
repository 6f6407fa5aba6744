"""Region-aligned RDD partitions with pruning and operator fusion.

Section VI.A: the driver intersects the query's scan ranges with the
regions' ``[start, end)`` boundaries -- regions overlapping no range get *no
task* (partition pruning) -- then packs all the Scans/Gets destined for one
Region Server into a single partition (operator fusion), so the number of
tasks equals the number of involved servers, not the number of ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.ranges import ScanRange
from repro.hbase.master import RegionLocation


@dataclass(frozen=True)
class RegionWork:
    """Scans/Gets to run against one region."""

    location: RegionLocation
    ranges: Tuple[ScanRange, ...]


@dataclass(frozen=True)
class HBaseScanPartition:
    """The payload of one HBaseTableScanRDD partition."""

    index: int
    server_id: str
    host: str
    work: Tuple[RegionWork, ...]

    def num_scans(self) -> int:
        return sum(1 for w in self.work for r in w.ranges if not r.point)

    def num_gets(self) -> int:
        return sum(1 for w in self.work for r in w.ranges if r.point)


def build_partitions(
    locations: Sequence[RegionLocation],
    ranges: Sequence[ScanRange],
    fusion_enabled: bool = True,
    candidates: Optional[Dict[str, List[RegionLocation]]] = None,
    split_keys: Optional[Callable[[RegionLocation, bytes, Optional[bytes]],
                                  List[bytes]]] = None,
    estimate_bytes: Optional[Callable[[RegionLocation, ScanRange], int]] = None,
) -> List[HBaseScanPartition]:
    """Prune regions against ranges, route the survivors' work to the
    servers that will do it, and group it into partitions.

    ``candidates`` maps a region name to the locations eligible to serve
    it, primary first (``ReplicationManager.read_candidates``).  It is empty
    when replica routing is off: every region is then read whole, where it
    lives, and ``split_keys`` / ``estimate_bytes`` are never called.
    """
    works: List[RegionWork] = []
    for location in locations:
        clamped = []
        for scan_range in ranges:
            if scan_range.overlaps_region(location.start_row, location.end_row):
                clipped = scan_range.clamp_to_region(location.start_row, location.end_row)
                if clipped is not None:
                    clamped.append(clipped)
        if clamped:  # regions with no overlapping range get no task at all
            works.append(RegionWork(location, tuple(clamped)))
    if candidates:
        works = _spread(works, candidates, split_keys, estimate_bytes)

    if fusion_enabled:
        by_server: Dict[str, List[RegionWork]] = {}
        for work in works:
            by_server.setdefault(work.location.server_id, []).append(work)
        groups = [tuple(group) for __, group in sorted(by_server.items())]
    else:
        # one task per Scan/Get, the unfused baseline of section VI.A.4
        groups = [(RegionWork(work.location, (scan_range,)),)
                  for work in works for scan_range in work.ranges]
    return [
        HBaseScanPartition(index, group[0].location.server_id,
                           group[0].location.host, group)
        for index, group in enumerate(groups)
    ]


def _spread(works, candidates, split_keys, estimate_bytes) -> List[RegionWork]:
    """Replica routing: hand each region's work to its candidate servers.

    A region with more than one candidate has its clamped ranges *split* at
    store-file block boundaries (``split_keys``) into one piece per
    candidate, and the pieces are spread greedily -- largest first onto the
    least-loaded candidate server -- so a hot region's scan parallelises
    across its replica hosts instead of serialising on the primary.  A
    region with a single candidate stays whole and only weighs on its
    server.
    """
    #: bytes of scan work assigned per server, across all regions
    load: Dict[str, int] = {}
    spread: List[RegionWork] = []
    for work in works:
        location = work.location
        cands = candidates.get(location.region_name) or [location]
        for cand in cands:
            load.setdefault(cand.server_id, 0)
        pieces = [(r, estimate_bytes(location, r)) for r in work.ranges]
        if len(cands) == 1:
            spread.append(work)
            load[location.server_id] += sum(nbytes for __, nbytes in pieces)
            continue
        # up to len(cands) block-aligned pieces: repeatedly halve the
        # largest splittable one at the middle block start key inside it
        exhausted: set = set()
        while len(pieces) < len(cands):
            splittable = [p for p in pieces
                          if not p[0].point and id(p[0]) not in exhausted]
            if not splittable:
                break
            rng, nbytes = min(splittable, key=lambda p: (-p[1], p[0].start))
            inside = [k for k in split_keys(location, rng.start, rng.stop)
                      if k > rng.start and (rng.stop is None or k < rng.stop)]
            if not inside:
                exhausted.add(id(rng))
                continue
            mid = inside[len(inside) // 2]
            pieces.remove((rng, nbytes))
            for part in (ScanRange(rng.start, mid), ScanRange(mid, rng.stop)):
                pieces.append((part, estimate_bytes(location, part)))
        # greedy LPT: biggest piece onto the least-loaded candidate server
        for rng, nbytes in sorted(pieces, key=lambda p: (-p[1], p[0].start)):
            target = min(cands, key=lambda c: (load[c.server_id],
                                               c.replica_id, c.server_id))
            load[target.server_id] += nbytes
            spread.append(RegionWork(target, (rng,)))
    return spread
