from repro.core.partitions import build_partitions
from repro.core.ranges import ScanRange
from repro.hbase.master import RegionLocation


def locations():
    """Four regions on two servers: [,g) [g,n) [n,t) [t,)."""
    bounds = [(b"", b"g"), (b"g", b"n"), (b"n", b"t"), (b"t", b"")]
    out = []
    for i, (start, end) in enumerate(bounds):
        server = f"rs{i % 2}"
        out.append(RegionLocation(f"region{i}", "t", start, end, server,
                                  f"host{i % 2}"))
    return out


def test_full_scan_covers_every_region_fused_by_server():
    partitions = build_partitions(locations(), [ScanRange()])
    assert len(partitions) == 2  # one per region server
    regions = [w.location.region_name for p in partitions for w in p.work]
    assert sorted(regions) == ["region0", "region1", "region2", "region3"]


def test_pruning_skips_non_overlapping_regions():
    partitions = build_partitions(locations(), [ScanRange(b"h", b"i")])
    regions = [w.location.region_name for p in partitions for w in p.work]
    assert regions == ["region1"]


def test_range_clamped_to_region_bounds():
    partitions = build_partitions(locations(), [ScanRange(b"e", b"k")])
    ranges = {
        w.location.region_name: w.ranges
        for p in partitions for w in p.work
    }
    assert ranges["region0"][0] == ScanRange(b"e", b"g")
    assert ranges["region1"][0] == ScanRange(b"g", b"k")


def test_empty_ranges_mean_no_partitions():
    assert build_partitions(locations(), []) == []


def test_fusion_disabled_one_partition_per_scan():
    ranges = [ScanRange(b"a", b"b"), ScanRange(b"h", b"i")]
    fused = build_partitions(locations(), ranges, fusion_enabled=True)
    unfused = build_partitions(locations(), ranges, fusion_enabled=False)
    assert len(unfused) == 2
    assert len(fused) == 2  # both scans happen to hit different servers
    multi = build_partitions(
        locations(), [ScanRange(b"a", b"b"), ScanRange(b"o", b"p")],
        fusion_enabled=True,
    )
    assert len(multi) == 1  # region0 and region2 share rs0 -> fused


def test_point_ranges_counted_as_gets():
    partitions = build_partitions(
        locations(), [ScanRange(b"h", b"h\x00", point=True), ScanRange(b"a", b"c")]
    )
    gets = sum(p.num_gets() for p in partitions)
    scans = sum(p.num_scans() for p in partitions)
    assert gets == 1 and scans == 1


def test_partition_hosts_follow_servers():
    partitions = build_partitions(locations(), [ScanRange()])
    for p in partitions:
        for w in p.work:
            assert w.location.host == p.host


# -- replica routing: the same builder, with a candidate map ------------------

BLOCK_KEYS = [b"b", b"c", b"d", b"e", b"i", b"k"]   # every file's block starts
BLOCK_BYTES = 100


def split_keys(location, lo, hi):
    return [k for k in BLOCK_KEYS if k > lo and (hi is None or k < hi)]


def estimate_bytes(location, scan_range):
    """One block per start key the range covers, plus the block it starts in."""
    return BLOCK_BYTES * (1 + len(split_keys(
        location, scan_range.start, scan_range.stop)))


def secondary_of(location, server, host):
    return RegionLocation(location.region_name, location.table_name,
                          location.start_row, location.end_row, server, host,
                          replica_id=1)


def test_an_empty_candidate_map_is_the_plain_builder():
    ranges = [ScanRange(b"a", b"b"), ScanRange(b"h", b"i"), ScanRange(b"o", b"p")]

    def never(*args):
        raise AssertionError("replica routing is off: nothing to balance")

    for fused in (True, False):
        assert build_partitions(locations(), ranges, fused, {},
                                split_keys=never, estimate_bytes=never) \
            == build_partitions(locations(), ranges, fused)


def test_a_single_candidate_keeps_the_region_whole():
    locs = locations()
    candidates = {loc.region_name: [loc] for loc in locs}
    assert build_partitions(locs, [ScanRange()], True, candidates,
                            split_keys, estimate_bytes) \
        == build_partitions(locs, [ScanRange()])


def test_two_candidates_split_the_region_at_a_block_start_key():
    region0 = locations()[0]
    whole = ScanRange(b"", b"g")
    candidates = {"region0": [region0, secondary_of(region0, "rs9", "host9")]}
    partitions = build_partitions([region0], [whole], True, candidates,
                                  split_keys, estimate_bytes)
    assert [p.server_id for p in partitions] == ["rs0", "rs9"]
    assert [p.host for p in partitions] == ["host0", "host9"]
    pieces = sorted((r for p in partitions for w in p.work for r in w.ranges),
                    key=lambda r: r.start)
    # cut once, at the middle block start key: the pieces tile the range...
    assert pieces == [ScanRange(b"", b"d"), ScanRange(b"d", b"g")]
    # ...and weigh together what the unsplit range weighs
    assert sum(estimate_bytes(region0, r) for r in pieces) \
        == estimate_bytes(region0, whole)
    # the secondary's share says so: the read names its replica
    (secondary,) = [w.location for p in partitions for w in p.work
                    if w.location.replica_id]
    assert secondary.server_id == "rs9"


def test_pieces_go_to_the_least_loaded_candidate():
    """region0 lives on rs0 alone and weighs on it, so both pieces of
    region1 stay on its primary, rs1, though rs0 holds a copy."""
    region0, region1 = locations()[:2]
    candidates = {"region1": [region1, secondary_of(region1, "rs0", "host0")]}

    def weigh(location, scan_range):
        return 10_000 if location is region0 else estimate_bytes(location, scan_range)

    partitions = build_partitions([region0, region1], [ScanRange(b"", b"n")],
                                  True, candidates, split_keys, weigh)
    assert {p.server_id: [(w.location.region_name, w.ranges) for w in p.work]
            for p in partitions} == {
        "rs0": [("region0", (ScanRange(b"", b"g"),))],
        "rs1": [("region1", (ScanRange(b"g", b"k"),)),
                ("region1", (ScanRange(b"k", b"n"),))],
    }


def test_a_range_with_no_block_key_inside_is_not_split():
    region0 = locations()[0]
    candidates = {"region0": [region0, secondary_of(region0, "rs9", "host9")]}
    partitions = build_partitions([region0], [ScanRange(b"a", b"aa")], True,
                                  candidates, split_keys, estimate_bytes)
    assert [(p.server_id, p.work[0].ranges) for p in partitions] \
        == [("rs0", (ScanRange(b"a", b"aa"),))]
