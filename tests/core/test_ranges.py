import json

from hypothesis import given, strategies as st
import pytest

from repro.core.catalog import HBaseTableCatalog
from repro.core.coders import get_coder
from repro.core.keys import RowCodec
from repro.core.partitions import build_partitions
from repro.core.ranges import (
    FULL_SCAN,
    RangeBuilder,
    ScanRange,
    intersect_range_lists,
    merge_ranges,
)
from repro.hbase.master import RegionLocation
from repro.sql import sources as S


def catalog_single(coder="PrimitiveType", key_type="int"):
    return HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": key_type},
            "v": {"cf": "f", "col": "v", "type": "double"},
        },
    }))


def catalog_composite(coder="PrimitiveType"):
    return HBaseTableCatalog.from_json(json.dumps({
        "table": {"namespace": "default", "name": "t", "tableCoder": coder},
        "rowkey": "k1:k2",
        "columns": {
            "k1": {"cf": "rowkey", "col": "k1", "type": "int"},
            "k2": {"cf": "rowkey", "col": "k2", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "double"},
        },
    }))


def builder(catalog, **kwargs):
    return RangeBuilder(RowCodec(catalog), **kwargs)


# -- ScanRange algebra -------------------------------------------------------

def test_scan_range_empty_detection():
    assert ScanRange(b"b", b"a").is_empty()
    assert ScanRange(b"a", b"a").is_empty()
    assert not ScanRange(b"a", b"b").is_empty()
    assert not ScanRange(b"a", None).is_empty()


def test_intersect():
    a = ScanRange(b"b", b"f")
    b = ScanRange(b"d", None)
    assert a.intersect(b) == ScanRange(b"d", b"f")
    assert a.intersect(ScanRange(b"f", b"g")) is None


def test_merge_overlapping_is_papers_union_example():
    # [a,b] U [c,d] with c < b  ->  [a,d]
    merged = merge_ranges([ScanRange(b"a", b"c"), ScanRange(b"b", b"d")])
    assert merged == [ScanRange(b"a", b"d")]


def test_intersect_lists_is_papers_intersection_example():
    # [a,b] n [c,d] with a < c < b  ->  [c,b]
    out = intersect_range_lists([ScanRange(b"a", b"c")], [ScanRange(b"b", b"d")])
    assert out == [ScanRange(b"b", b"c")]


def test_merge_keeps_disjoint_ranges():
    merged = merge_ranges([ScanRange(b"x", b"y"), ScanRange(b"a", b"b")])
    assert merged == [ScanRange(b"a", b"b"), ScanRange(b"x", b"y")]


def test_merge_unbounded_swallows():
    merged = merge_ranges([ScanRange(b"a", None), ScanRange(b"m", b"z")])
    assert merged == [ScanRange(b"a", None)]


@given(st.lists(
    st.tuples(st.binary(min_size=1, max_size=3), st.binary(min_size=1, max_size=3)),
    max_size=12,
))
def test_merge_properties(pairs):
    ranges = [ScanRange(min(a, b), max(a, b)) for a, b in pairs if a != b]
    merged = merge_ranges(ranges)
    # sorted, non-overlapping
    for earlier, later in zip(merged, merged[1:]):
        assert earlier.stop is not None and earlier.stop < later.start
    # coverage preserved for probe points
    for probe in {a for a, __ in pairs} | {b for __, b in pairs}:
        original = any(
            r.start <= probe and (r.stop is None or probe < r.stop) for r in ranges
        )
        now = any(
            r.start <= probe and (r.stop is None or probe < r.stop) for r in merged
        )
        assert original == now


def test_region_overlap_and_clamp():
    r = ScanRange(b"c", b"f")
    assert r.overlaps_region(b"", b"d")
    assert r.overlaps_region(b"e", b"")
    assert not r.overlaps_region(b"f", b"")
    assert not r.overlaps_region(b"", b"c")
    assert r.clamp_to_region(b"d", b"z") == ScanRange(b"d", b"f")
    assert r.clamp_to_region(b"f", b"z") is None


# -- filters -> ranges ----------------------------------------------------------

def test_equality_on_single_int_key_becomes_point():
    ranges = builder(catalog_single()).ranges_for_filters([S.EqualTo("k", 5)])
    assert len(ranges) == 1
    assert ranges[0].point


def test_range_predicate_prunes():
    b = builder(catalog_single())
    coder = get_coder("PrimitiveType")
    ranges = b.ranges_for_filters([S.GreaterThanOrEqual("k", 10),
                                   S.LessThan("k", 20)])
    lo = coder.encode(10, catalog_single().column("k").dtype)
    assert any(r.start == lo for r in ranges)


def test_contradictory_predicates_empty():
    b = builder(catalog_single())
    assert b.ranges_for_filters([S.GreaterThan("k", 10), S.LessThan("k", 5)]) == []


def test_or_with_non_key_predicate_is_full_scan():
    # the paper's example: rowkey1 > x OR column = y  ->  full scan
    b = builder(catalog_single())
    ranges = b.ranges_for_filters([
        S.Or(S.GreaterThan("k", 10), S.EqualTo("v", 1.0))
    ])
    assert ranges == list(FULL_SCAN)


def test_or_of_key_ranges_unions():
    b = builder(catalog_single())
    ranges = b.ranges_for_filters([
        S.Or(S.EqualTo("k", 1), S.EqualTo("k", 5))
    ])
    assert len(ranges) == 2


def test_adjacent_point_ranges_merge():
    # enc(1) and enc(2) are adjacent in byte space: one covering scan range
    b = builder(catalog_single())
    ranges = b.ranges_for_filters([
        S.Or(S.EqualTo("k", 1), S.EqualTo("k", 2))
    ])
    assert len(ranges) == 1
    assert not ranges[0].point


def test_in_on_key_becomes_points():
    ranges = builder(catalog_single()).ranges_for_filters([S.In("k", (9, 1, 5))])
    assert len(ranges) == 3


def test_non_key_filters_do_not_constrain():
    ranges = builder(catalog_single()).ranges_for_filters([S.EqualTo("v", 2.0)])
    assert ranges == list(FULL_SCAN)


def test_string_prefix_on_key():
    cat = catalog_single(key_type="string")
    ranges = builder(cat).ranges_for_filters([S.StringStartsWith("k", "user-")])
    assert ranges[0].start == b"user-"
    assert ranges[0].stop == b"user."


def test_composite_first_dimension_only_by_default():
    cat = catalog_composite()
    b = builder(cat)
    ranges = b.ranges_for_filters([S.EqualTo("k1", 7), S.EqualTo("k2", 3)])
    # pruning covers the k1 prefix; k2 does not narrow it further
    coder = get_coder("PrimitiveType")
    prefix = coder.encode(7, cat.column("k1").dtype)
    assert len(ranges) == 1
    assert ranges[0].start == prefix
    assert not ranges[0].point


def test_all_dimension_extension_builds_composite_point():
    cat = catalog_composite()
    b = builder(cat, prune_all_dimensions=True)
    ranges = b.ranges_for_filters([S.EqualTo("k1", 7), S.EqualTo("k2", 3)])
    assert len(ranges) == 1
    assert ranges[0].point
    coder = get_coder("PrimitiveType")
    expected = coder.encode(7, cat.column("k1").dtype) + \
        coder.encode(3, cat.column("k2").dtype)
    assert ranges[0].start == expected


def test_all_dimension_extension_with_trailing_range():
    cat = catalog_composite()
    b = builder(cat, prune_all_dimensions=True)
    narrow = b.ranges_for_filters([S.EqualTo("k1", 7), S.GreaterThanOrEqual("k2", 0)])
    wide = builder(cat).ranges_for_filters([S.EqualTo("k1", 7)])
    # with a leading equality + trailing range the span must be narrower
    def span(ranges):
        return sum(
            1 for r in ranges
        ), ranges[0].start
    assert narrow[0].start >= wide[0].start
    assert narrow[0].start > wide[0].start or narrow[0].stop != wide[0].stop


@given(st.lists(
    st.tuples(st.binary(min_size=1, max_size=2), st.binary(min_size=1, max_size=2)),
    min_size=1, max_size=6,
), st.lists(
    st.tuples(st.binary(min_size=1, max_size=2), st.binary(min_size=1, max_size=2)),
    min_size=1, max_size=6,
))
def test_intersect_lists_matches_pointwise(pairs_a, pairs_b):
    """intersect_range_lists == pointwise AND of coverage."""
    def mk(pairs):
        return merge_ranges([
            ScanRange(min(a, b), max(a, b)) for a, b in pairs if a != b
        ])

    lists_a, lists_b = mk(pairs_a), mk(pairs_b)
    out = intersect_range_lists(lists_a, lists_b)

    def covered(ranges, probe):
        return any(
            r.start <= probe and (r.stop is None or probe < r.stop)
            for r in ranges
        )

    probes = {p for a, b in pairs_a + pairs_b for p in (a, b)}
    probes |= {p + b"\x00" for p in probes}
    for probe in probes:
        assert covered(out, probe) == (
            covered(lists_a, probe) and covered(lists_b, probe)
        )


# -- a join's build keys as an In list (ROADMAP 2(a)) ------------------------

#: q39's date join at its real values: January 2001 as date surrogate keys
JANUARY = tuple(range(2451911, 2451942))


def _encode_k1(value, coder="PrimitiveType"):
    cat = catalog_composite(coder)
    return get_coder(coder).encode(value, cat.column("k1").dtype)


@pytest.mark.parametrize("coder", ["PrimitiveType", "Phoenix"])
def test_consecutive_keys_on_a_composite_key_merge_into_one_range(coder):
    ranges = builder(catalog_composite(coder)).ranges_for_filters(
        [S.In("k1", JANUARY)])
    # 31 key prefixes, each [enc(d), enc(d + 1)): adjacent, so one scan
    assert ranges == [ScanRange(_encode_k1(JANUARY[0], coder),
                                _encode_k1(JANUARY[-1] + 1, coder))]


def test_merged_keys_cost_one_range_per_region_not_one_per_key():
    ranges = builder(catalog_composite()).ranges_for_filters([S.In("k1", JANUARY)])
    splits = [b"", _encode_k1(JANUARY[10]), _encode_k1(JANUARY[20]),
              _encode_k1(JANUARY[-1] + 50), b""]
    regions = [RegionLocation(f"r{i}", "t", lo, hi, f"rs{i % 2}", f"h{i % 2}")
               for i, (lo, hi) in enumerate(zip(splits, splits[1:]))]
    work = [w for p in build_partitions(regions, ranges) for w in p.work]
    # the month spans three of the four regions: a range each, the last pruned
    assert sorted((w.location.region_name, len(w.ranges)) for w in work) == \
        [("r0", 1), ("r1", 1), ("r2", 1)]


def test_non_adjacent_keys_stay_separate_ranges():
    weekly = JANUARY[::7]
    ranges = builder(catalog_composite()).ranges_for_filters([S.In("k1", weekly)])
    assert ranges == [ScanRange(_encode_k1(d), _encode_k1(d + 1)) for d in weekly]
    # two runs with a gap between them: two ranges
    runs = JANUARY[:5] + JANUARY[9:12]
    ranges = builder(catalog_composite()).ranges_for_filters([S.In("k1", runs)])
    assert ranges == [ScanRange(_encode_k1(JANUARY[0]), _encode_k1(JANUARY[5])),
                      ScanRange(_encode_k1(JANUARY[9]), _encode_k1(JANUARY[12]))]


def test_pushed_keys_intersect_the_statements_own_range_never_widen_it():
    between = [S.GreaterThanOrEqual("k1", JANUARY[10]),
               S.LessThanOrEqual("k1", JANUARY[-1] + 300)]
    b = builder(catalog_composite())
    own = b.ranges_for_filters(between)
    both = b.ranges_for_filters(between + [S.In("k1", JANUARY)])
    # the ten days before the BETWEEN's lower bound are not read
    assert both == [ScanRange(_encode_k1(JANUARY[10]), _encode_k1(JANUARY[-1] + 1))]
    assert intersect_range_lists(both, own) == both
    # keys wholly outside the statement's range leave nothing to scan
    assert b.ranges_for_filters(
        [S.LessThan("k1", JANUARY[0]), S.In("k1", JANUARY)]) == []
    # and no keys at all (an empty build side) is an empty scan, not a full one
    assert b.ranges_for_filters(between + [S.In("k1", ())]) == []


def test_keys_under_a_coder_that_is_not_order_preserving():
    cat = catalog_single("Avro")
    # equality needs only an injective encoding: the keys become points, but
    # zig-zag varints put no two neighbours next to each other, so none merge
    ranges = builder(cat).ranges_for_filters([S.In("k", JANUARY[:4])])
    assert len(ranges) == 4 and all(r.point for r in ranges)
    # a key the coder cannot place (wrong literal type) gives up the range:
    # the scan stays as wide as the statement made it
    assert builder(cat).ranges_for_filters(
        [S.In("k", (JANUARY[0], "2451912"))]) == list(FULL_SCAN)
