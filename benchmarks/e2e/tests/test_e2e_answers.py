"""The row-multiset comparator: tolerance, ORDER BY, duplicates, NULLs."""

from harness import rows_match


def test_order_is_ignored_without_order_by():
    assert rows_match([(2, "b"), (1, "a")], [(1, "a"), (2, "b")])


def test_multiset_not_set():
    assert not rows_match([(1,), (1,), (2,)], [(1,), (2,), (2,)])
    assert not rows_match([(1,)], [(1,), (1,)])
    assert rows_match([(1,), (1,)], [(1,), (1,)])


def test_floats_compare_to_relative_tolerance():
    assert rows_match([(1, 100.0 * (1 + 5e-10))], [(1, 100.0)])
    assert not rows_match([(1, 100.0 * (1 + 5e-8))], [(1, 100.0)])
    # exact columns stay exact
    assert not rows_match([(1, 2.0)], [(2, 2.0)])
    assert rows_match([(0.0,)], [(0.0,)])


def test_float_noise_does_not_reorder_the_pairing():
    actual = [(7, 0.30000000000000004), (3, 1.5)]
    expected = [(3, 1.5), (7, 0.3)]
    assert rows_match(actual, expected)


def test_order_by_requires_sorted_keys_but_allows_ties_either_way():
    expected = [(1, 1, "x"), (1, 1, "y"), (2, 1, "z")]
    assert rows_match([(1, 1, "y"), (1, 1, "x"), (2, 1, "z")], expected,
                      order_by=(0, 1))
    assert not rows_match([(2, 1, "z"), (1, 1, "x"), (1, 1, "y")], expected,
                          order_by=(0, 1))
    # the same rows pass when no order was promised
    assert rows_match([(2, 1, "z"), (1, 1, "x"), (1, 1, "y")], expected)


def test_nulls_and_width():
    assert rows_match([(None, 1), (2, None)], [(2, None), (None, 1)])
    assert not rows_match([(None, 1.0)], [(0, 1.0)])
    assert not rows_match([(1.0,)], [(None,)])
    assert not rows_match([(1, 2)], [(1, 2, 3)])
