from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, strategies as st

from featherline.intervals import (CofiniteSet, FinSet, IntervalSet, canon_intervals,
                                   cofinite_meet, iset_complement_is_finite,
                                   iset_covers_line, iset_meet,
                                   iset_remove_points, iset_union,
                                   pick_rational_in)
from featherline.rationals import NEG_INF, POS_INF

rationals = st.fractions(min_value=-20, max_value=20)


def iset_from_pairs(pairs):
    return IntervalSet.of(*[(a, b) for a, b in pairs if a < b])


interval_sets = st.lists(
    st.tuples(rationals, rationals).map(lambda p: (min(p), max(p))),
    max_size=4).map(iset_from_pairs)


def test_touching_open_intervals_stay_distinct():
    # (0,1) and (1,2) are not a connected union: 1 is missing
    s = IntervalSet.of((0, 1), (1, 2))
    assert len(s.intervals) == 2
    assert not s.contains(Fraction(1))


def test_overlapping_intervals_merge():
    s = IntervalSet.of((0, 2), (1, 3))
    assert s.intervals == ((Fraction(0), Fraction(3)),)


def test_meet_example():
    a = IntervalSet.of((-1, 1))
    b = IntervalSet.of((0, 2))
    assert iset_meet(a, b) == IntervalSet.of((0, 1))


@given(interval_sets, interval_sets, rationals)
def test_meet_union_pointwise(a, b, x):
    assert iset_meet(a, b).contains(x) == (a.contains(x) and b.contains(x))
    assert iset_union(a, b).contains(x) == (a.contains(x) or b.contains(x))


@given(interval_sets, rationals, rationals)
def test_remove_point_membership(a, x, y):
    r = iset_remove_points(a, (x,))
    assert not r.contains(x)
    if y != x:
        assert r.contains(y) == a.contains(y)


# Ends from a small grid, so intervals often touch or share a lower end, and
# the sentinels open and close sets.
grid_ends = st.sampled_from([NEG_INF, POS_INF]) | st.integers(-3, 3).map(Fraction) \
    | st.fractions(min_value=-3, max_value=3, max_denominator=2)
grid_sets = st.lists(st.tuples(grid_ends, grid_ends), max_size=5).map(canon_intervals)
TOUCHING = IntervalSet.of((NEG_INF, 0), (0, 1), (1, 2), (3, POS_INF))


@given(st.lists(grid_sets, max_size=5))
@example([])
@example([IntervalSet.empty()])
@example([TOUCHING])
@example([IntervalSet.of((0, 1)), IntervalSet.of((1, 2)), IntervalSet.empty()])
def test_nary_union_agrees_with_the_pairwise_fold(sets):
    folded = IntervalSet.empty()
    for s in sets:  # the two-set union, one set at a time
        folded = canon_intervals(list(folded.intervals) + list(s.intervals))
    assert iset_union(*sets) == folded
    if len(sets) == 1:
        assert iset_union(*sets) is sets[0]


@given(grid_sets)
@example(TOUCHING)
def test_contains_agrees_with_the_left_bisection(s):
    # x on a grid between the ends, at every end, and at the sentinels
    ends = [x for pair in s.intervals for x in pair]
    for x in [Fraction(n, 4) for n in range(-14, 15)] + ends + [NEG_INF, POS_INF]:
        k = bisect_left(s.intervals, x, key=itemgetter(0)) - 1
        assert s.contains(x) is (k >= 0 and x < s.intervals[k][1]), (s, x)


def test_complement_finite():
    assert iset_complement_is_finite(IntervalSet.full_line())
    punched = iset_remove_points(IntervalSet.full_line(), (Fraction(0),))
    assert iset_complement_is_finite(punched)
    assert not iset_complement_is_finite(IntervalSet.of((0, POS_INF)))
    assert not iset_complement_is_finite(IntervalSet.of((0, 1)))


def test_covers_line():
    assert iset_covers_line(IntervalSet.full_line())
    assert not iset_covers_line(iset_remove_points(IntervalSet.full_line(), (Fraction(0),)))
    assert not iset_covers_line(IntervalSet.of((NEG_INF, 0), (0, POS_INF)))


@given(rationals, rationals, st.sets(rationals, max_size=3))
def test_pick_rational_in(lo, hi, avoid):
    if lo >= hi:
        return
    r = pick_rational_in(lo, hi, avoid)
    assert lo < r < hi and r not in avoid


def test_pick_is_deterministic():
    assert pick_rational_in(Fraction(0), Fraction(1)) == pick_rational_in(
        Fraction(0), Fraction(1))


def test_finset():
    s = FinSet.of(Fraction(1), Fraction(0), Fraction(1))
    assert list(s) == [Fraction(0), Fraction(1)]
    assert Fraction(1) in s and Fraction(2) not in s


def test_cofinite_sets():
    d = CofiniteSet.excl(1, 2)
    assert d.contains(0) and not d.contains(1)
    assert cofinite_meet(CofiniteSet.excl(1), CofiniteSet.excl(2)).excluded == (1, 2)
    assert cofinite_meet(CofiniteSet.ground(), CofiniteSet.empty()).empty_set
    assert not CofiniteSet.empty().contains(5)


@given(st.lists(st.integers(0, 9), max_size=3), st.lists(st.integers(0, 9), max_size=3),
       st.integers(0, 12))
def test_cofinite_meet_pointwise(e1, e2, n):
    a, b = CofiniteSet.excl(*e1), CofiniteSet.excl(*e2)
    assert cofinite_meet(a, b).contains(n) == (a.contains(n) and b.contains(n))
