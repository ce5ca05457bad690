"""The exact comparison primitive `rationals.lt` and the sites that use it:
each agrees with the plain `Fraction` operators, and nothing patches them."""

import fractions
from fractions import Fraction

from hypothesis import given, strategies as st

from featherline import kernel as ke
from featherline.intervals import IntervalSet, canon_intervals, iset_meet, iset_meets
from featherline.rationals import NEG_INF, POS_INF, fmt_ext, lt

big = st.integers(-10**30, 10**30)
fracs = st.builds(Fraction, big, st.integers(1, 10**30))
small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
ints = st.integers(-10**25, 10**25) | st.integers(-3, 3)
sentinels = st.sampled_from([NEG_INF, POS_INF])
exact = fracs | small_fracs | ints
scalars = exact | sentinels


@given(scalars, scalars)
def test_lt_agrees_with_the_operator(a, b):
    assert lt(a, b) is (a < b)
    assert (not lt(b, a)) is (a <= b)


@given(exact)
def test_lt_on_equal_values_of_either_type(a):
    assert not lt(a, Fraction(a)) and not lt(Fraction(a), a)


@given(exact | sentinels)
def test_fmt_ext_agrees_with_the_public_fields(x):
    if isinstance(x, float):
        expected = "inf" if x > 0 else "-inf"
    else:
        f = Fraction(x)
        expected = str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
    assert fmt_ext(x) == expected


affine = st.tuples(small_fracs | st.integers(-3, 3), small_fracs | st.integers(-2, 2))
radii = st.fractions(min_value=Fraction(1, 64), max_value=1)


@given(affine, affine, radii)
def test_above_is_a_positive_margin_on_the_whole_piece(hi, lo, r):
    # a + b·δ > 0 on (0, r] iff a >= 0 and a + b·r > 0
    (ha, hb), (la, lb) = hi, lo
    direct = Fraction(ha) >= Fraction(la) and Fraction(ha) + hb * r > Fraction(la) + lb * r
    assert ke._above(hi, lo, r) is direct


@given(small_fracs | st.integers(-3, 3), affine)
def test_above_against_infinite_constants(c, w):
    # the cofinite chart form: the arm (-inf, inf) holds every point
    assert ke._above(w, (NEG_INF, 0), Fraction(1))
    assert ke._above((POS_INF, 0), w, Fraction(1))
    assert not ke._above((NEG_INF, 0), (c, 0), Fraction(1))


def _canon_with_sorted_pairs(pairs):
    """The former `canon_intervals`: sort whole pairs, then merge."""
    merged = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


ends = small_fracs | sentinels
pair_lists = st.lists(st.tuples(ends, ends), max_size=8)
# shared lower ends, so that ties on the sort key happen often
tied_pair_lists = st.lists(st.tuples(st.sampled_from([NEG_INF, Fraction(0), Fraction(1)]), ends),
                           max_size=8)


@given(pair_lists | tied_pair_lists)
def test_canon_intervals_matches_sorting_whole_pairs(pairs):
    assert canon_intervals(pairs).intervals == _canon_with_sorted_pairs(pairs)


@given(pair_lists, pair_lists, small_fracs)
def test_interval_sweeps_match_the_operators(p1, p2, x):
    a, b = canon_intervals(p1), canon_intervals(p2)
    assert a.contains(x) == any(lo < x < hi for lo, hi in a.intervals)
    expected = []
    for lo1, hi1 in a.intervals:
        for lo2, hi2 in b.intervals:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                expected.append((lo, hi))
    assert iset_meet(a, b) == IntervalSet(tuple(sorted(expected)))
    assert iset_meets(a, b) == bool(expected)


def test_nothing_patches_the_fraction_operators():
    import featherline.cli  # noqa: F401  (imports every engine module)
    assert fractions.Fraction is Fraction
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        method = vars(Fraction)[name]
        assert (method.__module__, method.__qualname__) == ("fractions", "Fraction." + name)
