"""The exact primitives `rationals.lt`, `eq`, `add`, `sub`, `same`,
`sorted_by` and `key` and the sites that use them: each agrees with the
plain `Fraction` operators, the hot paths call no `Fraction` dunder, and
nothing patches them."""

import cProfile
import fractions
import math
import os
import pstats
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline.intervals import IntervalSet, canon_intervals, iset_meet, iset_meets
from featherline.rationals import (NEG_INF, POS_INF, PreconditionError, _floor_key, add,
                                   denominator_bits, eq, fmt_ext, key, lt, same, sorted_by, sub)

big = st.integers(-10**30, 10**30)
fracs = st.builds(Fraction, big, st.integers(1, 10**30))
small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
ints = st.integers(-10**25, 10**25) | st.integers(-3, 3)
sentinels = st.sampled_from([NEG_INF, POS_INF])
exact = fracs | small_fracs | ints
scalars = exact | sentinels


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(scalars | finite_floats, scalars | finite_floats)
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


@given(small_fracs | st.integers(-3, 3) | sentinels, st.booleans(), affine, affine, radii)
def test_above_on_tied_constants_lets_the_slopes_decide(c, as_int, hi, lo, r):
    # one constant on both sides, spelled as an int or as a Fraction, or one
    # sentinel: the margin is (hb - lb)·δ, positive on (0, r] iff hb > lb
    spelled = int(c) if as_int and c not in (NEG_INF, POS_INF) and c == int(c) else c
    (_, hb), (_, lb) = hi, lo
    assert ke._above((c, hb), (spelled, lb), r) is (hb > lb)


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
    # the arithmetic operators are made by the stdlib's `_operator_fallbacks`
    for name in ("__add__", "__sub__"):
        method = vars(Fraction)[name]
        assert (method.__module__, method.__name__, method.__qualname__) == (
            "fractions", name, "Fraction._operator_fallbacks.<locals>.forward")


# ---------------------------------------------------------------------------
# Sums and differences on the slots.


def _alike(x, y) -> bool:
    """Equal in value, type and hash, and for Fractions in the same slots:
    lowest terms with a positive denominator."""
    if type(x) is not type(y) or x != y or hash(x) != hash(y):
        return False
    return type(x) is not Fraction or (x._numerator, x._denominator) == (y._numerator,
                                                                         y._denominator)


@given(scalars, scalars)
def test_add_and_sub_agree_with_the_operators(a, b):
    for got, expected in ((add(a, b), a + b), (sub(a, b), a - b)):
        if expected != expected:  # inf - inf is nan, which equals nothing
            assert got != got
        else:
            assert _alike(got, expected), (a, b, got, expected)
        if type(got) is Fraction:
            assert got._denominator > 0 and math.gcd(got._numerator, got._denominator) == 1


@given(fracs | small_fracs)
def test_a_difference_of_equal_values_is_zero_over_one(a):
    zero = sub(a, Fraction(a._numerator, a._denominator))
    assert (zero._numerator, zero._denominator) == (0, 1) and hash(zero) == hash(0)
    assert _alike(add(a, -a), Fraction(0))


# ---------------------------------------------------------------------------
# Equality, sorting and dict keys.


@given(scalars | finite_floats, scalars | finite_floats)
def test_eq_agrees_with_the_operator(a, b):
    assert eq(a, b) is (a == b)
    assert eq(b, a) is (a == b)


@given(exact)
def test_eq_across_types(a):
    assert eq(a, Fraction(a)) and eq(Fraction(a), a)
    assert eq(a, Fraction(a) + Fraction(1, 3)) is False


def _copy(x):
    """An equal coordinate that is a different object, of either type."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else Fraction(x.numerator, x.denominator)
    return Fraction(x)


coordinate_lists = st.lists(exact, max_size=12)


@st.composite
def tuple_pairs(draw):
    """Two tuples of scalars that share coordinates, copy them, or differ in
    one coordinate or in length."""
    p = tuple(draw(coordinate_lists))
    how = draw(st.sampled_from(["shared", "sliced", "copied", "changed", "longer", "other"]))
    if how == "shared":
        q = p
    elif how == "sliced":
        k = draw(st.integers(0, len(p)))
        p, q = p[:k], (p + (Fraction(0),))[:k]
    elif how == "copied":
        q = tuple(map(_copy, p))
    elif how == "changed" and p:
        i = draw(st.integers(0, len(p) - 1))
        q = p[:i] + (draw(exact),) + p[i + 1:]
    elif how == "longer":
        q = p + (draw(exact),)
    else:
        q = tuple(draw(coordinate_lists))
    return (p, q) if draw(st.booleans()) else (q, p)


@given(tuple_pairs())
def test_same_agrees_with_tuple_equality(pair):
    p, q = pair
    assert same(p, q) is (p == q)


near = st.builds(lambda base, k: base + Fraction(k, 2**40), small_fracs, st.integers(-3, 3))
sortable = small_fracs | ints | fracs | near | sentinels | finite_floats | st.just(Fraction(1, 3))


@given(st.lists(sortable, max_size=30))
def test_sorted_by_is_sorted_and_stable(values):
    pairs = [(v, i) for i, v in enumerate(values)]  # the index shows the order of ties
    assert sorted_by(pairs, itemgetter(0)) == sorted(pairs, key=itemgetter(0))
    assert [(type(v), v) for v in sorted_by(values)] == [(type(v), v) for v in sorted(values)]


@given(st.lists(near, min_size=2, max_size=30))
def test_sorted_by_orders_values_closer_than_its_key(values):
    assert sorted_by(values) == sorted(values)


@given(sortable)
def test_the_sort_key_is_an_integer_or_a_sentinel(v):
    k = _floor_key(v)
    assert type(k) is int or k in (NEG_INF, POS_INF)


def test_sorted_by_returns_short_input_as_a_list():
    assert sorted_by(()) == [] and sorted_by(iter([Fraction(1)])) == [Fraction(1)]


@given(exact | finite_floats, exact | finite_floats)
def test_key_agrees_with_equality(a, b):
    assert (key(a) == key(b)) is (a == b)


@given(exact)
def test_key_of_an_int_and_of_a_fraction_alike(a):
    assert key(a) == key(Fraction(a))
    assert all(type(part) is int for part in key(a))


# ---------------------------------------------------------------------------
# The wave algebra keyed on integers.

abscissae = st.integers(-6, 6).map(lambda n: Fraction(n, 2))


def _spelled(x, as_int):
    """x as an int when it is integral and `as_int` is set."""
    return x.numerator if as_int and x.denominator == 1 else x


@given(st.dictionaries(abscissae, st.integers(1, 2), max_size=8), st.data())
def test_waves_from_unsorted_duplicated_lifts_agree(levels, data):
    parts = IntervalSet.of((-4, 4))
    canonical = ml.Wave(ml.TRIPLED, parts, tuple(sorted(levels.items())))
    entries = list(levels.items()) * 2
    entries = data.draw(st.permutations(entries))
    spelled = tuple((_spelled(x, data.draw(st.booleans())), j) for x, j in entries)
    w = ml.Wave(ml.TRIPLED, parts, spelled)
    assert w == canonical
    assert all(type(x) is Fraction for x, _ in w.lift)
    assert w.lift_map() == {Fraction(x): j for x, j in levels.items()}
    for x in [Fraction(n, 2) for n in range(-9, 10)]:
        for level in range(3):
            expected = (levels.get(x) == level if x in levels
                        else level == 0 and parts.contains(x))
            for spelling in (x, _spelled(x, True)):
                assert w.contains(ml.MultiLinePoint(spelling, level)) is expected
        assert ml.wave_member_levels(w, _spelled(x, True)) == ml.wave_member_levels(w, x)


def test_a_wave_rejects_an_abscissa_lifted_to_two_levels_of_either_type():
    with pytest.raises(PreconditionError, match="abscissa 1 lifted to two levels"):
        ml.Wave(ml.TRIPLED, IntervalSet.of((0, 3)), ((Fraction(1), 1), (1, 2)))


@given(st.lists(st.lists(st.tuples(abscissae, st.booleans()), max_size=3), max_size=6),
       st.sampled_from(["doubled", "tripled"]))
def test_an_uncovered_point_is_one_past_the_largest_lifted_abs(lifts, name):
    space = ke.space_of(name)
    spelled = [[(_spelled(x, as_int), 1) for x, as_int in wave] for wave in lifts]
    chosen = [ml.full_wave(space.spec, tuple(wave)) for wave in spelled]
    fresh = max((abs(x) for wave in spelled for x, _ in wave), default=Fraction(0)) + 1
    p = space.uncovered_point(chosen)
    assert p == ml.MultiLinePoint(fresh, 1) and type(p.x) is Fraction
    assert str(p) == "D(%s @1)" % fmt_ext(fresh)
    assert not any(w.contains(p) for w in chosen)


removed_points = st.lists(st.tuples(abscissae, st.integers(0, 2)), max_size=6)


@given(st.tuples(abscissae, st.integers(0, 2)), st.tuples(abscissae, st.integers(0, 2)),
       removed_points)
def test_chain_connect_reads_int_and_fraction_removed_points_alike(src, dst, removed):
    src, dst = ml.MultiLinePoint(*src), ml.MultiLinePoint(*dst)

    def outcome(as_int):
        points = [ml.MultiLinePoint(_spelled(x, as_int), j) for x, j in removed]
        try:
            return ml.chain_connect(ml.TRIPLED, src, dst, points, (-5, 5))
        except PreconditionError as exc:
            return str(exc)

    assert outcome(True) == outcome(False)


# ---------------------------------------------------------------------------
# Count guards: the hot paths call no `Fraction` hash or equality.


def _fraction_calls(fn, name, module="fractions.py") -> int:
    """Calls of the function `name` of `module` that `fn()` makes."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(row[1] for (path, _, func), row in pstats.Stats(prof).stats.items()
               if os.path.basename(path) == module and func == name)


def _lifted_wave(start, levels):
    lift = tuple((Fraction(start + 2 * i, 7), levels[i % len(levels)]) for i in range(200))
    return ml.full_wave(ml.TRIPLED, lift)


def test_wave_meet_and_chain_connect_hash_no_fraction():
    w1, w2 = _lifted_wave(0, (1, 2)), _lifted_wave(100, (1,))
    assert _fraction_calls(lambda: ml.wave_meet(w1, w2), "__hash__") == 0
    removed = [ml.MultiLinePoint(Fraction(2 * i + 1, 3), i % 3) for i in range(200)]
    src, dst = ml.MultiLinePoint(Fraction(0), 0), ml.MultiLinePoint(Fraction(50), 2)
    links = []
    assert _fraction_calls(lambda: links.append(
        ml.chain_connect(ml.TRIPLED, src, dst, removed, (-5, 100))), "__hash__") == 0
    assert links[0] is not None


def test_an_uncovered_point_of_lifted_full_waves_calls_no_fraction_hash_order_or_abs():
    doubled = ke.space_of("doubled")
    chosen = [ml.full_wave(ml.DOUBLED, ((Fraction(i - 108, 7), 1),)) for i in range(200)]
    for name in ("__hash__", "__gt__", "__abs__"):
        out = []
        assert _fraction_calls(lambda: out.append(
            sp.subcover_attempt(doubled, doubled.cover_admits, chosen)), name) == 0, name
        covered, c = out[0]
        # the largest |x| lifted is 108/7, on the negative side
        assert not covered and str(c.payload["point"]) == "D(115/7 @1)"


def test_the_density_of_one_wave_sorts_no_intervals():
    w = _lifted_wave(0, (1, 2))
    dense = []
    assert _fraction_calls(lambda: dense.append(ke.space_of("tripled").dense([w])),
                           "canon_intervals", "intervals.py") == 0
    assert dense == [True]


def test_arms_meet_on_separately_parsed_points_calls_no_fraction_equality():
    text = "F(%s)" % ",".join(str(n) for n in range(100))
    p, q = ke.FEATHER.parse_point(text), ke.FEATHER.parse_point(text)
    assert p == q and p[0] is not q[0]
    a1, a2 = fe.fp_chart(p, 1).arms(), fe.fp_chart(q, Fraction(1, 2)).arms()
    met = []
    assert _fraction_calls(lambda: met.append(fe.arms_meet(a1, a2)), "__eq__") == 0
    assert met == [True]


def test_charts_and_the_feather_refuter_make_no_fraction_sum_or_difference():
    p = ke.FEATHER.parse_point("F(0,1/3,5/7,5/2)")
    for centre in (p, fe.fp_twin(p), p[:1], p[:1] + p[:1]):
        charts = []
        assert _fraction_calls(lambda: charts.extend(
            fe.fp_chart(centre, e) for e in ke.REFUTER_SCALES), "forward") == 0
        assert [c.arms() for c in charts] == [fe.interval_arms(c.interval.lower, c.interval.upper)
                                              for c in charts]
    refuted = []
    assert _fraction_calls(lambda: refuted.append(
        ke.bounded_refuter(ke.FEATHER, p, fe.fp_twin(p))), "forward") == 0
    assert refuted == [None]


def test_denominator_bits_sums_over_points_and_basics():
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    assert denominator_bits(third) == 2 and denominator_bits(7) == 1
    assert denominator_bits((third, quarter)) == 5
    itv = fe.FeatherInterval((Fraction(0), third), (Fraction(0), quarter + 1))
    assert denominator_bits(itv) == denominator_bits(itv.lower + itv.upper) == 7
    assert denominator_bits(fe.fp_chart(itv.lower, 1)) > denominator_bits(itv.lower)
    assert denominator_bits((POS_INF, "L", None, True)) == 0
