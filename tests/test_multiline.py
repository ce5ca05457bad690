from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from featherline import certificates as cert
from featherline import kernel as ke
from featherline import multiline as ml
from featherline.intervals import FinSet, IntervalSet, iset_complement_is_finite
from featherline.rationals import NEG_INF, POS_INF, PreconditionError, fmt_ext

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10)


def points(spec):
    return st.tuples(rationals, st.integers(0, spec.k - 1)).map(
        lambda t: ml.MultiLinePoint(*t))


@st.composite
def waves(draw, spec=ml.DOUBLED):
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=3))
    parts = IntervalSet.of(*[(min(a, b), max(a, b)) for a, b in pairs if a != b])
    lift = []
    for lo, hi in parts.intervals:
        if draw(st.booleans()):
            lift.append(((lo + hi) / 2, draw(st.integers(1, spec.k - 1))))
    return ml.Wave(spec, parts, tuple(lift))


# ---------------------------------------------------------------------------
# Waves.


@pytest.mark.parametrize("spec,everywhere,finite", [
    (ml.LINE, False, ()), (ml.DOUBLED, True, None), (ml.TRIPLED, True, None),
    (ml.TWO_ORIGINS, False, (F(0),))], ids=["line", "doubled", "tripled", "two-origins"])
def test_spec_is_doubled_everywhere_or_at_finitely_many(spec, everywhere, finite):
    # the line (k = 1) has doubling "all" too, and no upper level anywhere
    assert (spec.everywhere, spec.finite) == (everywhere, finite)
    for x in (F(0), F(1, 2)):
        assert spec.is_doubled(x) == (everywhere or x in finite)


def test_wave_membership():
    w = ml.Wave(ml.DOUBLED, IntervalSet.of((-1, 1)), ((F(0), 1),))
    assert w.contains(ml.MultiLinePoint(F(1, 2), 0))
    assert w.contains(ml.MultiLinePoint(F(0), 1))
    assert not w.contains(ml.MultiLinePoint(F(0), 0))
    assert not w.contains(ml.MultiLinePoint(F(2), 0))


def test_wave_lift_must_lie_in_o():
    with pytest.raises(PreconditionError):
        ml.Wave(ml.DOUBLED, IntervalSet.of((0, 1)), ((F(5), 1),))


def test_wave_meet_examples():
    w1 = ml.Wave(ml.DOUBLED, IntervalSet.of((-1, 1)), ((F(0), 1),))
    w2 = ml.Wave(ml.DOUBLED, IntervalSet.of((0, 2)))
    m = ml.wave_meet(w1, w2)
    assert m.parts == IntervalSet.of((0, 1)) and m.lift == ()
    w3 = ml.Wave(ml.DOUBLED, IntervalSet.of((-2, 2)), ((F(0), 1),))
    assert ml.wave_meet(w1, w3) == w1
    assert ml.wave_meet(w1, w1) == w1


@given(waves(), waves(), points(ml.DOUBLED))
def test_wave_meet_pointwise(w1, w2, p):
    m = ml.wave_meet(w1, w2)
    assert m.contains(p) == (w1.contains(p) and w2.contains(p))


SPECS = {"line": ml.LINE, "two-origins": ml.TWO_ORIGINS, "doubled": ml.DOUBLED,
         "tripled": ml.TRIPLED}


@st.composite
def spec_waves(draw, spec):
    """A wave of `spec` over the whole line or over some of the gaps between
    sorted cut points (all of them: the line minus the cuts), lifting some
    doubled abscissae inside it."""
    cuts = [] if draw(st.booleans()) else sorted(draw(st.sets(rationals, max_size=4)))
    ends = [NEG_INF] + cuts + [POS_INF]
    gaps = [(lo, hi) for lo, hi in zip(ends, ends[1:]) if not cuts or draw(st.booleans())]
    parts = IntervalSet.of(*gaps)
    lift = [(x, draw(st.integers(1, spec.k - 1)))
            for x in sorted(draw(st.sets(rationals | st.just(F(0)), max_size=4)))
            if spec.is_doubled(x) and parts.contains(x) and draw(st.booleans())]
    return ml.Wave(spec, parts, tuple(lift))


@st.composite
def spec_wave_families(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    return name, draw(st.lists(spec_waves(SPECS[name]), min_size=1, max_size=3))


def _wave_text(w) -> str:
    # the formula `Wave.__str__` ran on every call before it kept its text
    lifts = ",".join(["%s^%d" % (fmt_ext(x), j) for x, j in w.lift]) if w.lift else ""
    return "W[%s-{%s}]" % (w.parts, lifts)


@given(spec_wave_families())
def test_a_wave_keeps_the_text_of_the_old_formula(case):
    _, family = case
    for w in family:
        twin = ml.Wave(w.spec, w.parts, tuple(reversed(w.lift)))
        before = (repr(w), hash(w))
        assert w._text is None and "_text" not in before[0]
        assert twin == w and (repr(twin), hash(twin)) == before
        assert str(w) == _wave_text(w) == w._text  # the first call fills the slot
        assert twin == w and (repr(twin), hash(twin)) == (repr(w), hash(w)) == before
        assert str(w) == _wave_text(w) and str(twin) == str(w)
        assert twin == w and (repr(twin), hash(twin)) == (repr(w), hash(w)) == before


@given(st.fractions() | st.integers(-2**70, 2**70)
       | st.integers(-2**70, 2**70).map(lambda n: F(n, 3**40)),
       st.integers(0, 2))
@example(F(7), 1)
@example(F(-7, 2), 0)
@example(F(-2**70 - 1, 3), 2)
@example(5, 1)
def test_a_line_point_prints_as_the_old_formula(x, level):
    p = ml.MultiLinePoint(x, level)
    assert str(p) == "D(%s @%d)" % (fmt_ext(x), level)


def _gap_scan(w) -> set:
    # the zero-width gaps of the down projection, as `_down_gaps` scans them
    iv = w.down_projection().intervals
    return {iv[k][1] for k in range(len(iv) - 1) if iv[k][1] == iv[k + 1][0]}


@given(spec_wave_families())
def test_density_and_gaps_match_the_down_union(case):
    name, family = case
    space = ke.space_of(name)
    assert space.dense(family) == iset_complement_is_finite(ke._down_union(family))
    for w in family:
        assert ke._down_gaps(w) == _gap_scan(w)


# ---------------------------------------------------------------------------
# Generators and homogeneity.


def _word_verifies(space_name, word, src, dst) -> bool:
    return ke.verify_certificate(ke.space_of(space_name), cert.homeo_word(tuple(word), src, dst))


@given(points(ml.DOUBLED), rationals)
def test_translate_inverse(p, s):
    word = (ml.TranslateGen(s), ml.TranslateGen(-s))
    assert ml.ml_replay(word, p) == p
    assert _word_verifies("doubled", word, p, p)


def test_translate_respects_restricted_doubling():
    # translating by 1 carries the doubled abscissa 0 to 1, which has no upper point
    origin, up = ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)
    assert not _word_verifies("two-origins", [ml.TranslateGen(F(1))],
                              origin, ml.MultiLinePoint(F(1), 0))
    assert ml.TranslateGen(F(0)).apply(up) == up
    assert _word_verifies("two-origins", [ml.TranslateGen(F(0))], up, up)


def test_exchange():
    e = ml.ExchangeGen(F(0), (0, 1))
    assert e.apply(ml.MultiLinePoint(F(0), 0)) == ml.MultiLinePoint(F(0), 1)
    assert e.apply(ml.MultiLinePoint(F(1), 0)) == ml.MultiLinePoint(F(1), 0)
    assert _word_verifies("doubled", [e], ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1))
    # a level out of range, and an abscissa that is not doubled
    away = ml.MultiLinePoint(F(5), 0)
    assert not _word_verifies("doubled", [ml.ExchangeGen(F(0), (0, 2))], away, away)
    assert not _word_verifies("two-origins", [ml.ExchangeGen(F(1), (0, 1))], away, away)


@given(points(ml.TRIPLED), rationals)
def test_generators_are_wave_bijections(p, s):
    spec = ml.TRIPLED
    w = ml.Wave(spec, IntervalSet.of((s - 1, s + 1)), ((s, 1),))
    # each generator with the image of w, built here: the reflection about s
    # and the exchange of levels 0 and 2 at s (w lifts s to 1) fix w
    images = [(ml.TranslateGen(s), ml.Wave(spec, IntervalSet.of((2 * s - 1, 2 * s + 1)),
                                           ((2 * s, 1),))),
              (ml.ReflectGen(s), w), (ml.ExchangeGen(s, (0, 2)), w)]
    for g, gw in images:
        assert gw.contains(g.apply(p)) == w.contains(p)
    for g in (ml.ReflectGen(s), ml.ExchangeGen(s, (0, 2))):
        assert g.apply(g.apply(p)) == p


@given(points(ml.DOUBLED), points(ml.DOUBLED))
def test_move_replay(p, q):
    word = ml.ml_move(ml.DOUBLED, p, q)
    assert ml.ml_replay(word, p) == q


@given(points(ml.TRIPLED), points(ml.TRIPLED))
def test_involutive_move_swaps(p, q):
    if p == q:
        return
    word = ml.ml_move(ml.TRIPLED, p, q, involutive=True)
    assert ml.ml_replay(word, p) == q
    assert ml.ml_replay(word, q) == p
    for x in (p, q):
        assert ml.ml_replay(word, ml.ml_replay(word, x)) == x


def test_rational_down_witness():
    w = ml.Wave(ml.DOUBLED, IntervalSet.of((0, 1)), ((F(1, 2), 1),))
    p = ml.rational_down_witness(w)
    assert p.level == 0 and w.contains(p)


# ---------------------------------------------------------------------------
# Chain connection.


def test_chain_reconnects_through_third_copy():
    src, dst = ml.MultiLinePoint(F(-1), 0), ml.MultiLinePoint(F(1), 0)
    removed = [ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)]
    [w] = ml.chain_connect(ml.TRIPLED, src, dst, removed, (-5, 5))
    assert w.contains(src) and w.contains(dst)
    assert not any(w.contains(r) for r in removed)
    assert w.lift_map()[F(0)] == 2


def test_chain_avoids_up_points_without_lift():
    src, dst = ml.MultiLinePoint(F(-1), 0), ml.MultiLinePoint(F(1), 0)
    removed = [ml.MultiLinePoint(F(0), 1), ml.MultiLinePoint(F(0), 2)]
    [w] = ml.chain_connect(ml.TRIPLED, src, dst, removed, (-5, 5))
    assert w.contains(src) and w.contains(dst)
    assert not any(w.contains(r) for r in removed)


def test_chain_same_abscissa_uses_two_links():
    src, dst = ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 2)
    removed = [ml.MultiLinePoint(F(0), 1)]
    links = ml.chain_connect(ml.TRIPLED, src, dst, removed, (-5, 5))
    assert len(links) == 2
    assert links[0].contains(src) and links[1].contains(dst)
    assert not ml.wave_meet(links[0], links[1]).is_empty()


def test_chain_two_origins_inconclusive():
    src, dst = ml.MultiLinePoint(F(-1), 0), ml.MultiLinePoint(F(1), 0)
    removed = [ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)]
    assert ml.chain_connect(ml.TWO_ORIGINS, src, dst, removed, (-5, 5)) is None


def test_chain_rejects_removed_endpoint():
    p = ml.MultiLinePoint(F(0), 0)
    with pytest.raises(PreconditionError):
        ml.chain_connect(ml.DOUBLED, p, ml.MultiLinePoint(F(1), 0), [p], (-5, 5))


# ---------------------------------------------------------------------------
# Discrete up set and the branching line.


def test_up_points_discrete():
    isolating, avoiding = ml.up_points_discrete_witnesses(
        ml.DOUBLED, FinSet.of(F(0), F(1)), down_point=ml.MultiLinePoint(F(1, 2), 0))
    assert isolating[F(0)].contains(ml.MultiLinePoint(F(0), 1))
    assert not isolating[F(0)].contains(ml.MultiLinePoint(F(1), 1))
    assert avoiding.contains(ml.MultiLinePoint(F(1, 2), 0))
    assert not avoiding.lift


def test_branch_points():
    assert ml.branch_point(F(-1), "R") == ml.branch_point(F(-1), "L")
    assert ml.branch_point(F(1), "R") != ml.branch_point(F(1), "L")


def test_branch_intervals():
    b = ml.branch_interval(F(-1), F(1), "L")
    assert b.contains(ml.branch_point(F(-1, 2), "R"))  # negatives are shared
    assert b.contains(ml.branch_point(F(1, 2), "L"))
    assert not b.contains(ml.branch_point(F(1, 2), "R"))


def test_branch_meet_shares_negatives_only():
    bl = ml.branch_interval(F(-1), F(1), "L")
    br = ml.branch_interval(F(-1), F(1), "R")
    parts = ml.branch_meet(bl, br)
    assert parts
    probe_neg = ml.branch_point(F(-1, 2), "L")
    probe_pos = ml.branch_point(F(1, 2), "L")
    assert any(m.contains(probe_neg) for m in parts)
    assert not any(m.contains(probe_pos) for m in parts)
