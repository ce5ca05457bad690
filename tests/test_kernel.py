from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from featherline import certificates as cert
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline.intervals import CofiniteSet, IntervalSet
from featherline.rationals import POS_INF, PreconditionError

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10)


@st.composite
def feather_points(draw, max_len=4):
    n = draw(st.integers(1, max_len))
    coords = sorted(draw(st.lists(rationals, min_size=n, max_size=n, unique=True)))
    p = tuple(coords)
    if draw(st.booleans()):
        p = p + (p[-1],)
    return p


doubled_points = st.tuples(rationals, st.integers(0, 1)).map(
    lambda t: ml.MultiLinePoint(*t))


# ---------------------------------------------------------------------------
# Membership and meet through the space interface.


def test_member_examples():
    d = ke.space_of("doubled")
    w = ml.Wave(d.spec, IntervalSet.of((-1, 1)), ((F(0), 1),))
    assert d.member(ml.MultiLinePoint(F(0), 1), w)
    f = ke.FEATHER
    i = fe.FeatherInterval((F(0), F(0)), (F(0), F(1)))
    assert f.member((F(0), F(1, 2)), i)
    n = ke.COFINITE
    assert not n.member(5, CofiniteSet.excl(5))


def test_space_of_rejects_unknown():
    with pytest.raises(PreconditionError):
        ke.space_of("klein-bottle")


@pytest.mark.parametrize("name,alias", [
    ("feather", "F"), ("doubled", "D"), ("branch", "branching-line"), ("cofinite", "N"),
    ("line", "line"), ("tripled", "tripled"), ("two-origins", "two-origins")])
def test_space_of_returns_one_object_per_space(name, alias):
    assert ke.space_of(name) is ke.space_of(alias) is ke.space_of(name)


# ---------------------------------------------------------------------------
# Separation.


def test_separable_examples():
    f = ke.FEATHER
    ok, c = f.separable((F(0),), (F(0), F(0)))
    assert not ok and c.kind == "twin-pair"
    d = ke.space_of("doubled")
    ok, c = d.separable(ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1))
    assert not ok
    ok, c = d.separable(ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(1), 1))
    assert ok and ke.verify_certificate(d, c)


def test_separable_requires_distinct():
    with pytest.raises(PreconditionError):
        ke.FEATHER.separable((F(0),), (F(0),))


@given(feather_points(), feather_points())
def test_separable_symmetric_feather(p, q):
    if p == q:
        return
    f = ke.FEATHER
    ok1, c1 = f.separable(p, q)
    ok2, c2 = f.separable(q, p)
    assert ok1 == ok2
    assert ke.verify_certificate(f, c1) and ke.verify_certificate(f, c2)


@pytest.mark.parametrize("p,q", [
    ((F(0),), (F(1, 2**62 + 1),)),
    ((F(0), F(1)), (F(0), F(1) + F(1, 2**200))),
], ids=["gap-2^-62", "gap-2^-200"])
def test_separable_feather_points_closer_than_64_halvings(p, q):
    # the search for separating charts halves the radius as often as the
    # coordinates' denominators need, not a fixed 64 times
    ok, c = ke.FEATHER.separable(p, q)
    assert ok and ke.verify_certificate(ke.FEATHER, c)


@given(doubled_points, doubled_points)
def test_separable_symmetric_doubled(p, q):
    if p == q:
        return
    d = ke.space_of("doubled")
    ok1, c1 = d.separable(p, q)
    ok2, _ = d.separable(q, p)
    assert ok1 == ok2
    assert ke.verify_certificate(d, c1)


def test_cofinite_nothing_separable():
    n = ke.COFINITE
    ok, c = n.separable(3, 7)
    assert not ok and ke.verify_certificate(n, c)


# ---------------------------------------------------------------------------
# Convergence.


def test_convergence_oracles():
    f = ke.FEATHER
    below = ke.SeqDescriptor("feather", (F(0), F(1)), 1, F(1), "below")
    assert f.converges(below, (F(0), F(1)))
    assert f.converges(below, (F(0), F(1), F(1)))
    above = ke.SeqDescriptor("feather", (F(0), F(1)), 1, F(1), "above")
    assert f.converges(above, (F(0), F(1)))
    assert not f.converges(above, (F(0), F(1), F(1)))
    d = ke.space_of("doubled")
    dn = ke.SeqDescriptor("multiline", ml.MultiLinePoint(F(-1), 0), 0, F(0), "below")
    assert d.converges(dn, ml.MultiLinePoint(F(0), 0))
    assert d.converges(dn, ml.MultiLinePoint(F(0), 1))


def test_malformed_descriptor_rejected():
    f = ke.FEATHER
    with pytest.raises(PreconditionError):
        ke.SeqDescriptor("feather", (F(0), F(1)), 1, F(1), "sideways")
    bad = ke.SeqDescriptor("feather", (F(0), F(1)), 1, F(-5), "below")
    with pytest.raises(PreconditionError):
        f.converges(bad, (F(0), F(1)))
    mismatched = ke.SeqDescriptor("multiline", ml.MultiLinePoint(F(0), 0), 0,
                                  F(0), "below")
    with pytest.raises(PreconditionError):
        f.converges(mismatched, (F(0),))


@given(feather_points())
def test_convergence_separation_link(p):
    # a sequence converging to both twins forbids separation
    f = ke.FEATHER
    q = fe.fp_twin(p)
    lower = p if fe.fp_is_strict(p) else q
    descr = ke.SeqDescriptor("feather", lower, len(lower) - 1, lower[-1], "below")
    assert f.converges(descr, p) and f.converges(descr, q)
    ok, _ = f.separable(p, q)
    assert not ok


def test_multiline_descriptor_moves_coordinate_zero_only():
    d = ke.space_of("doubled")
    base = ml.MultiLinePoint(F(0), 0)
    assert d.converges(ke.SeqDescriptor("multiline", base, 0, F(1), "below"),
                       ml.MultiLinePoint(F(1), 1))
    for index in (3, 1, -1):
        with pytest.raises(PreconditionError):
            d.converges(ke.SeqDescriptor("multiline", base, index, F(1), "below"),
                        ml.MultiLinePoint(F(1), 1))


def test_descriptor_terms_are_valid_points():
    descr = ke.SeqDescriptor("feather", (F(0), F(1)), 1, F(1), "below")
    for m in range(2, 8):
        fe.fp_validate(descr.term(m))


# ---------------------------------------------------------------------------
# Density.


def test_density_criteria():
    d = ke.space_of("doubled")
    assert d.dense(ml.full_wave(d.spec))
    assert not d.dense(ml.Wave(d.spec, IntervalSet.of((0, POS_INF))))
    f = ke.FEATHER
    assert f.dense(fe.strict_skeleton())
    charts = [fe.fp_chart((F(0), F(1)), F(1))]
    assert not f.dense(charts)
    missing = f.density_witness([c.interval for c in charts])
    assert f.meet_is_empty(missing, charts[0])


# ---------------------------------------------------------------------------
# Hausdorffness of unions.


def test_union_twin_pair_multiline():
    d = ke.space_of("doubled")
    w1 = ml.Wave(d.spec, IntervalSet.of((-1, 1)), ((F(0), 1),))
    w2 = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    pair = d.union_twin_pair([w1, w2])
    assert set(pair) == {ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)}
    assert d.union_twin_pair([w2]) is None


def test_union_twin_pair_feather():
    f = ke.FEATHER
    assert f.union_twin_pair([fe.strict_skeleton()]) is None
    pair = f.union_twin_pair([fe.strict_skeleton()], ((F(0), F(0)),))
    assert set(pair) == {(F(0), F(0)), (F(0),)}


# ---------------------------------------------------------------------------
# Certificate verification rejects tampering.


def test_verify_rejects_overlapping_separation():
    d = ke.space_of("doubled")
    w = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    bad = cert.separated_by(ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(1, 2), 0),
                            w, w)
    assert not ke.verify_certificate(d, bad)


def test_verify_rejects_fake_twin_pair():
    f = ke.FEATHER
    bad = cert.twin_pair((F(0),), (F(1),))
    assert not ke.verify_certificate(f, bad)


def test_verify_rejects_covered_uncovered_point():
    d = ke.space_of("doubled")
    w = ml.full_wave(d.spec)
    bad = cert.uncovered(ml.MultiLinePoint(F(0), 0), [w])
    assert not ke.verify_certificate(d, bad)


def test_verify_rejects_empty_exclusion_map():
    n = ke.COFINITE
    assert ke.verify_certificate(n, cert.excluded_by("cofinite-diagonal", {3: 3}))
    assert not ke.verify_certificate(n, cert.excluded_by("cofinite-diagonal", {}))


def test_verify_rejects_disconnected_chain():
    d = ke.space_of("doubled")
    w1 = ml.Wave(d.spec, IntervalSet.of((-2, -1)))
    w2 = ml.Wave(d.spec, IntervalSet.of((1, 2)))
    bad = cert.chain([w1, w2], ml.MultiLinePoint(F(-3, 2), 0),
                     ml.MultiLinePoint(F(3, 2), 0), [])
    assert not ke.verify_certificate(d, bad)


def test_verify_rejects_wrong_word():
    d = ke.space_of("doubled")
    word = (ml.TranslateGen(F(1)),)
    bad = cert.homeo_word(word, ml.MultiLinePoint(F(0), 0),
                          ml.MultiLinePoint(F(2), 0))
    assert not ke.verify_certificate(d, bad)


LINE_TWINS = (ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1))


@pytest.mark.parametrize("space_name,c", [
    ("doubled", cert.twin_pair((F(0),), (F(1),))),
    ("feather", cert.twin_pair(*LINE_TWINS)),
    ("feather", cert.uncovered(LINE_TWINS[1], ())),
    ("cofinite", cert.twin_pair(*LINE_TWINS)),
    ("cofinite", cert.uncovered(LINE_TWINS[0], ())),
], ids=["feather-to-doubled", "line-twins-to-feather", "line-uncovered-to-feather",
        "line-twins-to-cofinite", "line-uncovered-to-cofinite"])
def test_verify_rejects_another_spaces_payload(space_name, c):
    assert ke.verify_certificate(ke.space_of(space_name), c) is False


def test_basic_subset():
    d = ke.space_of("doubled")
    small = ml.Wave(d.spec, IntervalSet.of((0, 1)))
    big = ml.Wave(d.spec, IntervalSet.of((-1, 2)))
    assert d.basic_subset(small, big)
    assert not d.basic_subset(big, small)
    f = ke.FEATHER
    c_small = fe.fp_chart((F(0), F(1)), F(1, 4))
    c_big = fe.fp_chart((F(0), F(1)), F(1, 2))
    assert f.basic_subset(c_small, c_big)
    assert not f.basic_subset(c_big, c_small)
