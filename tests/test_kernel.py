import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from featherline import certificates as cert
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline.intervals import CofiniteSet, IntervalSet
from featherline.rationals import POS_INF, PreconditionError, denominator_bits

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10)


@st.composite
def feather_points(draw, max_len=4, coords=rationals):
    n = draw(st.integers(1, max_len))
    coords = sorted(draw(st.lists(coords, min_size=n, max_size=n, unique=True)))
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


# The separation rule: a separable pair is certified by the canonical charts
# of its points at the first disjoint radius among scale, scale/2, ...; off
# the feather the start radius already separates.


@st.composite
def line_family_pairs(draw):
    name = draw(st.sampled_from(["line", "two-origins", "doubled", "tripled", "branch"]))
    space = ke.space_of(name)
    xs = st.one_of(st.sampled_from([F(0), F(1), F(-1)]), rationals)
    if name == "branch":
        point = st.builds(ml.branch_point, xs, st.sampled_from("LR"))
    else:
        point = st.builds(ml.MultiLinePoint, xs, st.integers(0, space.spec.k - 1))
    p, q = draw(point), draw(point)
    assume(space.is_point(p) and space.is_point(q) and p != q)
    return space, p, q


def _start_radius(space, p, q):
    if space is ke.BRANCH and p.x == q.x:
        return abs(p.x) / 2  # two sheets over one x != 0
    return abs(p.x - q.x) / 2


@example((ke.BRANCH, ml.branch_point(1, "L"), ml.branch_point(1, "R")))
@given(line_family_pairs())
def test_line_family_separation_is_the_canonical_charts_at_the_start_radius(pair):
    space, p, q = pair
    ok, c = space.separable(p, q)
    if ok:
        r = _start_radius(space, p, q)
        assert (c.payload["b1"], c.payload["b2"]) == (space.canonical_neighborhood(p, r),
                                                      space.canonical_neighborhood(q, r))
    assert ke.verify_certificate(space, c)


def _reference_separating_charts(p, q):
    """The feather's former separation search, kept as the reference: charts
    at radii 1, 1/2, ... until they are disjoint."""
    eps = F(1)
    for _ in range(64 + denominator_bits(p + q)):
        c1, c2 = fe.fp_chart(p, eps), fe.fp_chart(q, eps)
        if ke.FEATHER.meet_is_empty(c1, c2):
            return c1, c2
        eps /= 2
    raise AssertionError("no separating charts")


@given(feather_points(), feather_points())
def test_feather_separation_matches_the_reference_search(p, q):
    assume(p != q)
    ok, c = ke.FEATHER.separable(p, q)
    if ok:
        assert (c.payload["b1"], c.payload["b2"]) == _reference_separating_charts(p, q)
    assert ke.verify_certificate(ke.FEATHER, c)


# ---------------------------------------------------------------------------
# Convergence.


def test_convergence_oracles():
    f = ke.FEATHER
    below = f.descriptor((F(0), F(1)), None, F(1), "below")
    assert below.coord_index == 1
    assert f.converges(below, (F(0), F(1)))
    assert f.converges(below, (F(0), F(1), F(1)))
    above = f.descriptor((F(0), F(1)), 1, F(1), "above")
    assert f.converges(above, (F(0), F(1)))
    assert not f.converges(above, (F(0), F(1), F(1)))
    d = ke.space_of("doubled")
    dn = d.descriptor(ml.MultiLinePoint(F(-1), 0), None, F(0), "below")
    assert dn.coord_index == 0
    assert d.converges(dn, ml.MultiLinePoint(F(0), 0))
    assert d.converges(dn, ml.MultiLinePoint(F(0), 1))


# (space, base, target): a base or a target that is not a point of the
# space; a descriptor on that base would decide the target as converging
OFF_SPACE_CONVERGENCE = [
    ("doubled", ml.MultiLinePoint(F(-1), 0), ml.MultiLinePoint(F(0), 7)),
    ("line", ml.MultiLinePoint(F(-1), 0), ml.MultiLinePoint(F(0), 1)),
    ("line", ml.MultiLinePoint(F(-1), 1), ml.MultiLinePoint(F(0), 0)),
    ("feather", ml.MultiLinePoint(F(0), 1), (F(0), F(1))),
    ("feather", (F(0), F(1)), ml.MultiLinePoint(F(0), 1)),
    ("feather", (F(0), F(1)), (F(0), F(1), F(1), F(1))),
]


@pytest.mark.parametrize("name,base,target", OFF_SPACE_CONVERGENCE,
                         ids=["doubled-level-7", "line-level-1", "line-base-level-1",
                              "feather-line-base", "feather-line-target",
                              "feather-invalid-target"])
def test_converges_rejects_points_not_in_the_space(name, base, target):
    space = ke.space_of(name)
    limit = F(1) if name == "feather" else F(0)
    if not space.is_point(base):  # the descriptor refuses it, once
        with pytest.raises(PreconditionError, match="of this space"):
            space.descriptor(base, None, limit, "below")
        return
    descr = space.descriptor(base, None, limit, "below")
    with pytest.raises(PreconditionError, match="of this space"):
        space.converges(descr, target)
    # the descriptor still decides the space's points
    inside = (F(0), F(1)) if name == "feather" else ml.MultiLinePoint(F(0), 0)
    assert space.converges(descr, inside)


# (space, base, index, limit, direction), each malformed and refused by
# `descriptor`: a bad direction, an index out of range, a limit below the
# floor (or at it from below), a float limit, an up-level base on a line
# with finitely many doubled abscissae, and a base of another space
MALFORMED_DESCRIPTORS = [
    ("feather", (F(0), F(1)), None, F(1), "sideways"),
    ("feather", (F(0), F(1)), 2, F(1), "below"),
    ("feather", (F(0), F(1)), -1, F(1), "below"),
    ("feather", (F(0), F(1)), None, F(-5), "below"),
    ("feather", (F(0), F(1)), None, F(0), "below"),
    ("feather", (F(0), F(1)), None, F(-1, 2), "above"),
    ("feather", (F(0), F(1)), None, 0.5, "below"),
    ("two-origins", ml.MultiLinePoint(F(0), 1), None, F(1), "below"),
    ("doubled", ml.MultiLinePoint(F(0), 0), 1, F(1), "below"),
    ("doubled", (F(0), F(1)), None, F(1), "below"),
]


def test_malformed_descriptor_rejected():
    for name, base, index, limit, direction in MALFORMED_DESCRIPTORS:
        with pytest.raises(PreconditionError):
            ke.space_of(name).descriptor(base, index, limit, direction)


def test_converges_refuses_another_spaces_descriptor():
    f, d = ke.FEATHER, ke.space_of("doubled")
    on_line = d.descriptor(ml.MultiLinePoint(F(0), 0), None, F(0), "below")
    with pytest.raises(PreconditionError, match="of this space"):
        f.converges(on_line, (F(0),))
    on_feather = f.descriptor((F(0), F(1)), None, F(1), "below")
    with pytest.raises(PreconditionError, match="of this space"):
        d.converges(on_feather, ml.MultiLinePoint(F(1), 0))


@given(feather_points())
def test_convergence_separation_link(p):
    # a sequence converging to both twins forbids separation
    f = ke.FEATHER
    q = fe.fp_twin(p)
    lower = p if fe.fp_is_strict(p) else q
    descr = f.descriptor(lower, None, lower[-1], "below")
    assert f.converges(descr, p) and f.converges(descr, q)
    ok, _ = f.separable(p, q)
    assert not ok


def test_multiline_descriptor_moves_coordinate_zero_only():
    d = ke.space_of("doubled")
    base = ml.MultiLinePoint(F(0), 0)
    assert d.converges(d.descriptor(base, 0, F(1), "below"), ml.MultiLinePoint(F(1), 1))
    for index in (3, 1, -1):
        with pytest.raises(PreconditionError):
            d.descriptor(base, index, F(1), "below")


def test_descriptor_terms_are_valid_points():
    f = ke.FEATHER
    descr = f.descriptor((F(0), F(1)), None, F(1), "below")
    for m in range(2, 8):
        fe.fp_validate(f.term(descr, m))


# ---------------------------------------------------------------------------
# Density.


def test_density_criteria():
    d = ke.space_of("doubled")
    assert d.dense([ml.full_wave(d.spec)])
    assert not d.dense([ml.Wave(d.spec, IntervalSet.of((0, POS_INF)))])
    f = ke.FEATHER
    assert f.dense([fe.strict_skeleton()])
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
    twin_chart = fe.fp_chart(f.parse_point("F(0,0)"), F(1, 2))
    assert f.union_twin_pair([twin_chart]) is None
    pair = f.union_twin_pair([fe.strict_skeleton(), twin_chart])
    assert set(pair) == {(F(0), F(0)), (F(0),)}


# unions whose twin pair F(0), F(0,0) is split between a skeleton handle
# and an interval or chart
SPLIT_UNIONS = [("strict-skeleton", lambda: fe.fp_chart(fe.FeatherPoint((0, 0)), 1)),
                ("strict-skeleton", lambda: ke.FEATHER.parse_basic("FI[(-1);(0,1)]")),
                ("strict-skeleton*flip(0,1)", lambda: ke.FEATHER.parse_basic("FI[(-1);(1)]"))]


@pytest.mark.parametrize("handle,basic", SPLIT_UNIONS, ids=["chart", "interval", "flipped"])
def test_a_twin_pair_split_between_a_handle_and_an_interval_is_found(handle, basic):
    f = ke.FEATHER
    basics = [f.parse_basic(handle), basic()]
    hausdorff, c = sp.hausdorff_open(f, basics)
    assert hausdorff is False and c.kind == "twin-pair"
    assert (c.payload["p"], c.payload["q"]) == ((F(0),), (F(0), F(0)))
    assert ke.verify_certificate(f, c) is True
    assert ke.verify_certificate(f, cert.hausdorff_open(basics)) is False


@pytest.mark.parametrize("flip", [fe.StraightenGen((F(0), F(1))), "flip"])
def test_a_hausdorff_open_handle_whose_flip_is_not_a_flip_is_rejected(flip):
    c = cert.hausdorff_open([fe.SkeletonHandle(flip)])
    assert ke.verify_certificate(ke.FEATHER, c) is False


INTS = st.integers(-2, 2).map(F)


@st.composite
def feather_intervals(draw):
    """An interval (u, v): v rises above u at u's last coordinate and may
    go on."""
    u = draw(feather_points(max_len=3, coords=INTS))
    v = u[:-1] + (u[-1] + draw(st.sampled_from([F(1), F(2)])),)
    for _ in range(draw(st.integers(0, 2))):
        v += (v[-1] + 1,)
    if draw(st.booleans()):
        v += (v[-1],)
    return fe.FeatherInterval(u, v)


feather_basics = st.one_of(
    feather_intervals(),
    st.builds(fe.fp_chart, feather_points(max_len=3, coords=INTS),
              st.sampled_from([F(1), F(1, 2)])),
    st.just(fe.strict_skeleton()),
    st.builds(lambda p: fe.SkeletonHandle(fe.FlipGen(p)),
              feather_points(max_len=3, coords=INTS).filter(lambda p: len(p) >= 2)))


def _brute_twin_pair(basics):
    """Whether some upper twin and its lower twin both lie in the union,
    over every feather point whose coordinates are the union's own: the
    ends of its intervals and charts and its pivots."""
    named = []
    for b in basics:
        if isinstance(b, fe.SkeletonHandle):
            named += [b.flip.pivot] if b.flip else []
        else:
            itv = b.interval if isinstance(b, fe.Chart) else b
            named += [itv.lower, itv.upper]
    coords = sorted({c for w in named for c in w})

    def in_union(w):
        return any(b.contains(w) for b in basics)
    # an interval holds no point longer than its upper end; one length more
    # lets a flipped skeleton show upper twins past its pivot
    longest = max(map(len, named), default=0) + 1
    for n in range(1, min(longest, len(coords)) + 1):
        for lower in itertools.combinations(coords, n):
            if in_union(lower + (lower[-1],)) and in_union(lower):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.lists(feather_basics, min_size=1, max_size=3))
def test_feather_union_twin_pair_agrees_with_brute_force(basics):
    pair = ke.FEATHER.union_twin_pair(basics)
    assert (pair is not None) is _brute_twin_pair(basics)
    if pair is not None:
        lower, upper = pair
        assert upper == lower + (lower[-1],)
        c = cert.twin_pair(lower, upper)
        assert ke.verify_certificate(ke.FEATHER, c)
        for w in pair:
            assert any(b.contains(w) for b in basics)


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
