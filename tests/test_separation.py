from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from featherline import certificates as cert
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline.intervals import CofiniteSet, IntervalSet
from featherline.rationals import PreconditionError

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10)


# ---------------------------------------------------------------------------
# Maximal Hausdorff dense opens.


def test_maximal_hausdorff_doubled_up_point():
    d = ke.space_of("doubled")
    x = ml.MultiLinePoint(F(0), 1)
    handle, c = sp.maximal_hausdorff_at(d, x)
    assert handle.lift == ((F(0), 1),)
    assert ke.verify_certificate(d, c)
    ok, _ = sp.hausdorff_open(d, [handle])
    assert ok and d.dense([handle])


def test_maximal_hausdorff_feather_twin():
    f = ke.FEATHER
    x = (F(0), F(0))
    handle, c = sp.maximal_hausdorff_at(f, x)
    assert handle.contains(x)
    assert ke.verify_certificate(f, c)
    assert f.dense([handle])


def test_maximal_hausdorff_two_origins():
    s = ke.space_of("two-origins")
    x = ml.MultiLinePoint(F(0), 0)
    handle, c = sp.maximal_hausdorff_at(s, x)
    assert handle.contains(x)
    assert not handle.contains(ml.MultiLinePoint(F(0), 1))
    assert ke.verify_certificate(s, c)


def test_adjoining_breaks_hausdorffness():
    d = ke.space_of("doubled")
    handle, c = sp.maximal_hausdorff_at(d, ml.MultiLinePoint(F(0), 1))
    for outside, partner in c.payload["adjoin_samples"]:
        assert not d.member(outside, handle) and d.member(partner, handle)
        assert ke.verify_certificate(d, cert.twin_pair(outside, partner))


def test_hausdorff_open_union_with_both_levels():
    d = ke.space_of("doubled")
    w1 = ml.Wave(d.spec, IntervalSet.of((-1, 1)), ((F(0), 1),))
    w2 = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    ok, bad = sp.hausdorff_open(d, [w1, w2])
    assert not ok and bad.kind == "twin-pair"
    ok, good = sp.hausdorff_open(d, [w2])
    assert ok and ke.verify_certificate(d, good)


def _with_point(c, key, value):
    return cert.Certificate(c.kind, dict(c.payload, **{key: value}))


def test_verify_certificate_checks_hausdorff_open():
    d = ke.space_of("doubled")
    handle, _ = sp.maximal_hausdorff_at(d, ml.MultiLinePoint(F(0), 1))
    ok, c = sp.hausdorff_open(d, [handle])
    assert ok and c.kind == "hausdorff-open" and ke.verify_certificate(d, c)
    # a wave lifted at 5 pairs up with the handle's own point there
    lifted = ml.Wave(d.spec, IntervalSet.of((4, 6)), ((F(5), 1),))
    assert not ke.verify_certificate(d, _with_point(c, "basics", (handle, lifted)))
    f = ke.FEATHER
    ok, c = sp.hausdorff_open(f, [fe.strict_skeleton()])
    assert ok and ke.verify_certificate(f, c)
    twin = fe.fp_chart(f.parse_point("F(0,0)"), F(1))
    assert not ke.verify_certificate(f, _with_point(c, "basics", (fe.strict_skeleton(), twin)))


@pytest.mark.parametrize("name", ["doubled", "feather"])
def test_a_hausdorff_open_certificate_with_extra_points_fails_the_schema(name):
    space = ke.space_of(name)
    handle, c = sp.maximal_hausdorff_at(space, space.chart_sample()[0])
    ok, good = sp.hausdorff_open(space, [handle])
    assert ok and cert.SCHEMA["hausdorff-open"] == (("basics", "basics"),)
    assert ke.verify_certificate(space, good) is True
    # a field the kind no longer has, even an empty one, is a rejection
    for extra in ((), (c.payload["x"],)):
        assert ke.verify_certificate(space, _with_point(good, "extra_points", extra)) is False


def test_verify_certificate_checks_baire_point():
    d = ke.space_of("doubled")
    members = (ml.full_wave(d.spec, ((F(0), 1),)),)
    probe = ml.Wave(d.spec, IntervalSet.of((-1, 2)))
    point, c = sp.baire_intersect(d, members, probe)
    assert c.kind == "baire-point" and ke.verify_certificate(d, c)
    assert not ke.verify_certificate(d, _with_point(c, "point", ml.MultiLinePoint(F(3), 0)))
    assert not ke.verify_certificate(d, _with_point(c, "point", ml.MultiLinePoint(F(0), 0)))
    f = ke.FEATHER
    probe = fe.fp_chart((F(0), F(1)), F(1, 2))
    point, c = sp.baire_intersect(f, (fe.strict_skeleton(),), probe)
    assert ke.verify_certificate(f, c)
    assert not ke.verify_certificate(f, _with_point(c, "point", (F(5),)))
    assert not ke.verify_certificate(f, _with_point(c, "point", point + (point[-1],)))


# ---------------------------------------------------------------------------
# Covers and the Lindelof failure.


def test_subcover_line_succeeds():
    line = ke.space_of("line")
    cover = sp.canonical_cover(line)
    covered, c = sp.subcover_attempt(line, cover, [ml.full_wave(line.spec)])
    assert covered and ke.verify_certificate(line, c)


def test_subcover_doubled_fails():
    d = ke.space_of("doubled")
    cover = sp.canonical_cover(d)
    chosen = [ml.full_wave(d.spec)] + [ml.full_wave(d.spec, ((F(n), 1),))
                                       for n in (0, 1, 2)]
    covered, c = sp.subcover_attempt(d, cover, chosen)
    assert not covered
    assert c.payload["point"] == ml.MultiLinePoint(F(3), 1)
    assert ke.verify_certificate(d, c)


def test_subcover_feather_fails():
    f = ke.FEATHER
    cover = sp.canonical_cover(f)
    chosen = [fe.fp_chart((F(n), F(n) + 1), F(1)) for n in range(3)]
    covered, c = sp.subcover_attempt(f, cover, chosen)
    assert not covered and ke.verify_certificate(f, c)


def test_subcover_rejects_foreign_basic():
    d = ke.space_of("doubled")
    cover = sp.canonical_cover(d)
    alien = ml.Wave(d.spec, IntervalSet.of((0, 1)))  # not a full-line wave
    with pytest.raises(PreconditionError):
        sp.subcover_attempt(d, cover, [alien])


def _cover_offers(spec, other):
    """One basic of each shape a subcover may be offered.  Waves take the
    space's own spec, or the doubled line's where it has no upper level."""
    lifted = spec if spec is not None and spec.k > 1 else ml.DOUBLED
    return {
        "full wave": ml.full_wave(spec or ml.DOUBLED),
        "one lift": ml.full_wave(lifted, ((F(0), 1),)),
        "two lifts": ml.full_wave(lifted, ((F(0), 1), (F(1), 1))),
        "partial wave": ml.Wave(spec or ml.DOUBLED, IntervalSet.of((0, 1))),
        "chart": fe.fp_chart((F(0), F(1)), F(1)),
        "feather interval": fe.FeatherInterval((F(0), F(1, 2)), (F(0), F(1), F(3))),
        "other spec": ml.full_wave(other),
    }


# (space, spec of the "other spec" offer, verdicts in the order of the offers)
COVER_TABLE = {
    "line": (ml.DOUBLED, ("covers", "rejected", "rejected", "rejected", "rejected",
                          "rejected", "rejected")),
    "doubled": (ml.TRIPLED, ("uncovered", "uncovered", "rejected", "rejected", "rejected",
                             "rejected", "uncovered")),
    "tripled": (ml.DOUBLED, ("uncovered", "uncovered", "rejected", "rejected", "rejected",
                             "rejected", "uncovered")),
    "feather": (ml.TRIPLED, ("rejected", "rejected", "rejected", "rejected", "uncovered",
                             "rejected", "rejected")),
}

# A full-line wave of another spec is not in a line's cover.  The verdicts
# above admit it on the doubled and tripled lines, as a cover that read no
# spec did; only an in-process caller can offer one, since the CLI parses
# with the space's own spec.
SPEC_CHECKED = {("doubled", "other spec"), ("tripled", "other spec")}


@pytest.mark.parametrize("name", sorted(COVER_TABLE))
def test_cover_membership_table(name):
    space = ke.space_of(name)
    other, verdicts = COVER_TABLE[name]
    cover = sp.canonical_cover(space)
    offers = _cover_offers(space.spec, other)
    got = []
    for b in offers.values():
        try:
            covered, c = sp.subcover_attempt(space, cover, [b])
        except PreconditionError as exc:
            assert str(exc) == "chosen basic %s is not in the cover" % (b,)
            got.append("rejected")
            continue
        assert ke.verify_certificate(space, c)
        got.append("covers" if covered else "uncovered")
    expected = {offer: "rejected" if (name, offer) in SPEC_CHECKED else verdict
                for offer, verdict in zip(offers, verdicts)}
    assert dict(zip(offers, got)) == expected


@given(st.sets(st.integers(-20, 20), max_size=6))
def test_subcover_uncovered_for_any_subfamily(lifts):
    d = ke.space_of("doubled")
    cover = sp.canonical_cover(d)
    chosen = [ml.full_wave(d.spec)] + [ml.full_wave(d.spec, ((F(n), 1),))
                                       for n in sorted(lifts)]
    covered, c = sp.subcover_attempt(d, cover, chosen)
    assert not covered and ke.verify_certificate(d, c)


# ---------------------------------------------------------------------------
# Baire intersections.


def test_baire_finite_doubled():
    d = ke.space_of("doubled")
    members = (ml.full_wave(d.spec, ((F(0), 1),)), ml.full_wave(d.spec, ((F(1), 1),)))
    probe = ml.Wave(d.spec, IntervalSet.of((-1, 2)))
    point, c = sp.baire_intersect(d, members, probe)
    assert point.level == 0 and point.x not in (F(0), F(1))
    assert ke.verify_certificate(d, c)


def test_baire_finite_feather():
    f = ke.FEATHER
    members = (fe.strict_skeleton(), fe.skeleton_through((F(0), F(0))))
    probe = fe.fp_chart((F(0), F(1)), F(1, 2))
    point, c = sp.baire_intersect(f, members, probe)
    assert ke.verify_certificate(f, c)


def test_baire_rejects_non_dense_member():
    d = ke.space_of("doubled")
    small = ml.Wave(d.spec, IntervalSet.of((0, 1)))
    with pytest.raises(PreconditionError):
        sp.baire_intersect(d, (small,), ml.full_wave(d.spec))


def test_baire_cofinite_empty():
    n = ke.COFINITE
    verdict, c = sp.diagonal_intersection(range(50))
    assert verdict == "EMPTY"
    assert ke.verify_certificate(n, c)
    assert c.payload["candidates"][7] == 7


def test_dense_meet_of_maximal_opens_is_dense():
    d = ke.space_of("doubled")
    h1, _ = sp.maximal_hausdorff_at(d, ml.MultiLinePoint(F(0), 1))
    h2, _ = sp.maximal_hausdorff_at(d, ml.MultiLinePoint(F(1), 1))
    m = ml.wave_meet(h1, h2)
    assert d.dense([m])


# ---------------------------------------------------------------------------
# The pipeline.


def test_pipeline_line_succeeds():
    line = ke.space_of("line")
    samples = [ml.MultiLinePoint(F(0), 0)]
    probes = [ml.MultiLinePoint(F(n), 0) for n in range(1, 4)]
    report = sp.theorem_pipeline(line, samples, probes=probes)
    assert report["verdict"] == "separated-point-found"
    ids = [s["id"] for s in report["stages"]]
    assert ids == ["lemma-zorn", "subcover", "baire", "separate"]
    assert all(s.get("verified", True) for s in report["stages"])


def test_pipeline_doubled_fails_at_subcover():
    d = ke.space_of("doubled")
    report = sp.theorem_pipeline(d, [ml.MultiLinePoint(F(0), 1)])
    assert report["verdict"] == "subcover-stage-failure"
    assert report["stages"][-1]["id"] == "subcover"
    assert report["stages"][-1]["verified"]


def test_pipeline_feather_fails_at_subcover():
    f = ke.FEATHER
    report = sp.theorem_pipeline(f, [(F(0), F(1))])
    assert report["verdict"] == "subcover-stage-failure"


# ---------------------------------------------------------------------------
# Quasi-compactness and microcompactness.


def test_quasi_compact_subcover():
    sub = sp.quasi_compact_subcover([CofiniteSet.excl(1), CofiniteSet.excl(2)])
    assert sub == [CofiniteSet.excl(1), CofiniteSet.excl(2)]
    assert sp.quasi_compact_subcover([CofiniteSet.ground()]) == [CofiniteSet.ground()]
    with pytest.raises(PreconditionError):
        sp.quasi_compact_subcover([CofiniteSet.excl(1)])
    with pytest.raises(PreconditionError):
        sp.quasi_compact_subcover([CofiniteSet.empty()])


def test_microcompact_examples():
    d = ke.space_of("doubled")
    p = ml.MultiLinePoint(F(0), 0)
    v = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    c, interior = sp.microcompact_neighborhood(d, p, v)
    assert ke.verify_certificate(d, c)
    assert d.basic_subset(interior, v)
    f = ke.FEATHER
    pf = (F(0), F(1))
    cf, _ = sp.microcompact_neighborhood(f, pf, fe.fp_chart(pf, F(1)))
    assert ke.verify_certificate(f, cf)


def test_microcompact_requires_membership():
    d = ke.space_of("doubled")
    v = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    with pytest.raises(PreconditionError):
        sp.microcompact_neighborhood(d, ml.MultiLinePoint(F(5), 0), v)


def test_microcompact_nesting_strict():
    d = ke.space_of("doubled")
    p = ml.MultiLinePoint(F(0), 0)
    v = ml.Wave(d.spec, IntervalSet.of((-1, 1)))
    chain = sp.microcompact_nesting(d, p, v, depth=5)
    radii = [c.payload["radius"] for c in chain]
    assert len(chain) == 5
    assert all(a > b for a, b in zip(radii, radii[1:]))


def _restarting_nesting(space, p, v, depth):
    """The nesting with every level's search restarted at radius 1."""
    chain, cur = [], v
    for _ in range(depth):
        c, cur = sp.microcompact_neighborhood(space, p, cur)
        chain.append(c)
    return chain


def _nesting_case(name):
    line, doubled, f = ke.space_of("line"), ke.space_of("doubled"), ke.FEATHER
    twin, deep = (F(0), F(1), F(1)), (F(-1), F(2, 7), F(5, 3))
    return {
        "line": (line, ml.MultiLinePoint(F(1, 3), 0),
                 ml.Wave(line.spec, IntervalSet.of((-1, 1)))),
        "doubled-up": (doubled, ml.MultiLinePoint(F(0), 1),
                       ml.Wave(doubled.spec, IntervalSet.of((-1, 1)), ((F(0), 1),))),
        "doubled-down": (doubled, ml.MultiLinePoint(F(1, 2), 0),
                         ml.Wave(doubled.spec, IntervalSet.of((0, 3)))),
        "feather-strict": (f, (F(0), F(1)), fe.FeatherInterval((F(0), F(0)), (F(0), F(2)))),
        "feather-twin": (f, twin, fe.fp_chart(twin, F(1, 3))),
        # a chart clamped below the first radius tried
        "feather-clamped": (f, (F(0), F(1, 8)), fe.fp_chart((F(0), F(1, 8)), F(1))),
        "feather-deep": (f, deep, fe.FeatherInterval((F(-1), F(0)), (F(-1), F(2, 7), F(3)))),
    }[name]


@pytest.mark.parametrize("depth", [5, 30])
@pytest.mark.parametrize("name", ["line", "doubled-up", "doubled-down", "feather-strict",
                                  "feather-twin", "feather-clamped", "feather-deep"])
def test_microcompact_nesting_gives_the_chain_of_restarted_searches(name, depth):
    space, p, v = _nesting_case(name)
    chain = sp.microcompact_nesting(space, p, v, depth=depth)
    assert repr(chain) == repr(_restarting_nesting(space, p, v, depth))
    assert all(ke.verify_certificate(space, c) for c in chain)


def test_microcompact_nesting_makes_a_linear_number_of_subset_tests(monkeypatch):
    calls = []
    original = ke.FeatherSpace.basic_subset

    def counting(self, small, big):
        calls.append(None)
        return original(self, small, big)

    monkeypatch.setattr(ke.FeatherSpace, "basic_subset", counting)
    p, v = (F(0), F(1)), fe.FeatherInterval((F(0), F(0)), (F(0), F(2)))
    counts = {}
    for depth in (50, 100):
        calls.clear()
        sp.microcompact_nesting(ke.FEATHER, p, v, depth=depth)
        counts[depth] = len(calls)
    # the first level fits at radius 1; each later one rejects the radius
    # that fitted last and takes its half (restarting at 1: d(d+1)/2)
    assert counts == {50: 99, 100: 199}


def test_chart_of_implications():
    rows = sp.chart_of_implications()
    for name in ("line", "doubled", "feather"):
        assert rows[name]["locally_compact"]
        assert rows[name]["microcompact"]
        assert rows[name]["baire_finite"]
    assert rows["cofinite"]["quasi_compact"]
    assert rows["cofinite"]["microquasi_compact"]
    assert not rows["cofinite"]["baire"]
    assert rows["cofinite"]["empty_intersection"]
    assert rows["cofinite"]["certificate_verified"]
