"""The verifier decides non-separability at every scale from each space's
affine chart forms: the forms are the real charts, the uniform check agrees
with the paper's characterization, it makes no refuter call, and it rejects
pairs that separate only below the refuter's scales and points that are not
points of the space."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from featherline import certificates as cert
from featherline import cli
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline.intervals import CofiniteSet, IntervalSet
from featherline.rationals import NEG_INF, POS_INF

F = Fraction

MULTILINE = ("line", "doubled", "tripled", "two-origins")
rationals = st.fractions(min_value=-10, max_value=10)
scales = st.fractions(min_value=F(1, 1024), max_value=2)
# a step small enough to slip past the refuter's smallest scale, 1/8
steps = st.sampled_from([F(1), F(1, 3), F(1, 8), F(1, 32), F(1, 1000)])


@st.composite
def feather_points(draw, max_len=4):
    n = draw(st.integers(1, max_len))
    p = tuple(sorted(draw(st.lists(rationals, min_size=n, max_size=n, unique=True))))
    if draw(st.booleans()):
        p = p + (p[-1],)
    return p


@st.composite
def points(draw, name):
    space = ke.space_of(name)
    if name == "feather":
        return draw(feather_points())
    if name == "branch":
        return ml.branch_point(draw(rationals), draw(st.sampled_from("LR")))
    if name == "cofinite":
        return draw(st.integers(0, 50))
    spec = space.spec
    x = F(0) if spec.doubling != "all" and draw(st.booleans()) else draw(rationals)
    level = draw(st.integers(0, spec.k - 1)) if spec.is_doubled(x) else 0
    return ml.MultiLinePoint(x, level)


@st.composite
def near_pairs(draw, name):
    """A point and a partner: its non-separable partner when it has one, a
    point a small step away (or that point's twin), or any point."""
    space = ke.space_of(name)
    p = draw(points(name))
    step = draw(steps)
    kind = draw(st.sampled_from(["partner", "shifted", "any"]))
    if kind == "any":
        return space, p, draw(points(name))
    if name == "feather":
        if kind == "partner":
            return space, p, fe.fp_twin(p)
        q = p[:-1] + (p[-1] + step,)
        return space, p, fe.fp_twin(q) if draw(st.booleans()) else q
    if name == "branch":
        sides = draw(st.sampled_from(["LR", "RL", "LL", "RR"]))
        x = F(0) if kind == "partner" else p.x
        dx = 0 if kind == "partner" else step * draw(st.sampled_from([1, -1]))
        return space, ml.branch_point(x, sides[0]), ml.branch_point(x + dx, sides[1])
    if name == "cofinite":
        return space, p, p + 1
    spec = space.spec
    if kind == "partner":
        levels = range(spec.k) if spec.is_doubled(p.x) else [0]
        return space, p, ml.MultiLinePoint(p.x, draw(st.sampled_from(levels)))
    return space, p, ml.MultiLinePoint(p.x + step * draw(st.sampled_from([1, -1])), 0)


ALL_SPACES = ("feather",) + MULTILINE + ("branch", "cofinite")


def _at(end, rho):
    a, b = end
    return a + b * rho


# ---------------------------------------------------------------------------
# The chart forms are the charts.


@pytest.mark.parametrize("name", ALL_SPACES)
@given(data=st.data(), eps=scales)
def test_form_at_the_clamped_radius_is_the_canonical_chart(name, data, eps):
    space = ke.space_of(name)
    p = data.draw(points(name))
    form = space.chart_form(p)
    assert form.nested()
    assert (form.shared_below is None) == (name != "branch")
    rho = eps if form.cap is None else min(eps, form.cap)
    chart = space.canonical_neighborhood(p, eps)
    arms = [(k, _at(lo, rho), _at(hi, rho), closed) for k, lo, hi, closed in form.arms]
    if name == "feather":
        assert tuple(fe.Arm(*arm) for arm in arms) == chart.arms()
        assert chart.radius == rho
    elif name == "branch":
        [(side, lo, hi, _)] = arms
        assert ml.BranchInterval(lo, hi, side) == chart
        # the other side's points lie in the chart where they are negative
        assert form.shared_below == (0, 0)
    elif name == "cofinite":
        assert [(lo, hi) for _, lo, hi, _ in arms] == [(NEG_INF, POS_INF)]
        assert CofiniteSet(form.excluded) == chart
    else:
        [(level, lo, hi, _)] = arms
        lift = tuple((x, p.level) for x in form.excluded)
        assert level == 0
        assert ml.Wave(space.spec, IntervalSet(((lo, hi),)), lift) == chart


# ---------------------------------------------------------------------------
# The uniform check against the characterization and the refuter.


@pytest.mark.parametrize("name", ALL_SPACES)
@given(data=st.data())
def test_uniform_check_accepts_exactly_the_non_separable_pairs(name, data):
    space, p, q = data.draw(near_pairs(name))
    uniform = ke._non_separable_at_every_scale(space, p, q)
    assert uniform == (p != q and space.non_separable_pair(p, q))
    if uniform:
        assert ke.bounded_refuter(space, p, q) is None


@pytest.mark.parametrize("name", ALL_SPACES[:-1])  # cofinite: no scale to leave by
@given(data=st.data(), shift=st.sampled_from([F(1, 1000), F(-1, 1000), F(1), F(-1)]))
def test_a_common_point_shifted_out_of_a_chart_is_rejected(name, data, shift):
    space, p, q = data.draw(near_pairs(name))
    if p == q or not space.non_separable_pair(p, q):
        return
    key, (a, b) = space.common_point(p, q)
    assert ke._in_both_charts(space, p, q, key, (a, b))
    assert not ke._in_both_charts(space, p, q, key, (a + shift, b))
    assert not ke._in_both_charts(space, p, q, key, (a, b + 2))


@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals),
       st.fractions(min_value=F(1, 100), max_value=1))
def test_margins_decide_as_the_affine_rule(hi, lo, r):
    # an affine f is positive on (0, r] exactly when f(0) >= 0 and f(r) > 0
    a, b = hi[0] - lo[0], hi[1] - lo[1]
    expected = a >= 0 and a + b * r > 0
    assert ke._above(hi, lo, r) == expected
    if expected:
        assert all(_at(hi, d) > _at(lo, d) for d in (r, r / 2, r / 1000))


# ---------------------------------------------------------------------------
# Certificates the refuter's scales cannot tell apart.

D0 = ml.MultiLinePoint(F(0), 0)


@pytest.mark.parametrize("name,outside,partner,x", [
    ("doubled", D0, ml.MultiLinePoint(F(1, 32), 0), ml.MultiLinePoint(F(0), 1)),
    # apart only below scale 1/128
    ("feather", (F(0), F(65, 64), F(65, 64)), (F(0), F(1)), (F(0), F(1))),
], ids=["D(0)-D(1/32)", "F(0,65/64,65/64)-F(0,1)"])
def test_pairs_apart_only_below_the_refuter_scales_are_rejected(monkeypatch, name, outside,
                                                                 partner, x):
    space = ke.space_of(name)
    assert ke.bounded_refuter(space, outside, partner) is None
    handle, c = sp.maximal_hausdorff_at(space, x)
    assert not space.member(outside, handle) and space.member(partner, handle)
    c.payload["adjoin_samples"] = ((outside, partner),)
    monkeypatch.setattr(type(space), "non_separable_pair", lambda *a: True)
    assert not ke.verify_certificate(space, cert.twin_pair(partner, outside))
    assert not ke.verify_certificate(space, cert.twin_pair(outside, partner))
    assert not ke.verify_certificate(space, c)


OFF_SPACE = [
    ("two-origins", ml.MultiLinePoint(F(1), 1), ml.MultiLinePoint(F(1), 0)),
    ("tripled", ml.MultiLinePoint(F(0), 5), D0),
    ("branch", ml.BranchPoint(F(-1), "R"), ml.BranchPoint(F(-1), "L")),
    ("feather", (F(0), F(0), F(0)), (F(0), F(0))),
    ("cofinite", -1, 3),
]


@pytest.mark.parametrize("name,outside,partner", OFF_SPACE, ids=[c[0] for c in OFF_SPACE])
def test_points_off_the_space_are_rejected(name, outside, partner):
    space = ke.space_of(name)
    assert not space.is_point(outside) and space.is_point(partner)
    assert not ke.verify_certificate(space, cert.twin_pair(outside, partner))
    maximal = cert.maximal_hausdorff(partner, None, ((outside, partner),))
    assert not ke.verify_certificate(space, maximal)


@pytest.mark.parametrize("name,outside,partner", OFF_SPACE[:2], ids=["two-origins", "tripled"])
def test_chart_forms_alone_would_accept_off_space_points(monkeypatch, name, outside, partner):
    # the forms hold for any abscissa and level, so the boundary's point
    # validation is what rejects these
    space = ke.space_of(name)
    assert ke._non_separable_at_every_scale(space, outside, partner)
    handle, c = sp.maximal_hausdorff_at(space, partner)
    c.payload["adjoin_samples"] = ((outside, partner),)
    monkeypatch.setattr(type(space), "is_point", lambda self, x: True)
    assert ke.verify_certificate(space, cert.twin_pair(outside, partner))
    assert ke.verify_certificate(space, c)
    monkeypatch.undo()
    assert not ke.verify_certificate(space, c)


# ---------------------------------------------------------------------------
# The verifier makes no refuter call.


def _produced_certificates(monkeypatch):
    """Every (space, certificate, answer) the demos, the pipeline and the
    twin and maximal paths verify."""
    seen = []
    verify = ke.verify_certificate

    def recording(space, c):
        answer = verify(space, c)
        seen.append((space, c, answer))
        return answer
    monkeypatch.setattr(ke, "verify_certificate", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        for name in cli.DEMOS:
            cli.main(["demo", name])
        for name in MULTILINE + ("feather",):
            cli.main(["demo", "theorem2", "--space", name])
    for name, p, q in [("feather", "F(0,1)", "F(0,1,1)"), ("feather", "F(2)", "F(2,2)"),
                       ("doubled", "D(0 @0)", "D(0 @1)"), ("tripled", "D(1 @2)", "D(1 @1)"),
                       ("two-origins", "D(0 @1)", "D(0 @0)"), ("branch", "B(0,R)", "B(0,L)"),
                       ("cofinite", "N(2)", "N(9)"), ("doubled", "D(0)", "D(1/32)")]:
        space = ke.space_of(name)
        p, q = space.parse_point(p), space.parse_point(q)
        ke.verify_certificate(space, space.separable(p, q)[1])
        if name not in ("branch", "cofinite"):
            ke.verify_certificate(space, sp.maximal_hausdorff_at(space, p)[1])
    monkeypatch.setattr(ke, "verify_certificate", verify)
    return seen


def test_the_verifier_makes_no_refuter_call(monkeypatch):
    seen = _produced_certificates(monkeypatch)
    kinds = {c.kind for _, c, _ in seen}
    assert {"twin-pair", "maximal-hausdorff", "separated-by", "covered", "uncovered"} <= kinds
    assert all(answer for _, c, answer in seen if c.kind in ("twin-pair", "maximal-hausdorff"))

    def refuter(*args):
        raise RuntimeError("the verifier called the refuter")
    monkeypatch.setattr(ke, "bounded_refuter", refuter)
    assert [ke.verify_certificate(s, c) for s, c, _ in seen] == [a for _, _, a in seen]


def test_a_certificate_missing_a_field_is_rejected(monkeypatch):
    d = ke.space_of("doubled")
    accepted = {"hausdorff-open": (d, sp.hausdorff_open(d, ml.full_wave(d.spec))[1])}
    for space, c, answer in _produced_certificates(monkeypatch):
        if answer:
            accepted.setdefault(c.kind, (space, c))
    assert set(accepted) == set(ke._CHECKS)
    for space, c in accepted.values():
        for field in set(c.payload) - {"involutive"}:  # an optional flag
            payload = {k: v for k, v in c.payload.items() if k != field}
            assert ke.verify_certificate(space, cert.Certificate(c.kind, payload)) is False, \
                (c.kind, field)


# ---------------------------------------------------------------------------
# Covers of the line with two origins.


def test_an_uncovered_point_off_the_space_is_rejected():
    # the certificate `subcover two-origins` once issued for a covering choice
    space = ke.space_of("two-origins")
    chosen = [space.cover_member(w) for w in ("W[(-inf,inf)-{}]", "W[(-inf,inf)-{0^1}]")]
    assert sp.subcover_attempt(space, sp.canonical_cover(space), chosen)[0]
    assert not ke.verify_certificate(space, cert.uncovered(ml.MultiLinePoint(F(1), 1), chosen))


def test_a_covered_certificate_must_cover_beyond_its_probes():
    # the probes lie in the chosen wave, but D(5) lies in none
    line = ke.space_of("line")
    probes = [ml.MultiLinePoint(F(n), 0) for n in (-1, 0, 1)]
    c = cert.covered(probes, [line.parse_basic("W[(-inf,5)u(5,inf)-{}]")])
    assert not ke.verify_certificate(line, c)
    full = line.parse_basic("W[(-inf,inf)-{}]")
    assert ke.verify_certificate(line, cert.covered(probes, [full]))


def test_a_covered_certificate_must_hold_every_upper_point():
    space = ke.space_of("two-origins")
    probes = [ml.MultiLinePoint(F(n), 0) for n in (-1, 0, 1)]
    c = cert.covered(probes, [space.parse_basic("W[(-inf,inf)-{}]")])
    assert not ke.verify_certificate(space, c)
