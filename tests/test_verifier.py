"""The verifier decides non-separability at every scale from each space's
affine chart forms: the forms are the real charts, the uniform check agrees
with the paper's characterization, it makes no refuter call, and it rejects
pairs that separate only below the refuter's scales and points that are not
points of the space.  It reads maximality off a maximal Hausdorff handle,
and the space operations it calls are a declared list."""

import ast
import collections
import contextlib
import importlib.util
import inspect
import io
import itertools
import pathlib
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
ROOT = pathlib.Path(__file__).resolve().parent.parent

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


# one argv per verb that issues a certificate, over the spaces it takes
CLI_CERTIFICATE_ARGVS = [
    ["separate", "feather", "F(0,1)", "F(0,1,1)"], ["separate", "branch", "B(0,R)", "B(1,R)"],
    ["twin", "F(0,1)"], ["flip", "F(0,1)", "F(0,2)"], ["normalize", "F(0,1,3)"],
    ["move", "feather", "F(0,1)", "F(2,3,4)"],
    ["move", "doubled", "D(0 @0)", "D(1 @1)", "--involutive"],
    ["chain", "tripled", "D(-1 @0)", "D(1 @0)", "--remove", "D(0 @0);D(0 @1)",
     "--window=-5,5"],
    ["maximal-hausdorff", "tripled", "D(0 @2)"],
    ["subcover", "two-origins", "W[(-inf,inf)-{}]", "W[(-inf,inf)-{0^1}]"],
    ["subcover", "feather", "F(0)"],
    ["baire", "doubled", "W[(-inf,inf)-{0^1}]", "--probe", "W[(-1,1)-{}]"],
    ["baire", "feather", "strict-skeleton", "--probe", "FI[(0);(1)]"],
    ["baire", "N", "--candidates", "3"],
    ["microcompact", "feather", "F(0,1)", "FI[(0,0);(0,2)]", "--depth", "2"],
]


def _produced_certificates(monkeypatch):
    """Every (space, certificate, answer) the demos, the pipeline, the CLI
    verbs and the twin and maximal paths verify."""
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
        for argv in CLI_CERTIFICATE_ARGVS:
            assert cli.main(argv) in (0, 3), argv
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


def test_every_certificate_is_verified_exactly_once(monkeypatch):
    # producers return certificates; whoever reports one verifies it, once
    seen = _produced_certificates(monkeypatch)
    counts = collections.Counter(id(c) for _, c, _ in seen)
    repeated = sorted({c.kind for _, c, _ in seen if counts[id(c)] > 1})
    assert not repeated, repeated


def _one_accepted_certificate_per_kind(monkeypatch):
    """{kind: (space, certificate)}: the first engine-made certificate of
    each kind that verifies."""
    accepted = {}
    for space, c, answer in _produced_certificates(monkeypatch):
        if answer:
            accepted.setdefault(c.kind, (space, c))
    return accepted


def test_a_certificate_missing_a_field_is_rejected(monkeypatch):
    accepted = _one_accepted_certificate_per_kind(monkeypatch)
    assert set(accepted) == set(ke._CHECKS)
    for space, c in accepted.values():
        for field in c.payload:
            payload = {k: v for k, v in c.payload.items() if k != field}
            assert ke.verify_certificate(space, cert.Certificate(c.kind, payload)) is False, \
                (c.kind, field)


def _wrong_shapes(space, value):
    """Values of the wrong shape for a payload field that holds `value`:
    no value, a negative int, text, another space's point, basic and word
    generator, the wrong container, and a collection of one wrong entry."""
    other = ke.space_of("doubled" if space is ke.FEATHER else "feather")
    point, basic, _ = other.chart_sample()
    gen = ml.TranslateGen(F(1)) if space is ke.FEATHER else fe.FeatherTranslateGen(F(1))
    yield from (None, -1, "x", point, basic, gen)
    if isinstance(value, (tuple, list)):
        yield list(value) if isinstance(value, tuple) else tuple(value)
    if space.is_point(value) or not isinstance(value, (tuple, frozenset, list, dict)):
        return
    if isinstance(value, dict):
        yield [1]
        yield from ({k: -1} for k in list(value)[:1])  # a negative index
    else:
        yield from (type(value)([e]) for e in (None, -1, point, basic, gen))
    if isinstance(value, list):
        yield value + value[:1]  # a 3-element interval
    first = next(iter(value), None)
    if type(first) is tuple and len(first) == 2 and all(map(space.is_point, first)):
        yield from (type(value)([pair]) for pair in (first[:1], first + first[:1], list(first)))


def test_a_payload_of_the_wrong_shape_is_rejected(monkeypatch):
    accepted = _one_accepted_certificate_per_kind(monkeypatch)
    raised, accepted_wrong = [], []
    for space, c in accepted.values():
        wrong = [list(c.payload.items()), tuple(c.payload.values()), None]
        cases = [("payload", c.kind, pl) for pl in wrong]
        for field, value in c.payload.items():
            cases += [(field, c.kind, dict(c.payload, **{field: bad}))
                      for bad in _wrong_shapes(space, value)]
        for field, kind, payload in cases:
            bad = cert.Certificate(kind)
            bad.payload = payload
            try:
                answer = ke.verify_certificate(space, bad)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure
                raised.append((kind, field, payload.get(field) if field != "payload"
                               else payload, type(exc).__name__))
                continue
            if answer is not False:
                accepted_wrong.append((kind, field, payload))
    assert not raised, raised
    assert not accepted_wrong, accepted_wrong
    assert set(accepted) == set(ke._CHECKS)


def test_the_schema_describes_every_kind_and_every_produced_payload(monkeypatch):
    assert set(cert.SCHEMA) == set(ke._CHECKS)
    assert {shape for fields in cert.SCHEMA.values() for _, shape in fields} <= set(ke._SHAPES)
    seen = _produced_certificates(monkeypatch)
    assert {c.kind for _, c, _ in seen} == set(cert.SCHEMA)
    for space, c, _ in seen:
        assert ke._fits_schema(space, c.kind, c.payload), c
    # each constructor lays its payload out in schema order, whatever the
    # argument order
    constructors = {c.kind: getattr(cert, "compact_cert" if c.kind == "compact"
                                    else c.kind.replace("-", "_")) for _, c, _ in seen}
    for _, c, _ in seen:
        names = [f for f, _ in cert.SCHEMA[c.kind]]
        assert list(c.payload) == names
        rebuilt = constructors[c.kind](**dict(reversed(c.payload.items())))
        assert list(rebuilt.payload) == names and rebuilt == c


# Two points and one basic of each space, in input syntax; the sweep adds
# each point's chart at radius 1.
SWEEP_SAMPLES = {
    "feather": (("F(0,1)", "F(0,1,1)"), "strict-skeleton"),
    "line": (("D(0)", "D(1)"), "W[(-inf,inf)-{}]"),
    "doubled": (("D(0 @1)", "D(1)"), "W[(-inf,inf)-{1^1}]"),
    "tripled": (("D(0 @2)", "D(1 @1)"), "W[(-inf,inf)-{0^1}]"),
    "two-origins": (("D(0 @1)", "D(1)"), "W[(-inf,inf)-{0^1}]"),
    "branch": (("B(0,L)", "B(0,R)"), "BI[(-1,1)@R]"),
    "cofinite": (("N(0)", "N(3)"), "cofinite-excl{0,1}"),
}
SAMPLE_GENERATORS = (fe.FlipGen((F(0), F(1))), fe.StraightenGen((F(0), F(1))),
                     fe.FeatherTranslateGen(F(1)), ml.TranslateGen(F(1)),
                     ml.ExchangeGen(F(0), (0, 1)), ml.ReflectGen(F(0)))


def _sweep_values(space, name):
    """Shape -> two values of that shape built from the space's own points,
    basics and word generators."""
    texts, basic = SWEEP_SAMPLES[name]
    p, q = map(space.parse_point, texts)
    b = space.parse_basic(basic)
    chart = space.canonical_neighborhood(p, F(1))
    word = tuple(g for g in SAMPLE_GENERATORS if type(g) in space.generators)
    return {
        "point": (p, q), "points": ((p,), (p, q)),
        "point set": (frozenset([p]), frozenset([p, q])),
        "point pairs": (((p, q),), ((q, p),)),
        "basic": (chart, b), "basics": ((chart,), (chart, b)),
        "word": ((), word), "rational": (F(1, 2), F(2)),
        "rationals": ([F(-1, 4), F(1, 4)], [F(0), F(0)]),
        "flag": (False, True), "name": ("cofinite-diagonal", "other"),
        "index map": ({p: 0}, {p: 1, q: 1}),
    }


def _sweep(name):
    """(kind, payload) for every combination of sampled field values."""
    space = ke.space_of(name)
    values = _sweep_values(space, name)
    for kind, fields in cert.SCHEMA.items():
        for combo in itertools.product(*(values[shape] for _, shape in fields)):
            yield kind, dict(zip((f for f, _ in fields), combo))


@pytest.mark.parametrize("name", ALL_SPACES)
def test_the_verifier_answers_every_well_shaped_payload(name):
    """Each payload passes the schema walk, so each reaches its check: the
    check answers True or False and raises nothing, also where the space
    lacks an operation the check asks for (chains on the feather, the
    excluded-by family off the cofinite space)."""
    space = ke.space_of(name)
    raised, answers = [], collections.Counter()
    for kind, payload in _sweep(name):
        assert ke._fits_schema(space, kind, payload), (kind, payload)
        try:
            answer = ke.verify_certificate(space, cert.Certificate(kind, payload))
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            raised.append((kind, type(exc).__name__, str(exc)))
            continue
        assert type(answer) is bool
        answers[answer] += 1
    assert not raised, raised
    assert answers[True] and answers[False], answers


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


# ---------------------------------------------------------------------------
# A compact neighbourhood: its closed interval holds the centre inside it.

# (space, centre, enclosing basic); None encloses in the centre's unit chart
COMPACT_CENTRES = [("line", "D(0)", "W[(-1,1)-{}]"), ("doubled", "D(0)", "W[(-1,1)-{}]"),
                   ("feather", "F(0,1)", None)]


@pytest.mark.parametrize("name, centre, enclosing", COMPACT_CENTRES)
@pytest.mark.parametrize("ends", [(F(0), F(0)), (F(1, 4), F(1, 3)), (F(-1, 3), F(-1, 4))],
                         ids=["the-centre-alone", "above-the-centre", "below-the-centre"])
def test_a_compact_interval_must_hold_its_centre_inside(name, centre, enclosing, ends):
    space = ke.space_of(name)
    p = space.parse_point(centre)
    v = space.parse_basic(enclosing) if enclosing else space.canonical_neighborhood(p, 1)
    assert ke.verify_certificate(space, cert.compact_cert(p, F(1), (F(-1, 2), F(1, 2)), v))
    assert not ke.verify_certificate(space, cert.compact_cert(p, F(1), ends, v))


# ---------------------------------------------------------------------------
# Homeomorphism words on the line family: each generator must map the space
# onto itself.


def _d(x, level=0):
    return ml.MultiLinePoint(F(x), level)


# (space, word, src, dst): each replays src to dst, but some generator maps
# points of the space off it
FORGED_WORDS = [
    ("two-origins", [ml.ReflectGen(F(1, 2))], _d(0), _d(1)),
    ("two-origins", [ml.TranslateGen(F(1))], _d(5), _d(6)),
    ("two-origins", [ml.ExchangeGen(F(3), (0, 1))], _d(5), _d(5)),
    ("line", [ml.ExchangeGen(F(0), (0, 1))], _d(5), _d(5)),
    ("doubled", [ml.ExchangeGen(F(0), (0, 2))], _d(5), _d(5)),
]
GENUINE_WORDS = [
    ("two-origins", [ml.TranslateGen(F(0))], _d(0, 1), _d(0, 1)),
    ("two-origins", [ml.ReflectGen(F(0))], _d(0, 1), _d(0, 1)),
    ("two-origins", [ml.ExchangeGen(F(0), (0, 1))], _d(0), _d(0, 1)),
    ("line", [ml.TranslateGen(F(1)), ml.ReflectGen(F(1, 2))], _d(5), _d(-5)),
    ("tripled", [ml.ExchangeGen(F(1), (2, 0))], _d(1), _d(1, 2)),
]


@pytest.mark.parametrize("name,word,src,dst", FORGED_WORDS + GENUINE_WORDS,
                         ids=["forged-%d" % i for i in range(len(FORGED_WORDS))]
                         + ["genuine-%d" % i for i in range(len(GENUINE_WORDS))])
def test_a_word_verifies_only_if_each_generator_maps_the_space_onto_itself(name, word, src,
                                                                           dst):
    space = ke.space_of(name)
    assert space.replay(word, src) == dst
    c = cert.homeo_word(tuple(word), src, dst)
    assert ke.verify_certificate(space, c) is ((name, word, src, dst) in GENUINE_WORDS)


def _inverse(gen):
    # reflections and exchanges are involutions
    return ml.TranslateGen(-gen.shift) if type(gen) is ml.TranslateGen else gen


@st.composite
def line_generators(draw):
    x = st.one_of(st.sampled_from([F(0), F(1), F(-1, 2)]), rationals)
    kind = draw(st.sampled_from(["translate", "reflect", "exchange"]))
    if kind == "translate":
        return ml.TranslateGen(draw(x))
    if kind == "reflect":
        return ml.ReflectGen(draw(x))
    levels = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    return ml.ExchangeGen(draw(x), tuple(levels))


@pytest.mark.parametrize("name", MULTILINE)
@given(gen=line_generators(), xs=st.lists(rationals, max_size=3))
def test_the_generator_rule_agrees_with_images_of_points(name, gen, xs):
    """Brute force: the image and the preimage of every point over the
    doubled set (sampled where that is the whole line) and over the
    exchange's abscissa are points of the space."""
    space = ke.space_of(name)
    spec = space.spec
    over = set(xs) if spec.doubling == "all" else set(spec.doubling.elements)
    if type(gen) is ml.ExchangeGen:
        over.add(gen.at)
    points = [ml.MultiLinePoint(x, level) for x in over for level in range(spec.k)]
    points = [p for p in points if space.is_point(p)]
    brute = all(space.is_point(g.apply(p)) for p in points for g in (gen, _inverse(gen)))
    assert ke._maps_onto_itself(spec, gen) is brute


# ---------------------------------------------------------------------------
# Maximal Hausdorff handles: maximality is read off the handle, and the
# producer's `union_twin_pair` and `dense` take no part.


# (space, x, handle): x lies in the handle, no adjoin sample fails, but the
# handle is not maximal
NOT_MAXIMAL = [
    ("line", "D(1)", "W[(-inf,0)u(0,inf)-{}]"),  # R - {0}, inside the Hausdorff R
    ("doubled", "D(0 @1)", "W[(-inf,5)u(5,inf)-{0^1}]"),
]


@pytest.mark.parametrize("name,x,handle", NOT_MAXIMAL)
def test_a_handle_that_is_not_maximal_is_rejected(name, x, handle):
    space = ke.space_of(name)
    x, handle = space.parse_point(x), space.parse_basic(handle)
    assert space.member(x, handle) and not space.is_maximal_hausdorff(handle)
    assert ke.verify_certificate(space, cert.maximal_hausdorff(x, handle, ())) is False


def test_a_feather_chart_or_interval_handle_is_rejected():
    x = fe.fp_validate((F(0), F(1)))
    _, handle, samples = ke.FEATHER.maximal_hausdorff(x)
    assert ke.verify_certificate(ke.FEATHER, cert.maximal_hausdorff(x, handle, tuple(samples)))
    for basic in (fe.fp_chart(x, F(1)), fe.fp_chart(x, F(1, 8)),
                  ke.FEATHER.parse_basic("FI[(0,0);(0,5)]")):
        assert ke.FEATHER.member(x, basic)
        for adjoin in ((), tuple(samples)):
            c = cert.maximal_hausdorff(x, basic, adjoin)
            assert ke.verify_certificate(ke.FEATHER, c) is False, (basic, adjoin)


def test_a_skeleton_handle_whose_flip_is_not_a_flip_is_rejected_not_raised_on():
    # the schema walk checks only the handle's type; a handle holds no flip
    # or a FlipGen, and anything else in its place used to raise or verify
    x = fe.fp_validate((F(0), F(1), F(1)))
    _, handle, samples = ke.FEATHER.maximal_hausdorff(x)
    assert handle.flip is not None
    for flip in (fe.StraightenGen(handle.flip.pivot), "flip", ml.TranslateGen(F(1))):
        c = cert.maximal_hausdorff(x, fe.SkeletonHandle(flip), tuple(samples))
        assert ke.verify_certificate(ke.FEATHER, c) is False, flip


def test_a_wave_of_another_spec_is_rejected():
    # lifting 0 to level 1 on the doubled line; read on the line, it is R - {0}
    wave = ke.space_of("doubled").parse_basic("W[(-inf,inf)-{0^1}]")
    line = ke.space_of("line")
    x = ml.MultiLinePoint(F(1), 0)
    assert line.member(x, wave) and not line.is_maximal_hausdorff(wave)
    assert ke.verify_certificate(line, cert.maximal_hausdorff(x, wave, ())) is False


# handles built by `Wave.trusted`, which checks nothing: two lifts that
# `Wave(...)` refuses, and two lifts with a `_levels` that breaks them
FORGED_LIFTS = [
    ("two-origins", ((F(1), 1),), {(1, 1): 1}, True),  # 1 is not doubled
    ("doubled", ((F(0), 2),), {(0, 1): 2}, True),  # the doubled line has no level 2
    ("doubled", ((F(0), 1),), {}, False),  # `_levels` misses the lift
    ("tripled", ((F(0), 1),), {(0, 1): 2}, False),  # `_levels` reads another level
]


@pytest.mark.parametrize("name,lift,levels,refused", FORGED_LIFTS,
                         ids=["not-doubled", "level-2", "levels-missing", "levels-differ"])
def test_a_trusted_handle_with_a_forged_lift_is_rejected(name, lift, levels, refused):
    space = ke.space_of(name)
    if refused:
        with pytest.raises(ke.PreconditionError):
            ml.Wave(space.spec, IntervalSet.full_line(), lift)
    forged = ml.Wave.trusted(space.spec, IntervalSet.full_line(), lift, levels)
    x = ml.MultiLinePoint(F(5), 0)
    assert space.member(x, forged) and not space.is_maximal_hausdorff(forged)
    assert ke.verify_certificate(space, cert.maximal_hausdorff(x, forged, ())) is False
    # a lift to level 1 of the doubled abscissa 0, with its own map, verifies
    sound = ml.Wave.trusted(space.spec, IntervalSet.full_line(), ((F(0), 1),), {(0, 1): 1})
    assert ke.verify_certificate(space, cert.maximal_hausdorff(x, sound, ()))


@pytest.mark.parametrize("name,x,handle", [("branch", "B(0,L)", "BI[(-1,1)@L]"),
                                           ("cofinite", "N(0)", "cofinite-excl{}")])
def test_a_maximal_payload_on_a_space_without_maximal_handles_is_rejected(name, x, handle):
    space = ke.space_of(name)
    x, handle = space.parse_point(x), space.parse_basic(handle)
    with pytest.raises(ke.PreconditionError, match="is_maximal_hausdorff is not implemented"):
        space.is_maximal_hausdorff(handle)
    assert ke.verify_certificate(space, cert.maximal_hausdorff(x, handle, ())) is False


def _bench_pool(workload, seed):
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [op for rnd in gen.pool(workload, seed) for op in rnd]


def _maximal_points():
    """(space, point) pairs the engine builds maximal handles at: the
    lemma-zorn demo's, every pipeline sample, and the seeded wave-wide
    pipeline samples and feather-deep maximal points."""
    pairs = [(ke.space_of(name), ke.space_of(name).parse_point(p))
             for name, p in [("doubled", "D(0 @1)"), ("feather", "F(0,0)"),
                             ("two-origins", "D(0 @0)")]]
    for name in ("feather",) + MULTILINE:
        space = ke.space_of(name)
        pairs += [(space, p) for p in space.pipeline_sample()[0]]
    for op in _bench_pool("wave-wide", 7):
        if op["kind"] == "pipeline":
            space = ke.space_of(op["space"])
            pairs += [(space, space.parse_point(p)) for p in op["samples"]]
    pairs += [(ke.FEATHER, ke.FEATHER.parse_point(op["x"]))
              for op in _bench_pool("feather-deep", 7) if op["kind"] == "maximal"]
    return pairs


def test_engine_maximal_certificates_verify_without_twin_scan_or_density(monkeypatch):
    def raising(self, *args):
        raise RuntimeError("the verifier called %s" % type(self).__name__)
    for cls in (ke.Space, *ke.Space.__subclasses__()):
        monkeypatch.setattr(cls, "union_twin_pair", raising)
        monkeypatch.setattr(cls, "dense", raising)
    pairs = _maximal_points()
    assert len(pairs) > 100 and {s.tag for s, _ in pairs} == {"feather", "multiline"}
    for space, x in pairs:
        handle, c = sp.maximal_hausdorff_at(space, x)
        assert space.is_maximal_hausdorff(handle)
        assert ke.verify_certificate(space, c) is True, (space.tag, x)


# The line family by cells: a wave's open set and lifts are finitely many
# rational ends, so its points over every abscissa are known from the
# counts at the ends, the lifted abscissae, a midpoint between each pair of
# neighbours and one point beyond each extreme.


def _points_over(wave, x) -> int:
    lifted = {a for a, _ in wave.lift}
    down = any(lo < x < hi for lo, hi in wave.parts.intervals) and x not in lifted
    return int(down) + int(x in lifted)


def _test_abscissae(wave) -> list:
    ends = sorted({e for iv in wave.parts.intervals for e in iv if type(e) is Fraction}
                  | {a for a, _ in wave.lift})
    if not ends:
        return [F(0)]
    return ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])] + [ends[0] - 1, ends[-1] + 1]


def _oracle_maximal(wave) -> bool:
    """Whether the wave holds one point over every abscissa, read off the
    counts at its test abscissae; it never holds two (it is Hausdorff)."""
    counts = [_points_over(wave, x) for x in _test_abscissae(wave)]
    assert max(counts) <= 1
    return min(counts) == 1


ends = st.one_of(st.sampled_from([NEG_INF, POS_INF, F(0)]), rationals)


@st.composite
def line_waves(draw, name):
    """A wave of the named space from random rational parts, often two rays
    that overlap, touch or leave a gap, and random legal lifts."""
    space = ke.space_of(name)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3))
    if draw(st.booleans()):
        a = draw(rationals)
        pairs += [(NEG_INF, a), (a + draw(st.sampled_from([F(-1), F(0), F(1, 3)])), POS_INF)]
    parts = IntervalSet.of(*pairs)
    lift = {}
    for x in draw(st.lists(st.one_of(st.just(F(0)), rationals), max_size=4)):
        level = draw(st.integers(1, 2))
        if parts.contains(x) and space.is_point(ml.MultiLinePoint(x, level)):
            lift.setdefault(x, level)
    return space, ml.Wave(space.spec, parts, tuple(lift.items()))


@pytest.mark.parametrize("name", MULTILINE)
@given(data=st.data())
def test_line_family_maximality_agrees_with_the_cell_oracle(name, data):
    space, wave = data.draw(line_waves(name))
    maximal = _oracle_maximal(wave)
    assert space.is_maximal_hausdorff(wave) is maximal
    inside = [ml.MultiLinePoint(x, level) for x in _test_abscissae(wave)
              for level in range(space.spec.k) if wave.contains(ml.MultiLinePoint(x, level))]
    if inside:
        c = cert.maximal_hausdorff(inside[0], wave, ())
        assert ke.verify_certificate(space, c) is maximal


# ---------------------------------------------------------------------------
# The verifier's space calls, read off the source: a check that starts to
# ask the space something new shows up here.


VERIFIER_SPACE_CALLS = {
    "member", "meet_is_empty", "is_point", "basic_kind", "generators", "spec", "connected",
    "replay", "chart_form", "common_point", "canonical_neighborhood", "covered_by",
    "basic_subset", "union_twin_pair", "is_maximal_hausdorff",
}


def _verifier_functions():
    """The top-level statements of `kernel` that make up the verifier:
    `_CHECKS`, `_SHAPES` and `verify_certificate`, and every module function
    they reach by name."""
    tree = ast.parse(inspect.getsource(ke))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo = [n for n in tree.body if isinstance(n, (ast.Assign, ast.Expr)) and any(
        isinstance(a, ast.Name) and a.id in ("_CHECKS", "_SHAPES") for a in ast.walk(n))]
    todo.append(defs["verify_certificate"])
    reached = {}
    while todo:
        node = todo.pop()
        reached[getattr(node, "name", id(node))] = node
        todo += [defs[a.id] for a in ast.walk(node) if isinstance(a, ast.Name)
                 and a.id in defs and a.id not in reached]
    return reached


def _space_reads(node) -> set:
    return {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)
            and isinstance(a.value, ast.Name) and a.value.id == "space"}


def test_the_verifier_asks_the_space_only_the_declared_operations():
    reached = _verifier_functions()
    assert {"_fits_schema", "_verify_maximal", "_verify_chain", "_verify_word",
            "_verify_compact", "_maps_onto_itself", "_non_separable_at_every_scale",
            "_in_both_charts", "_in_chart_form", "_above"} <= set(reached)
    assert not any(name in reached for name in ("_separate", "bounded_refuter", "_down_union"))
    assert set().union(*map(_space_reads, reached.values())) == VERIFIER_SPACE_CALLS
    assert _space_reads(reached["_verify_maximal"]) == {"is_maximal_hausdorff", "member"}
