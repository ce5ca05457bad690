"""Acceptance suite: ten exact-arithmetic criteria, each printing one
pass/fail line.  All randomness is drawn from a fixed-seed generator so the
suite is reproducible; tolerance everywhere is zero."""

import io
import json
import pathlib
import random
from contextlib import redirect_stdout
from fractions import Fraction

from featherline import cli
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline.intervals import CofiniteSet, IntervalSet

F = Fraction
SEED = 20240815
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _passed(n, text):
    print("criterion %d: PASS (%s)" % (n, text))


def rng():
    return random.Random(SEED)


def rand_rat(r, lo=-50, hi=50):
    return F(r.randint(lo, hi), r.randint(1, 12))


def rand_feather_point(r, max_len=5):
    n = r.randint(1, max_len)
    coords = set()
    while len(coords) < n:
        coords.add(rand_rat(r))
    p = tuple(sorted(coords))
    if r.random() < 0.5:
        p = p + (p[-1],)
    return p


def rand_ml_point(r, k):
    return ml.MultiLinePoint(rand_rat(r), r.randint(0, k - 1))


def rand_wave(r, spec):
    pairs = []
    for _ in range(r.randint(1, 3)):
        a, b = rand_rat(r), rand_rat(r)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    parts = IntervalSet.of(*pairs) if pairs else IntervalSet.of((-1, 1))
    lift = []
    for lo, hi in parts.intervals:
        if r.random() < 0.6:
            lift.append(((lo + hi) / 2, r.randint(1, spec.k - 1)))
    return ml.Wave(spec, parts, tuple(lift))


def image_wave(g, w):
    """The image of the wave `w` under the line generator `g`, built from
    the generator's fields: criterion 5's reference."""
    if type(g) is ml.ExchangeGen:
        lift = dict(w.lift)
        if w.parts.contains(g.at):
            i, j = g.levels
            level = lift.get(g.at, 0)
            lift[g.at] = j if level == i else i if level == j else level
        return ml.Wave(w.spec, w.parts, tuple((x, n) for x, n in lift.items() if n > 0))
    if type(g) is ml.TranslateGen:
        def f(x):
            return x + g.shift
    else:
        def f(x):
            return 2 * g.about - x
    ends = [tuple(sorted((f(lo), f(hi)))) for lo, hi in w.parts.intervals]
    return ml.Wave(w.spec, IntervalSet.of(*ends), tuple((f(x), n) for x, n in w.lift))


# ---------------------------------------------------------------------------


def test_criterion_1_twin_non_separability():
    r = rng()
    f = ke.FEATHER
    for _ in range(200):
        p = rand_feather_point(r)
        q = fe.fp_twin(p)
        ok, c = f.separable(p, q)
        assert not ok and c.kind == "twin-pair"
        assert ke.bounded_refuter(f, p, q) is None
        assert ke.verify_certificate(f, c)
    done = 0
    while done < 200:
        p, q = rand_feather_point(r), rand_feather_point(r)
        if p == q or fe.fp_twin(p) == q:
            continue
        ok, c = f.separable(p, q)
        assert ok and c.kind == "separated-by"
        assert ke.verify_certificate(f, c)
        assert f.meet_is_empty(c.payload["b1"], c.payload["b2"])
        done += 1
    _passed(1, "200 twin pairs refuter-checked non-separable; "
               "200 non-twin pairs separated with verified disjoint charts")


def test_criterion_2_flip_homogeneity():
    r = rng()
    for _ in range(500):
        s = rand_feather_point(r)
        if len(s) < 2:
            s = s + (s[-1] + 1,)
        x = rand_feather_point(r)
        y = fe.flip_apply(s, x)
        fe.fp_validate(y)
        assert fe.flip_apply(s, y) == x
    for _ in range(100):
        p = rand_feather_point(r)
        word, out = fe.normalize_to_line(p)
        assert out == (p[-1],)
        assert fe.replay(word, p) == (p[-1],)
        q = rand_feather_point(r)
        assert fe.replay(fe.fp_move(p, q), p) == q
    _passed(2, "flip involution on 500 inputs; normalization and "
               "translation words exact on 100 pairs")


def test_criterion_3_homotopy():
    r = rng()
    f = ke.FEATHER
    for _ in range(200):
        s = rand_feather_point(r)
        assert fe.homotopy_eval(F(0), s) == s
        if len(s) > 1:
            assert fe.homotopy_eval(F(1), s) == (s[0], s[0])
        assert len(fe.homotopy_eval(F(2), s)) == 1
    for _ in range(50):
        s = rand_feather_point(r, max_len=5)
        for t0 in (F(1), F(1, 2), F(1, 3), F(1, 4)):
            left, right = fe.homotopy_seam_limits(t0, s)
            assert left == right or fe.fp_twin(left) == right
            if left != right:
                lower = left if fe.fp_is_strict(left) else right
                descr = f.descriptor(lower, None, lower[-1], "below")
                assert f.converges(descr, left) and f.converges(descr, right)
            # grid points on both sides approach the seam values exactly
            n = int(1 / t0) if t0 != 1 else 1
            if len(s) - 1 >= n:
                eps = F(1, 1000)
                assert fe.homotopy_eval(t0 - eps, s)[:n] == s[:n]
    _passed(3, "endpoint identities on 200 points; all four seams land on "
               "equal-or-twin limits with certified convergence")


def test_criterion_4_convergence_lemma():
    r = rng()
    f = ke.FEATHER
    for _ in range(100):
        p = rand_feather_point(r)
        q = fe.fp_twin(p)
        lower = p if fe.fp_is_strict(p) else q
        upper = fe.fp_twin(lower)
        below = f.descriptor(lower, None, lower[-1], "below")
        assert f.converges(below, lower) and f.converges(below, upper)
        above = f.descriptor(lower, None, lower[-1], "above")
        assert f.converges(above, lower)
        assert not f.converges(above, upper)
    _passed(4, "100 twin pairs: from-below converges to both, "
               "from-above to exactly one")


def test_criterion_5_waves():
    r = rng()
    for spec in (ml.DOUBLED, ml.TRIPLED):
        for _ in range(500):
            w1, w2 = rand_wave(r, spec), rand_wave(r, spec)
            p = rand_ml_point(r, spec.k)
            m = ml.wave_meet(w1, w2)
            assert m.contains(p) == (w1.contains(p) and w2.contains(p))
        for _ in range(100):
            s = rand_rat(r)
            w = rand_wave(r, spec)
            p = rand_ml_point(r, spec.k)
            levels = (0, r.randint(1, spec.k - 1))
            for g in (ml.TranslateGen(s), ml.ExchangeGen(s, levels),
                      ml.ReflectGen(s)):
                assert image_wave(g, w).contains(g.apply(p)) == w.contains(p)
        for _ in range(200):
            p, q = rand_ml_point(r, spec.k), rand_ml_point(r, spec.k)
            assert ml.ml_replay(ml.ml_move(spec, p, q), p) == q
            if p != q:
                word = ml.ml_move(spec, p, q, involutive=True)
                assert ml.ml_replay(word, p) == q
                assert ml.ml_replay(word, q) == p
    _passed(5, "wave meets pointwise on 1000 probes per space; generators "
               "are wave bijections; 200 moves exact in each of D_2, D_3")


def test_criterion_6_two_point_removal():
    r = rng()
    tripled = ke.space_of("tripled")
    src = ml.MultiLinePoint(F(-1), 0)
    dst = ml.MultiLinePoint(F(1), 0)
    for i in range(3):
        for j in range(i + 1, 3):
            removed = [ml.MultiLinePoint(F(0), i), ml.MultiLinePoint(F(0), j)]
            links = ml.chain_connect(ml.TRIPLED, src, dst, removed, (-5, 5))
            assert links is not None
            c = ke.cert.chain(links, src, dst, removed)
            assert ke.verify_certificate(tripled, c)
    done = 0
    while done < 20:
        removed = [rand_ml_point(r, 3), rand_ml_point(r, 3)]
        s2, d2 = rand_ml_point(r, 3), rand_ml_point(r, 3)
        if s2 in removed or d2 in removed or s2 == d2:
            continue
        span = [abs(p.x) for p in (s2, d2)]
        window = (-max(span) - 2, max(span) + 2)
        links = ml.chain_connect(ml.TRIPLED, s2, d2, removed, window)
        assert links is not None
        c = ke.cert.chain(links, s2, d2, removed)
        assert ke.verify_certificate(tripled, c)
        done += 1
    removed = [ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)]
    assert ml.chain_connect(ml.TWO_ORIGINS, src, dst, removed, (-5, 5)) is None
    _passed(6, "all 6 level pairs at 0 and 20 random removals reconnected "
               "in D_3; two-origins control inconclusive")


def test_criterion_7_maximal_hausdorff_opens():
    r = rng()
    cases = [
        ("doubled", lambda: rand_ml_point(r, 2)),
        ("feather", lambda: rand_feather_point(r)),
        ("two-origins", lambda: ml.MultiLinePoint(F(0), r.randint(0, 1))
         if r.random() < 0.5 else ml.MultiLinePoint(rand_rat(r), 0)),
    ]
    for name, make in cases:
        space = ke.space_of(name)
        for _ in range(50):
            x = make()
            handle, c = sp.maximal_hausdorff_at(space, x)
            assert ke.verify_certificate(space, c)
            ok, _ = sp.hausdorff_open(space, [handle])
            assert ok and space.dense([handle])
            for outside, partner in c.payload["adjoin_samples"]:
                assert not space.member(outside, handle) and space.member(partner, handle)
                assert ke.verify_certificate(space, ke.cert.twin_pair(outside, partner))
    _passed(7, "50 points per space: handles Hausdorff and dense; every "
               "adjoined point breaks Hausdorffness with a verified twin pair")


def test_criterion_8_pipeline():
    r = rng()
    line = ke.space_of("line")
    probes = [ml.MultiLinePoint(F(n), 0) for n in range(1, 101)]
    report = sp.theorem_pipeline(line, [ml.MultiLinePoint(F(0), 0)],
                                 probes=probes)
    assert report["verdict"] == "separated-point-found"
    sep = report["stages"][-1]["results"]
    assert len(sep) == 100 and all(e["separable"] and e["verified"] for e in sep)
    doubled = ke.space_of("doubled")
    feather = ke.FEATHER
    sizes = [r.randint(1, 999) for _ in range(18)] + [1, 1000]
    for size in sizes[:10]:
        chosen = [ml.full_wave(doubled.spec)] + [
            ml.full_wave(doubled.spec, ((F(n), 1),)) for n in range(size - 1)]
        report = sp.theorem_pipeline(doubled, [ml.MultiLinePoint(F(0), 1)],
                                     chosen=chosen)
        assert report["verdict"] == "subcover-stage-failure"
        stage = report["stages"][-1]
        assert stage["id"] == "subcover" and stage["verified"]
    for size in sizes[10:]:
        chosen = [fe.fp_chart((F(n), F(n) + 1), F(1)) for n in range(size)]
        report = sp.theorem_pipeline(feather, [(F(0), F(1))], chosen=chosen)
        assert report["verdict"] == "subcover-stage-failure"
        stage = report["stages"][-1]
        assert stage["id"] == "subcover" and stage["verified"]
    _passed(8, "line pipeline separates x0 from 100 probes; D and F fail at "
               "the subcover stage for 20 subfamilies up to size 1000")


def test_criterion_9_compactness_chart():
    r = rng()
    for _ in range(50):
        excluded = sorted(r.sample(range(30), r.randint(0, 6)))
        cover = [CofiniteSet.excl(*excluded)]
        for n in excluded:
            others = [m for m in range(30) if m != n]
            cover.append(CofiniteSet.excl(*r.sample(others, r.randint(0, 4))))
        r.shuffle(cover)
        sub = sp.quasi_compact_subcover(cover)
        assert len(sub) <= len(excluded) + 1
        for n in range(31):
            assert any(c.contains(n) for c in sub)
    verdict, c = sp.diagonal_intersection(range(1000))
    assert verdict == "EMPTY"
    assert ke.verify_certificate(ke.COFINITE, c)
    assert len(c.payload["candidates"]) == 1000
    doubled = ke.space_of("doubled")
    feather = ke.FEATHER
    for _ in range(50):
        p = rand_ml_point(r, 2)
        eps = F(r.randint(1, 8), r.randint(1, 8))
        v = doubled.canonical_neighborhood(p, eps)
        cc, _ = sp.microcompact_neighborhood(doubled, p, v)
        assert ke.verify_certificate(doubled, cc)
        pf = rand_feather_point(r)
        vf = fe.fp_chart(pf, eps)
        cf, _ = sp.microcompact_neighborhood(feather, pf, vf)
        assert ke.verify_certificate(feather, cf)
    for space, p, v in (
            (doubled, ml.MultiLinePoint(F(0), 0),
             ml.Wave(doubled.spec, IntervalSet.of((-1, 1)))),
            (feather, (F(0), F(1)), fe.fp_chart((F(0), F(1)), F(1)))):
        chain = sp.microcompact_nesting(space, p, v, depth=5)
        radii = [x.payload["radius"] for x in chain]
        assert len(chain) == 5 and all(a > b for a, b in zip(radii, radii[1:]))
    _passed(9, "50 cofinite covers reduced to finite subcovers; EMPTY verdict "
               "excludes candidates 0..999; 100 compact neighborhoods "
               "verified; depth-5 nestings strictly decreasing")


def test_criterion_10_golden_files():
    cases = [(name, ["demo", name, "--format", "json"])
             for name in cli.DEMOS if name != "theorem2"]
    cases += [("theorem2-%s" % s, ["demo", "theorem2", "--space", s,
                                   "--format", "json"])
              for s in ("line", "doubled", "feather")]
    assert len(cases) == 15
    for name, argv in cases:
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(argv)
        expected = (GOLDEN_DIR / ("%s.json" % name)).read_bytes()
        assert buf.getvalue().encode() == expected, "golden mismatch: %s" % name
        json.loads(expected)
    _passed(10, "all 15 demo outputs byte-identical to committed golden files")
