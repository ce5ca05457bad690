"""Batch command-line front end: every engine operation plus a gallery of
scripted demos with deterministic JSON output.

Exit status encodes the verdict: 0 for positive verdicts, 1 for parse
errors, 2 for precondition errors, 3 for expected negative verdicts
(non-separable pairs, failed subcovers, EMPTY intersections, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import kernel as ke
from . import multiline as ml
from . import separation as sp
from .intervals import CofiniteSet, FinSet, IntervalSet
from .rationals import ParseError, PreconditionError, parse_ext, parse_rat
from .syntax import jsonable

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NEGATIVE = 3


def _render(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(jsonable(report), indent=2))
        out.write("\n")
        return
    out.write("verdict: %s\n" % jsonable(report["verdict"]))
    for key, value in report.items():
        if key in ("command", "verdict"):
            continue
        out.write("%s: %s\n" % (key, json.dumps(jsonable(value))))


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns (report dict, exit code).


def cmd_separate(args):
    space = ke.space_of(args.space)
    p = space.parse_point(args.p)
    q = space.parse_point(args.q)
    ok, c = space.separable(p, q)
    report = {
        "command": "separate %s %s %s" % (args.space, args.p, args.q),
        "verdict": "separable" if ok else "NOT separable: twin pair",
        **ke.verified(space, c),
        "citations": ["separation-of-points"],
    }
    return report, EXIT_OK if ok else EXIT_NEGATIVE


def cmd_twin(args):
    p = ke.FEATHER.parse_point(args.p)
    tw = fe.fp_twin(p)
    report = {
        "command": "twin %s" % args.p,
        "verdict": tw,
        **ke.verified(ke.FEATHER, cert.twin_pair(p, tw)),
        "citations": ["complete-feather", "twin-pairs"],
    }
    return report, EXIT_OK


def cmd_flip(args):
    s = ke.FEATHER.parse_point(args.s)
    r = ke.FEATHER.parse_point(args.r)
    out = fe.flip_apply(s, r)
    c = cert.homeo_word((fe.FlipGen(s),), r, out, involutive=True)
    report = {
        "command": "flip %s %s" % (args.s, args.r),
        "verdict": out,
        **ke.verified(ke.FEATHER, c),
        "citations": ["complete-feather", "flip-homeomorphisms"],
    }
    return report, EXIT_OK


def cmd_normalize(args):
    p = ke.FEATHER.parse_point(args.p)
    word, out = fe.normalize_to_line(p)
    report = {
        "command": "normalize %s" % args.p,
        "verdict": out,
        **ke.verified(ke.FEATHER, cert.homeo_word(word, p, out)),
        "citations": ["complete-feather", "homogeneity"],
    }
    return report, EXIT_OK


def cmd_homotopy(args):
    space = ke.space_of(args.space)
    s = space.parse_point(args.p)
    t = parse_rat(args.t)
    out = space.homotopy(t, s)
    report = {
        "command": "homotopy %s %s --t %s" % (args.space, args.p, args.t),
        "verdict": out,
        "certificate": {"t": t, "input": s, "output": out},
        "citations": ["complete-feather", "contraction-homotopy"],
    }
    return report, EXIT_OK


def cmd_chart(args):
    space = ke.space_of(args.space)
    p = space.parse_point(args.p)
    eps = parse_rat(args.eps)
    b = space.canonical_neighborhood(p, eps)
    report = {
        "command": "chart %s %s --eps %s" % (args.space, args.p, args.eps),
        "verdict": b,
        "certificate": {"member": space.member(p, b)},
        "citations": ["canonical-neighborhoods"],
    }
    return report, EXIT_OK


def cmd_meet(args):
    space = ke.space_of(args.space)
    b1 = space.parse_basic(args.b1)
    b2 = space.parse_basic(args.b2)
    parts = space.meet(b1, b2)
    report = {
        "command": "meet %s %s %s" % (args.space, args.b1, args.b2),
        "verdict": "nonempty" if parts else "empty",
        "certificate": {"parts": parts},
        "citations": ["basis-closed-under-meet"],
    }
    return report, EXIT_OK if parts else EXIT_NEGATIVE


def cmd_dense(args):
    space = ke.space_of(args.space)
    basics = [space.parse_basic(b) for b in args.basics]
    verdict = space.dense(basics)
    payload = {"basics": basics}
    witness = None if verdict else space.density_witness(basics)
    if witness is not None:
        payload["missed-by"] = witness
    report = {
        "command": "dense %s %s" % (args.space, " ".join(args.basics)),
        "verdict": "dense" if verdict else "not dense",
        "certificate": payload,
        "citations": ["density-criteria"],
    }
    return report, EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_converges(args):
    space = ke.space_of(args.space)
    base = space.parse_point(args.base)
    target = space.parse_point(args.target)
    descr = space.descriptor(base, args.index, parse_rat(args.limit), args.direction)
    verdict = space.converges(descr, target)
    report = {
        "command": "converges %s %s --limit %s --direction %s %s"
                   % (args.space, args.base, args.limit, args.direction, args.target),
        "verdict": "converges" if verdict else "does not converge",
        "certificate": {"base": base, "coord_index": descr.coord_index,
                        "limit": descr.limit, "direction": descr.direction,
                        "target": target, "sample_terms": [descr.term(m) for m in (3, 4, 5)]},
        "citations": ["twin-convergence"],
    }
    return report, EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_move(args):
    space = ke.space_of(args.space)
    p = space.parse_point(args.p)
    q = space.parse_point(args.q)
    word = space.move(p, q, args.involutive)
    out = space.replay(word, p)
    c = cert.homeo_word(word, p, out, involutive=args.involutive)
    report = {
        "command": "move %s %s %s%s" % (args.space, args.p, args.q,
                                        " --involutive" if args.involutive else ""),
        "verdict": "moved" if out == q else "move failed",
        **ke.verified(space, c),
        "citations": ["homogeneity"],
    }
    return report, EXIT_OK if out == q else EXIT_NEGATIVE


def cmd_chain(args):
    space = ke.space_of(args.space)
    src = space.parse_point(args.src)
    dst = space.parse_point(args.dst)
    removed = [space.parse_point(t) for t in args.remove.split(";")] if args.remove else []
    window = args.window.split(",")
    if len(window) != 2:
        raise ParseError("--window takes LO,HI, got %r" % args.window)
    lo, hi = (parse_ext(t) for t in window)
    links = space.chain(src, dst, removed, (lo, hi))
    command = "chain %s %s %s --remove %s --window %s" % (
        args.space, args.src, args.dst, args.remove or "", args.window)
    if links is None:
        report = {
            "command": command,
            "verdict": "inconclusive",
            "certificate": None,
            "citations": ["two-point-removal-connectivity"],
        }
        return report, EXIT_NEGATIVE
    report = {
        "command": command,
        "verdict": "connected",
        **ke.verified(space, cert.chain(links, src, dst, removed)),
        "citations": ["two-point-removal-connectivity"],
    }
    return report, EXIT_OK


def cmd_maximal_hausdorff(args):
    space = ke.space_of(args.space)
    p = space.parse_point(args.p)
    handle, c = sp.maximal_hausdorff_at(space, p)
    report = {
        "command": "maximal-hausdorff %s %s" % (args.space, args.p),
        "verdict": handle,
        **ke.verified(space, c),
        "citations": ["maximal-hausdorff-dense-opens"],
    }
    return report, EXIT_OK


def cmd_subcover(args):
    space = ke.space_of(args.space)
    cover = sp.canonical_cover(space)
    chosen = [space.cover_member(b) for b in args.chosen]
    covered, c = sp.subcover_attempt(space, cover, chosen)
    report = {
        "command": "subcover %s %s" % (args.space, " ".join(args.chosen)),
        "verdict": "covers" if covered else "uncovered",
        **ke.verified(space, c),
        "citations": ["lindelof-failure"],
    }
    return report, EXIT_OK if covered else EXIT_NEGATIVE


def cmd_baire(args):
    space = ke.space_of(args.space)
    if not space.is_baire:
        if args.candidates < 1:
            raise ParseError("--candidates must be at least 1, got %d" % args.candidates)
        fam = sp.DenseFamily("cofinite-diagonal")
        verdict, c = sp.baire_intersect(space, fam, CofiniteSet.ground(),
                                        candidates=range(args.candidates))
        report = {
            "command": "baire %s --candidates %d" % (args.space, args.candidates),
            "verdict": verdict,
            **ke.verified(space, c),
            "citations": ["finite-complement-topology", "baire-property"],
        }
        return report, EXIT_NEGATIVE
    if args.probe is None:
        raise ParseError("baire on %s needs --probe" % args.space)
    members = [space.parse_basic(b) for b in args.members]
    probe = space.parse_basic(args.probe)
    fam = sp.DenseFamily("finite", tuple(members))
    point, c = sp.baire_intersect(space, fam, probe)
    report = {
        "command": "baire %s --probe %s %s" % (args.space, args.probe,
                                               " ".join(args.members)),
        "verdict": point,
        **ke.verified(space, c),
        "citations": ["baire-property"],
    }
    return report, EXIT_OK


def cmd_microcompact(args):
    space = ke.space_of(args.space)
    p = space.parse_point(args.p)
    v = space.parse_basic(args.v)
    if args.depth < 1:
        raise ParseError("--depth must be at least 1, got %d" % args.depth)
    if args.depth > 1:
        chain = sp.microcompact_nesting(space, p, v, depth=args.depth)
        report = {
            "command": "microcompact %s %s %s --depth %d" % (args.space, args.p,
                                                             args.v, args.depth),
            "verdict": "nested x%d" % args.depth,
            "certificate": {"chain": chain},
            "verified": all(ke.verify_certificate(space, c) for c in chain),
            "citations": ["microcompactness"],
        }
        return report, EXIT_OK
    c, _interior = sp.microcompact_neighborhood(space, p, v)
    report = {
        "command": "microcompact %s %s %s" % (args.space, args.p, args.v),
        "verdict": "compact neighborhood found",
        **ke.verified(space, c),
        "citations": ["microcompactness"],
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Demo gallery.


def demo_two_origins():
    space = ke.space_of("two-origins")
    o0 = ml.MultiLinePoint(Fraction(0), 0)
    o1 = ml.MultiLinePoint(Fraction(0), 1)
    away = ml.MultiLinePoint(Fraction(1), 0)
    ok1, c1 = space.separable(o0, o1)
    ok2, c2 = space.separable(o0, away)
    handle, mc = sp.maximal_hausdorff_at(space, o0)
    certificate = {
        "origins-pair": ke.verified(space, c1, separable=ok1),
        "away-from-origin": ke.verified(space, c2, separable=ok2),
        "maximal-hausdorff": ke.verified(space, mc, handle=handle),
    }
    return {"verdict": "origins are the only non-separable pair",
            "certificate": certificate,
            "citations": ["line-with-two-origins"]}, EXIT_OK


def demo_branching_line():
    space = ke.BRANCH
    origin_l = ml.branch_point(Fraction(0), "L")
    origin_r = ml.branch_point(Fraction(0), "R")
    tip_l = ml.branch_point(Fraction(1), "L")
    tip_r = ml.branch_point(Fraction(1), "R")
    ok1, c1 = space.separable(origin_l, origin_r)
    ok2, c2 = space.separable(tip_l, tip_r)
    ok3, c3 = space.separable(tip_l, origin_l)
    certificate = {
        "origins-pair": ke.verified(space, c1, separable=ok1),
        "tips-pair": ke.verified(space, c2, separable=ok2),
        "tip-vs-origin": ke.verified(space, c3, separable=ok3),
        "note": "the origin has a non-separable partner while (1,L) has none "
                "among the samples, so no self-homeomorphism exchanges them",
    }
    return {"verdict": "not homogeneous",
            "certificate": certificate,
            "citations": ["branching-line", "non-homogeneity"]}, EXIT_OK


def demo_feather_homogeneity():
    space = ke.FEATHER
    p = (Fraction(0), Fraction(1), Fraction(3))
    q = (Fraction(2), Fraction(5))
    word_n, straightened = fe.normalize_to_line(p)
    cn = cert.homeo_word(word_n, p, straightened)
    word = fe.fp_move(p, q)
    out = fe.replay(word, p)
    cm = cert.homeo_word(word, p, out)
    certificate = {
        "normalize": ke.verified(space, cn),
        "move": ke.verified(space, cm),
    }
    verdict = "homogeneous: replay maps p to q" if out == q else "move failed"
    return {"verdict": verdict, "certificate": certificate,
            "citations": ["complete-feather", "flip-homeomorphisms",
                          "homogeneity"]}, EXIT_OK if out == q else EXIT_NEGATIVE


def demo_feather_contraction():
    space = ke.FEATHER
    s = (Fraction(0), Fraction(1), Fraction(3))
    grid = [Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(5, 12),
            Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2)]
    trace = [{"t": t, "point": fe.homotopy_eval(t, s)} for t in grid]
    seams = {}
    for t0 in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
        left, right = fe.homotopy_seam_limits(t0, s)
        related = left == right or fe.fp_twin(left) == right
        entry = {"left": left, "right": right, "equal_or_twins": related}
        if left != right:
            lower = left if fe.fp_is_strict(left) else right
            descr = ke.SeqDescriptor("feather", lower, len(lower) - 1,
                                     lower[-1], "below")
            entry["converges_to_both"] = (space.converges(descr, left)
                                          and space.converges(descr, right))
        seams[str(t0)] = entry
    certificate = {"trace": trace, "seams": seams}
    ok = all(e["equal_or_twins"] for e in seams.values())
    return {"verdict": "contraction continuous across seams" if ok else "seam jump",
            "certificate": certificate,
            "citations": ["complete-feather", "contraction-homotopy"]}, \
        EXIT_OK if ok else EXIT_NEGATIVE


def demo_feather_twins():
    space = ke.FEATHER
    p = (Fraction(0), Fraction(1))
    q = fe.fp_twin(p)
    ok, c = space.separable(p, q)
    below = ke.SeqDescriptor("feather", p, len(p) - 1, p[-1], "below")
    above = ke.SeqDescriptor("feather", p, len(p) - 1, p[-1], "above")
    certificate = {
        "pair": ke.verified(space, c, separable=ok),
        "refuter": {"scales": list(ke.REFUTER_SCALES),
                    "found_separation": ke.bounded_refuter(space, p, q) is not None},
        "from-below": {"to_lower": space.converges(below, p),
                       "to_upper": space.converges(below, q)},
        "from-above": {"to_lower": space.converges(above, p),
                       "to_upper": space.converges(above, q)},
    }
    return {"verdict": "twins not separable; below-sequence converges to both",
            "certificate": certificate,
            "citations": ["complete-feather", "twin-pairs",
                          "twin-convergence"]}, EXIT_OK


def demo_doubled_line():
    space = ke.space_of("doubled")
    spec = space.spec
    w1 = ml.Wave(spec, IntervalSet.of((-1, 1)), ((Fraction(0), 1),))
    w2 = ml.Wave(spec, IntervalSet.of((0, 2)))
    meet = ml.wave_meet(w1, w2)
    o0 = ml.MultiLinePoint(Fraction(0), 0)
    o1 = ml.MultiLinePoint(Fraction(0), 1)
    far = ml.MultiLinePoint(Fraction(1), 1)
    ok1, c1 = space.separable(o0, o1)
    ok2, c2 = space.separable(o0, far)
    small = ml.Wave(spec, IntervalSet.of((0, 1)), ((Fraction(1, 2), 1),))
    witness = ml.rational_down_witness(small)
    isolating, avoiding = ml.up_points_discrete_witnesses(
        spec, FinSet.of(Fraction(0), Fraction(1)),
        down_point=ml.MultiLinePoint(Fraction(1, 2), 0))
    certificate = {
        "wave-meet": {"w1": w1, "w2": w2, "meet": meet},
        "same-abscissa": ke.verified(space, c1, separable=ok1),
        "distinct-abscissae": ke.verified(space, c2, separable=ok2),
        "rational-down-witness": {"wave": small, "point": witness},
        "up-points-discrete": {"isolating": isolating, "avoiding": avoiding},
    }
    return {"verdict": "doubled line wave calculus demonstrated",
            "certificate": certificate,
            "citations": ["doubled-line", "waves"]}, EXIT_OK


def demo_involutorial():
    space = ke.space_of("doubled")
    p = ml.MultiLinePoint(Fraction(0), 0)
    q = ml.MultiLinePoint(Fraction(1), 1)
    word = ml.ml_move(space.spec, p, q, involutive=True)
    c = cert.homeo_word(word, p, q, involutive=True)
    swapped = ml.ml_replay(word, q) == p and ml.ml_replay(word, p) == q
    certificate = {"word": c, "verified": ke.verify_certificate(space, c),
                   "swaps_pair": swapped}
    return {"verdict": "involutive word swaps the pair" if swapped else "not involutive",
            "certificate": certificate,
            "citations": ["doubled-line", "involutorial-homogeneity"]}, \
        EXIT_OK if swapped else EXIT_NEGATIVE


def demo_fuks_rokhlin():
    tripled = ke.space_of("tripled")
    src = ml.MultiLinePoint(Fraction(-1), 0)
    dst = ml.MultiLinePoint(Fraction(1), 0)
    removed = [ml.MultiLinePoint(Fraction(0), 0), ml.MultiLinePoint(Fraction(0), 1)]
    links = ml.chain_connect(tripled.spec, src, dst, removed, (-5, 5))
    c = cert.chain(links, src, dst, removed)
    two = ke.space_of("two-origins")
    control = ml.chain_connect(two.spec, src, dst, removed, (-5, 5))
    certificate = {
        "tripled": ke.verified(tripled, c),
        "two-origins-control": {"result": "inconclusive" if control is None else "connected"},
    }
    ok = links is not None and control is None
    return {"verdict": "third copy reconnects; two-origins control inconclusive",
            "certificate": certificate,
            "citations": ["tripled-line", "two-point-removal-connectivity"]}, \
        EXIT_OK if ok else EXIT_NEGATIVE


def demo_lemma_zorn():
    rows = {}
    cases = [("doubled", "D(0 @1)"), ("feather", "F(0,0)"), ("two-origins", "D(0 @0)")]
    for name, ptext in cases:
        space = ke.space_of(name)
        p = space.parse_point(ptext)
        handle, c = sp.maximal_hausdorff_at(space, p)
        hd, _ = sp.hausdorff_open(space, handle)
        rows[name] = dict(ke.verified(space, c, point=p, handle=handle),
                          hausdorff=hd, dense=space.dense(handle))
    ok = all(r["verified"] and r["hausdorff"] and r["dense"] for r in rows.values())
    return {"verdict": "maximal Hausdorff dense opens certified" if ok else "failed",
            "certificate": rows,
            "citations": ["maximal-hausdorff-dense-opens"]}, \
        EXIT_OK if ok else EXIT_NEGATIVE


def demo_theorem2(space_name="line"):
    space = ke.space_of(space_name)
    samples, probes = space.pipeline_sample()
    report = sp.theorem_pipeline(space, samples, probes=probes)
    ok = report["verdict"] == "separated-point-found"
    return {"verdict": report["verdict"],
            "certificate": {"stages": report["stages"],
                            "separated_point": report.get("separated_point")},
            "citations": ["hausdorff-from-homogeneous-lindelof-baire"]}, \
        EXIT_OK if ok else EXIT_NEGATIVE


def demo_lindelof_failure():
    doubled = ke.space_of("doubled")
    chosen_d = [ml.full_wave(doubled.spec)] + [
        ml.full_wave(doubled.spec, ((Fraction(n), 1),)) for n in (0, 1, 2)]
    covered_d, cd = sp.subcover_attempt(doubled, sp.canonical_cover(doubled), chosen_d)
    feather = ke.FEATHER
    chosen_f = [fe.fp_chart((Fraction(n), Fraction(n) + 1), Fraction(1, 2))
                for n in (0, 1, 2)]
    covered_f, cf = sp.subcover_attempt(feather, sp.canonical_cover(feather), chosen_f)
    certificate = {
        "doubled": ke.verified(doubled, cd, covered=covered_d),
        "feather": ke.verified(feather, cf, covered=covered_f),
    }
    failed = not covered_d and not covered_f
    return {"verdict": "subfamilies leave uncovered points" if failed else "covered",
            "certificate": certificate,
            "citations": ["lindelof-failure", "uncovered-witness"]}, \
        EXIT_NEGATIVE if failed else EXIT_OK


def demo_cofinite_not_baire():
    space = ke.COFINITE
    verdict, c = sp.baire_intersect(space, sp.DenseFamily("cofinite-diagonal"),
                                    CofiniteSet.ground(), candidates=range(10))
    sub = sp.quasi_compact_subcover([CofiniteSet.excl(1), CofiniteSet.excl(2)])
    certificate = {
        "intersection": ke.verified(space, c),
        "quasi-compact-contrast": {"cover": [CofiniteSet.excl(1), CofiniteSet.excl(2)],
                                   "subcover": sub},
    }
    return {"verdict": verdict, "certificate": certificate,
            "citations": ["finite-complement-topology", "baire-property"]}, \
        EXIT_NEGATIVE if verdict == "EMPTY" else EXIT_OK


def demo_microcompact():
    doubled = ke.space_of("doubled")
    p_d, v_d, _ = doubled.chart_sample()
    chain_d = sp.microcompact_nesting(doubled, p_d, v_d, depth=5)
    feather = ke.FEATHER
    p_f, v_f, _ = feather.chart_sample()
    chain_f = sp.microcompact_nesting(feather, p_f, v_f, depth=5)
    chart = sp.chart_of_implications()
    certificate = {
        "doubled-nesting": {"chain": chain_d,
                            "verified": all(ke.verify_certificate(doubled, c)
                                            for c in chain_d)},
        "feather-nesting": {"chain": chain_f,
                            "verified": all(ke.verify_certificate(feather, c)
                                            for c in chain_f)},
        "implication-chart": chart,
    }
    return {"verdict": "locally compact spaces are microcompact; cofinite is not Baire",
            "certificate": certificate,
            "citations": ["microcompactness", "local-compactness"]}, EXIT_OK


DEMOS = {
    "two-origins": demo_two_origins,
    "branching-line": demo_branching_line,
    "feather-homogeneity": demo_feather_homogeneity,
    "feather-contraction": demo_feather_contraction,
    "feather-twins": demo_feather_twins,
    "doubled-line": demo_doubled_line,
    "involutorial": demo_involutorial,
    "fuks-rokhlin": demo_fuks_rokhlin,
    "lemma-zorn": demo_lemma_zorn,
    "theorem2": demo_theorem2,
    "lindelof-failure": demo_lindelof_failure,
    "cofinite-not-baire": demo_cofinite_not_baire,
    "microcompact": demo_microcompact,
}


def cmd_demo(args):
    if args.name not in DEMOS:
        raise ParseError("unknown demo %r" % args.name)
    space = args.space
    if args.name == "theorem2":
        body, code = demo_theorem2(space or "line")
        command = "demo theorem2 --space %s" % (space or "line")
    elif space is not None:
        raise ParseError("demo %s takes no --space (only theorem2 does)" % args.name)
    else:
        body, code = DEMOS[args.name]()
        command = "demo %s" % args.name
    report = {"command": command}
    report.update(body)
    return report, code


# ---------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featherline",
        description="exact symbolic engine for non-Hausdorff 1-manifolds")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("separate", help="decide separability of two points")
    p.add_argument("space")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("twin", help="the twin partner of a feather point")
    p.add_argument("p")
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("flip", help="apply the branch flip at s to r")
    p.add_argument("s")
    p.add_argument("r")
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("normalize", help="flip word straightening a point onto the line")
    p.add_argument("p")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("homotopy", help="evaluate the contraction at time t")
    p.add_argument("space")
    p.add_argument("p")
    p.add_argument("--t", required=True)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("chart", help="canonical basic neighborhood")
    p.add_argument("space")
    p.add_argument("p")
    p.add_argument("--eps", default="1")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("meet", help="intersection of two basic opens")
    p.add_argument("space")
    p.add_argument("b1")
    p.add_argument("b2")
    p.set_defaults(func=cmd_meet)

    p = sub.add_parser("dense", help="density of a finite union / handle")
    p.add_argument("space")
    p.add_argument("basics", nargs="+")
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("converges", help="symbolic sequence convergence")
    p.add_argument("space")
    p.add_argument("base")
    p.add_argument("target")
    p.add_argument("--limit", required=True)
    p.add_argument("--direction", choices=("below", "above"), required=True)
    p.add_argument("--index", type=int, default=None)
    p.set_defaults(func=cmd_converges)

    p = sub.add_parser("move", help="homogeneity word taking p to q")
    p.add_argument("space")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--involutive", action="store_true")
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("chain", help="wave chain avoiding removed points")
    p.add_argument("space")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--remove", default="")
    p.add_argument("--window", default="-10,10")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("maximal-hausdorff", help="maximal Hausdorff dense open at a point")
    p.add_argument("space")
    p.add_argument("p")
    p.set_defaults(func=cmd_maximal_hausdorff)

    p = sub.add_parser("subcover", help="check a subfamily of the canonical cover")
    p.add_argument("space")
    p.add_argument("chosen", nargs="+")
    p.set_defaults(func=cmd_subcover)

    p = sub.add_parser("baire", help="intersection of dense opens")
    p.add_argument("space")
    p.add_argument("members", nargs="*")
    p.add_argument("--probe", default=None)
    p.add_argument("--candidates", type=int, default=10)
    p.set_defaults(func=cmd_baire)

    p = sub.add_parser("microcompact", help="compact neighborhood inside a given one")
    p.add_argument("space")
    p.add_argument("p")
    p.add_argument("v")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=cmd_microcompact)

    p = sub.add_parser("demo", help="scripted scenario with certificates")
    p.add_argument("name")
    p.add_argument("--space", default=None)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        report, code = args.func(args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except PreconditionError as exc:
        sys.stderr.write("precondition error: %s\n" % exc)
        return EXIT_PRECONDITION
    _render(report, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
