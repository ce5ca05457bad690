"""Batch command-line front end: every engine operation plus a gallery of
scripted demos with deterministic JSON output.

Each verb is one row of `VERBS`: help text, arguments and form.  An
argument is a name, a parse kind and argparse `add_argument` keywords.
`main` is the one parse boundary: it resolves the space, then parses each
argument in declared order by its kind: "space" (`kernel.space_of`),
"point", "basic" or "basics" (a list) of that space, "feather point"
(whatever the space), "rational" (finite) or "raw" (the argparse value).
Arguments whose meaning depends on the space at run time stay raw, and
their handlers parse them, so no argv changes its exit code: `baire`'s
members and `--probe` (the cofinite branch ignores them), `subcover`'s
chosen basics (they go through `cover_member`) and `chain --remove` and
`--window`.  `demo --space` stays raw as well: only theorem2 reads it.

A form is the pair (command-echo template, citations) or, where the echo
depends on the inputs, a function of the argparse namespace and the space
that returns the pair and rejects argument combinations the form lacks.
`str.format` fills the template from the raw arguments, lists joined by
spaces.  The handler `cmd_<verb>`, looked up when called, takes the parsed
values in argument order and returns (verdict, fields, positive); the
report is {"command", "verdict", **fields, "citations"}.  A demo returns
the same triple, and `_demo` registers it in `DEMOS` with its citations.

Exit status encodes the verdict: 0 for positive verdicts, 1 for parse
errors, 2 for precondition errors, 3 for expected negative verdicts
(non-separable pairs, failed subcovers, EMPTY intersections, ...).
"""

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import kernel as ke
from . import multiline as ml
from . import separation as sp
from .intervals import CofiniteSet, FinSet, IntervalSet
from .rationals import ParseError, PreconditionError, parse_rat
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
# Verb handlers.  Each returns (verdict, fields, positive).


def cmd_separate(space, p, q):
    ok, c = space.separable(p, q)
    return "separable" if ok else "NOT separable: twin pair", ke.verified(space, c), ok


def cmd_twin(p):
    tw = fe.fp_twin(p)
    return tw, ke.verified(ke.FEATHER, cert.twin_pair(p, tw)), True


def cmd_flip(s, r):
    out = fe.flip_apply(s, r)
    c = cert.homeo_word((fe.FlipGen(s),), r, out, involutive=True)
    return out, ke.verified(ke.FEATHER, c), True


def cmd_normalize(p):
    word, out = fe.normalize_to_line(p)
    return out, ke.verified(ke.FEATHER, cert.homeo_word(word, p, out)), True


def cmd_homotopy(space, s, t):
    out = space.homotopy(t, s)
    return out, {"certificate": {"t": t, "input": s, "output": out}}, True


def cmd_chart(space, p, eps):
    b = space.canonical_neighborhood(p, eps)
    return b, {"certificate": {"member": space.member(p, b)}}, True


def cmd_meet(space, b1, b2):
    parts = space.meet(b1, b2)
    return "nonempty" if parts else "empty", {"certificate": {"parts": parts}}, bool(parts)


def cmd_dense(space, basics):
    verdict = space.dense(basics)
    payload = {"basics": basics}
    witness = None if verdict else space.density_witness(basics)
    if witness is not None:
        payload["missed-by"] = witness
    return "dense" if verdict else "not dense", {"certificate": payload}, verdict


def cmd_converges(space, base, target, limit, direction, index):
    descr = space.descriptor(base, index, limit, direction)
    verdict = space.converges(descr, target)
    first = descr.first_point(3)
    payload = {"base": base, "coord_index": descr.coord_index, "limit": descr.limit,
               "direction": descr.direction, "target": target,
               "sample_terms": [space.term(descr, m) for m in range(first, first + 3)]}
    return "converges" if verdict else "does not converge", {"certificate": payload}, verdict


def cmd_move(space, p, q, involutive):
    word = space.move(p, q, involutive)
    out = space.replay(word, p)
    c = cert.homeo_word(word, p, out, involutive=involutive)
    return "moved" if out == q else "move failed", ke.verified(space, c), out == q


def cmd_chain(space, src, dst, remove, window):
    removed = [space.parse_point(t) for t in remove.split(";")] if remove else []
    ends = window.split(",")
    if len(ends) != 2:
        raise ParseError("--window takes LO,HI, got %r" % window)
    links = space.chain(src, dst, removed, tuple(parse_rat(t) for t in ends))
    if links is None:
        return "inconclusive", {"certificate": None}, False
    return "connected", ke.verified(space, cert.chain(links, src, dst, removed)), True


def cmd_maximal_hausdorff(space, p):
    handle, c = sp.maximal_hausdorff_at(space, p)
    return handle, ke.verified(space, c), True


def cmd_subcover(space, chosen):
    cover = sp.canonical_cover(space)
    chosen = [space.cover_member(b) for b in chosen]
    covered, c = sp.subcover_attempt(space, cover, chosen)
    return "covers" if covered else "uncovered", ke.verified(space, c), covered


def cmd_baire(space, members, probe, candidates):
    if not space.is_baire:
        verdict, c = sp.diagonal_intersection(range(candidates))
        return verdict, ke.verified(space, c), False
    point, c = sp.baire_intersect(space, [space.parse_basic(b) for b in members],
                                  space.parse_basic(probe))
    return point, ke.verified(space, c), True


def cmd_microcompact(space, p, v, depth):
    if depth > 1:
        chain = sp.microcompact_nesting(space, p, v, depth=depth)
        fields = {"certificate": {"chain": chain},
                  "verified": all(ke.verify_certificate(space, c) for c in chain)}
        return "nested x%d" % depth, fields, True
    c, _interior = sp.microcompact_neighborhood(space, p, v)
    return "compact neighborhood found", ke.verified(space, c), True


def cmd_demo(name, space):
    run, _citations = DEMOS[name]
    return run(space or "line") if name == "theorem2" else run()


# ---------------------------------------------------------------------------
# Demo gallery.

DEMOS = {}


def _demo(name, *citations):
    """Register the decorated demo as `demo NAME`, citing `citations`."""
    def register(run):
        DEMOS[name] = run, list(citations)
        return run
    return register


@_demo("two-origins", "line-with-two-origins")
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
    return "origins are the only non-separable pair", {"certificate": certificate}, True


@_demo("branching-line", "branching-line", "non-homogeneity")
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
    return "not homogeneous", {"certificate": certificate}, True


@_demo("feather-homogeneity", "complete-feather", "flip-homeomorphisms", "homogeneity")
def demo_feather_homogeneity():
    space = ke.FEATHER
    p = fe.FeatherPoint((0, 1, 3))
    q = fe.FeatherPoint((2, 5))
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
    return verdict, {"certificate": certificate}, out == q


@_demo("feather-contraction", "complete-feather", "contraction-homotopy")
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
            descr = space.descriptor(lower, None, lower[-1], "below")
            entry["converges_to_both"] = (space.converges(descr, left)
                                          and space.converges(descr, right))
        seams[str(t0)] = entry
    ok = all(e["equal_or_twins"] for e in seams.values())
    return ("contraction continuous across seams" if ok else "seam jump",
            {"certificate": {"trace": trace, "seams": seams}}, ok)


@_demo("feather-twins", "complete-feather", "twin-pairs", "twin-convergence")
def demo_feather_twins():
    space = ke.FEATHER
    p = (Fraction(0), Fraction(1))
    q = fe.fp_twin(p)
    ok, c = space.separable(p, q)
    below, above = (space.descriptor(p, None, p[-1], d) for d in ("below", "above"))
    certificate = {
        "pair": ke.verified(space, c, separable=ok),
        "refuter": {"scales": list(ke.REFUTER_SCALES),
                    "found_separation": ke.bounded_refuter(space, p, q) is not None},
        "from-below": {"to_lower": space.converges(below, p),
                       "to_upper": space.converges(below, q)},
        "from-above": {"to_lower": space.converges(above, p),
                       "to_upper": space.converges(above, q)},
    }
    return ("twins not separable; below-sequence converges to both",
            {"certificate": certificate}, True)


@_demo("doubled-line", "doubled-line", "waves")
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
    return "doubled line wave calculus demonstrated", {"certificate": certificate}, True


@_demo("involutorial", "doubled-line", "involutorial-homogeneity")
def demo_involutorial():
    space = ke.space_of("doubled")
    p = ml.MultiLinePoint(Fraction(0), 0)
    q = ml.MultiLinePoint(Fraction(1), 1)
    word = ml.ml_move(space.spec, p, q, involutive=True)
    c = cert.homeo_word(word, p, q, involutive=True)
    swapped = ml.ml_replay(word, q) == p and ml.ml_replay(word, p) == q
    certificate = {"word": c, "verified": ke.verify_certificate(space, c),
                   "swaps_pair": swapped}
    return ("involutive word swaps the pair" if swapped else "not involutive",
            {"certificate": certificate}, swapped)


@_demo("fuks-rokhlin", "tripled-line", "two-point-removal-connectivity")
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
    return ("third copy reconnects; two-origins control inconclusive",
            {"certificate": certificate}, links is not None and control is None)


@_demo("lemma-zorn", "maximal-hausdorff-dense-opens")
def demo_lemma_zorn():
    rows = {}
    cases = [("doubled", "D(0 @1)"), ("feather", "F(0,0)"), ("two-origins", "D(0 @0)")]
    for name, ptext in cases:
        space = ke.space_of(name)
        p = space.parse_point(ptext)
        handle, c = sp.maximal_hausdorff_at(space, p)
        hd, hc = sp.hausdorff_open(space, [handle])
        rows[name] = dict(ke.verified(space, c, point=p, handle=handle),
                          hausdorff=hd and ke.verify_certificate(space, hc),
                          dense=space.dense([handle]))
    ok = all(r["verified"] and r["hausdorff"] and r["dense"] for r in rows.values())
    return ("maximal Hausdorff dense opens certified" if ok else "failed",
            {"certificate": rows}, ok)


@_demo("theorem2", "hausdorff-from-homogeneous-lindelof-baire")
def demo_theorem2(space_name="line"):
    space = ke.space_of(space_name)
    samples, probes = space.pipeline_sample()
    report = sp.theorem_pipeline(space, samples, probes=probes)
    certificate = {"stages": report["stages"],
                   "separated_point": report.get("separated_point")}
    return (report["verdict"], {"certificate": certificate},
            report["verdict"] == "separated-point-found")


@_demo("lindelof-failure", "lindelof-failure", "uncovered-witness")
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
    return ("subfamilies leave uncovered points" if failed else "covered",
            {"certificate": certificate}, not failed)


@_demo("cofinite-not-baire", "finite-complement-topology", "baire-property")
def demo_cofinite_not_baire():
    space = ke.COFINITE
    verdict, c = sp.diagonal_intersection(range(10))
    sub = sp.quasi_compact_subcover([CofiniteSet.excl(1), CofiniteSet.excl(2)])
    certificate = {
        "intersection": ke.verified(space, c),
        "quasi-compact-contrast": {"cover": [CofiniteSet.excl(1), CofiniteSet.excl(2)],
                                   "subcover": sub},
    }
    return verdict, {"certificate": certificate}, verdict != "EMPTY"


@_demo("microcompact", "microcompactness", "local-compactness")
def demo_microcompact():
    certificate = {}
    for name, space in (("doubled", ke.space_of("doubled")), ("feather", ke.FEATHER)):
        p, v, _ = space.chart_sample()
        chain = sp.microcompact_nesting(space, p, v, depth=5)
        certificate[name + "-nesting"] = {
            "chain": chain, "verified": all(ke.verify_certificate(space, c) for c in chain)}
    certificate["implication-chart"] = sp.chart_of_implications()
    return ("locally compact spaces are microcompact; cofinite is not Baire",
            {"certificate": certificate}, True)


# ---------------------------------------------------------------------------
# The verb table.  Forms that depend on the inputs come first.


def _move_form(args, space):
    template = "move {space} {p} {q}" + (" --involutive" if args.involutive else "")
    return template, ["homogeneity"]


def _baire_form(args, space):
    if not space.is_baire:
        if args.candidates < 1:
            raise ParseError("--candidates must be at least 1, got %d" % args.candidates)
        return ("baire {space} --candidates {candidates}",
                ["finite-complement-topology", "baire-property"])
    if args.probe is None:
        raise ParseError("baire on %s needs --probe" % args.space)
    return "baire {space} --probe {probe} {members}", ["baire-property"]


def _microcompact_form(args, space):
    if args.depth < 1:
        raise ParseError("--depth must be at least 1, got %d" % args.depth)
    template = "microcompact {space} {p} {v}" + (" --depth {depth}" if args.depth > 1 else "")
    return template, ["microcompactness"]


def _demo_form(args, space):
    name, pipeline_space = args.name, args.space  # --space names theorem2's space
    if name not in DEMOS:
        raise ParseError("unknown demo %r" % name)
    if name == "theorem2":
        return "demo theorem2 --space " + ("{space}" if pipeline_space else "line"), DEMOS[name][1]
    if pipeline_space is not None:
        raise ParseError("demo %s takes no --space (only theorem2 does)" % name)
    return "demo {name}", DEMOS[name][1]


_KINDS = {
    "space": lambda space, text: ke.space_of(text),
    "point": lambda space, text: space.parse_point(text),
    "feather point": lambda space, text: ke.FEATHER.parse_point(text),
    "basic": lambda space, text: space.parse_basic(text),
    "basics": lambda space, texts: [space.parse_basic(t) for t in texts],
    "rational": lambda space, text: parse_rat(text),
    "raw": lambda space, value: value,
}

Verb = namedtuple("Verb", "help args form")


def _arg(name, kind="raw", **argparse_keywords):
    return name, kind, argparse_keywords


_SPACE = _arg("space", "space")

VERBS = {
    "separate": Verb("decide separability of two points",
                     (_SPACE, _arg("p", "point"), _arg("q", "point")),
                     ("separate {space} {p} {q}", ["separation-of-points"])),
    "twin": Verb("the twin partner of a feather point", (_arg("p", "feather point"),),
                 ("twin {p}", ["complete-feather", "twin-pairs"])),
    "flip": Verb("apply the branch flip at s to r",
                 (_arg("s", "feather point"), _arg("r", "feather point")),
                 ("flip {s} {r}", ["complete-feather", "flip-homeomorphisms"])),
    "normalize": Verb("flip word straightening a point onto the line",
                      (_arg("p", "feather point"),),
                      ("normalize {p}", ["complete-feather", "homogeneity"])),
    "homotopy": Verb("evaluate the contraction at time t",
                     (_SPACE, _arg("p", "point"), _arg("--t", "rational", required=True)),
                     ("homotopy {space} {p} --t {t}",
                      ["complete-feather", "contraction-homotopy"])),
    "chart": Verb("canonical basic neighborhood",
                  (_SPACE, _arg("p", "point"), _arg("--eps", "rational", default="1")),
                  ("chart {space} {p} --eps {eps}", ["canonical-neighborhoods"])),
    "meet": Verb("intersection of two basic opens",
                 (_SPACE, _arg("b1", "basic"), _arg("b2", "basic")),
                 ("meet {space} {b1} {b2}", ["basis-closed-under-meet"])),
    "dense": Verb("density of a finite union / handle",
                  (_SPACE, _arg("basics", "basics", nargs="+")),
                  ("dense {space} {basics}", ["density-criteria"])),
    "converges": Verb("symbolic sequence convergence",
                      (_SPACE, _arg("base", "point"), _arg("target", "point"),
                       _arg("--limit", "rational", required=True),
                       _arg("--direction", choices=("below", "above"), required=True),
                       _arg("--index", type=int, default=None)),
                      ("converges {space} {base} --limit {limit} --direction {direction}"
                       " {target}", ["twin-convergence"])),
    "move": Verb("homogeneity word taking p to q",
                 (_SPACE, _arg("p", "point"), _arg("q", "point"),
                  _arg("--involutive", action="store_true")),
                 _move_form),
    "chain": Verb("wave chain avoiding removed points",
                  (_SPACE, _arg("src", "point"), _arg("dst", "point"),
                   _arg("--remove", default=""), _arg("--window", default="-10,10")),
                  ("chain {space} {src} {dst} --remove {remove} --window {window}",
                   ["two-point-removal-connectivity"])),
    "maximal-hausdorff": Verb("maximal Hausdorff dense open at a point",
                              (_SPACE, _arg("p", "point")),
                              ("maximal-hausdorff {space} {p}",
                               ["maximal-hausdorff-dense-opens"])),
    "subcover": Verb("check a subfamily of the canonical cover",
                     (_SPACE, _arg("chosen", nargs="+")),
                     ("subcover {space} {chosen}", ["lindelof-failure"])),
    "baire": Verb("intersection of dense opens",
                  (_SPACE, _arg("members", nargs="*"), _arg("--probe", default=None),
                   _arg("--candidates", type=int, default=10)),
                  _baire_form),
    "microcompact": Verb("compact neighborhood inside a given one",
                         (_SPACE, _arg("p", "point"), _arg("v", "basic"),
                          _arg("--depth", type=int, default=1)),
                         _microcompact_form),
    "demo": Verb("scripted scenario with certificates",
                 (_arg("name"), _arg("--space", default=None)),
                 _demo_form),
}


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
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for arg, _kind, keywords in verb.args:
            p.add_argument(arg, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    verb = VERBS[args.verb]
    space, values = None, []
    try:
        for name, kind, _ in verb.args:
            value = _KINDS[kind](space, getattr(args, name.lstrip("-")))
            if kind == "space":
                space = value
            values.append(value)
        template, citations = verb.form(args, space) if callable(verb.form) else verb.form
        handler = globals()["cmd_" + args.verb.replace("-", "_")]
        verdict, fields, positive = handler(*values)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except PreconditionError as exc:
        sys.stderr.write("precondition error: %s\n" % exc)
        return EXIT_PRECONDITION
    raw = {k: " ".join(v) if isinstance(v, list) else v for k, v in vars(args).items()}
    report = {"command": template.format(**raw), "verdict": verdict, **fields,
              "citations": citations}
    _render(report, args.format, sys.stdout)
    return EXIT_OK if positive else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
