"""Build the generated op specs through featherline's public parsers and run
them.  One op is one query: decide, certify, verify the certificate, then
render the report with `jsonable` and `json.dumps` and load it back.

Every runner returns (report, ok), where ok means the verdict matches the
spec's known answer and every certificate re-verified.
"""

from __future__ import annotations

import json
from fractions import Fraction

from featherline import certificates as cert
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline import syntax


def _spec_of(space):
    return space.spec if isinstance(space, ke.MultiLineSpace) else None


def build(spec: dict):
    """Parse one op spec into engine objects: (kind, args, expect)."""
    kind = spec["kind"]
    space = ke.space_of(spec.get("space", "feather"))
    lspec = _spec_of(space)

    def pt(text):
        return syntax.parse_point(text, lspec)

    def basic(text):
        return syntax.parse_basic(text, lspec)

    args = {"space": space}
    if kind in ("move", "twin", "far", "separate"):
        args.update(p=pt(spec["p"]), q=pt(spec["q"]))
    elif kind == "maximal":
        args.update(x=pt(spec["x"]), twin=pt(spec["twin"]))
    elif kind == "meet":
        args.update(b1=basic(spec["b1"]), p=pt(spec["p"]), eps=Fraction(spec["eps"]),
                    inside=pt(spec["inside"]) if "inside" in spec else None)
    elif kind == "homotopy":
        args.update(p=pt(spec["p"]), t=Fraction(spec["t"]))
    elif kind == "wave_meet":
        args.update(w1=basic(spec["w1"]), w2=basic(spec["w2"]),
                    probes=tuple(pt(t) for t in spec["probes"]),
                    missing=[pt(t) for t in spec["missing"]])
    elif kind == "dense":
        args.update(waves=[basic(t) for t in spec["waves"]],
                    probes=tuple(pt(t) for t in spec["probes"]))
    elif kind in ("chain", "chain_control"):
        args.update(src=pt(spec["src"]), dst=pt(spec["dst"]),
                    removed=[pt(t) for t in spec["removed"]],
                    window=tuple(Fraction(t) for t in spec["window"]))
    elif kind == "subcover":
        args.update(chosen=[basic(t) for t in spec["chosen"]])
    elif kind == "pipeline":
        args.update(samples=[pt(t) for t in spec["samples"]],
                    probes=[pt(t) for t in spec["probes"]])
    else:
        raise ValueError("unknown op kind %r" % kind)
    return kind, args, spec["expect"]


def run(kind: str, args: dict, expect: dict):
    """Run one built op.  Returns (rendered JSON text, ok)."""
    report, ok = RUNNERS[kind](args, expect)
    report = dict(report, op=kind)
    text = json.dumps(syntax.jsonable(report), indent=2)
    json.loads(text)
    return text, ok


def _verify(space, c) -> bool:
    return ke.verify_certificate(space, c)


# ---------------------------------------------------------------------------
# feather-deep


def _move(a, expect):
    p, q = a["p"], a["q"]
    word = fe.fp_move(p, q)
    out = fe.replay(word, p)
    c = cert.homeo_word(word, p, out)
    v = _verify(ke.FEATHER, c)
    verdict = "moved" if out == q else "move failed"
    ok = v and verdict == expect["verdict"] and syntax.fmt_point(out) == expect["out"]
    return {"verdict": verdict, "certificate": c, "verified": v}, ok


def _separate(a, expect):
    space, p, q = a["space"], a["p"], a["q"]
    sep, c = space.separable(p, q)
    v = _verify(space, c)
    verdict = "separable" if sep else "not separable"
    ok = v and verdict == expect["verdict"]
    report = {"verdict": verdict, "certificate": c, "verified": v}
    if sep:
        # negative control: the same basics attached to the wrong points
        swapped = cert.separated_by(p, q, c.payload["b2"], c.payload["b1"])
        rejected = not _verify(space, swapped)
        ok = ok and rejected
        report["swapped_rejected"] = rejected
    return report, ok


def _maximal(a, expect):
    x = a["x"]
    handle, c = sp.maximal_hausdorff_at(ke.FEATHER, x)
    v = _verify(ke.FEATHER, c)
    ok = (v and handle.contains(x) == expect["contains_x"]
          and handle.contains(a["twin"]) == expect["contains_twin"])
    return {"verdict": syntax.fmt_basic(handle), "certificate": c, "verified": v}, ok


def _meet(a, expect):
    chart = fe.fp_chart(a["p"], a["eps"])
    parts = ke.FEATHER.meet(a["b1"], chart)
    if a["inside"] is None:
        c = cert.covered((a["p"],), parts)
    else:
        c = cert.separated_by(a["inside"], a["p"], a["b1"], chart)
    v = _verify(ke.FEATHER, c)
    verdict = "nonempty" if parts else "empty"
    return {"verdict": verdict, "certificate": c, "verified": v}, v and verdict == expect["verdict"]


def _homotopy(a, expect):
    out = fe.homotopy_eval(a["t"], a["p"])
    verdict = syntax.fmt_point(out)
    return {"verdict": verdict,
            "certificate": {"t": a["t"], "input": a["p"], "output": out}}, \
        verdict == expect["verdict"]


# ---------------------------------------------------------------------------
# wave-wide


def _wave_meet(a, expect):
    space = a["space"]
    meet = ml.wave_meet(a["w1"], a["w2"])
    c = cert.covered(a["probes"], (meet,))
    v = _verify(space, c) and all(_verify(space, cert.uncovered(m, (meet,)))
                                  for m in a["missing"])
    verdict = "empty" if meet.is_empty() else "nonempty"
    ok = v and verdict == expect["verdict"] and str(meet) == expect["meet"]
    return {"verdict": verdict, "meet": meet, "certificate": c, "verified": v}, ok


def _dense(a, expect):
    space, waves = a["space"], a["waves"]
    dense = space.dense(waves)
    if dense:
        c = cert.covered(a["probes"], waves)
    else:
        c = cert.uncovered(a["probes"][0], waves)
    v = _verify(space, c)
    verdict = "dense" if dense else "not dense"
    return {"verdict": verdict, "certificate": c, "verified": v}, v and verdict == expect["verdict"]


def _chain(a, expect):
    space = a["space"]
    links = ml.chain_connect(space.spec, a["src"], a["dst"], a["removed"], a["window"])
    if links is None:
        return {"verdict": "inconclusive", "certificate": None}, \
            expect["verdict"] == "inconclusive"
    c = cert.chain(links, a["src"], a["dst"], a["removed"])
    v = _verify(space, c)
    return {"verdict": "connected", "certificate": c, "verified": v}, \
        v and expect["verdict"] == "connected"


def _subcover(a, expect):
    space = a["space"]
    covered, c = sp.subcover_attempt(space, sp.canonical_cover(space), a["chosen"])
    v = _verify(space, c)
    verdict = "covers" if covered else "uncovered"
    return {"verdict": verdict, "certificate": c, "verified": v}, v and verdict == expect["verdict"]


def _pipeline(a, expect):
    report = sp.theorem_pipeline(a["space"], a["samples"], probes=a["probes"])
    v = all(stage.get("verified", True) for stage in report["stages"]) and all(
        r["verified"] for stage in report["stages"] for r in stage.get("results", ()))
    return {"verdict": report["verdict"], "certificate": report, "verified": v}, \
        v and report["verdict"] == expect["verdict"]


RUNNERS = {
    "move": _move, "twin": _separate, "far": _separate, "maximal": _maximal,
    "meet": _meet, "homotopy": _homotopy,
    "wave_meet": _wave_meet, "dense": _dense, "chain": _chain, "chain_control": _chain,
    "subcover": _subcover, "pipeline": _pipeline, "separate": _separate,
}
