"""Canonical text syntax for points, sets and basics, shared by the CLI and
the golden files.

    rationals        3, -1/2, inf, -inf
    interval sets    (0,1)u(2,3)   (-inf,inf)   empty
    finite sets      {0,1/2}
    cofinite sets    cofinite-excl{1,2}   cofinite-empty
    feather points   F(0,1,1)
    line points      D(3/2 @1)          (level after @, default 0)
    branch points    B(1,L)
    naturals         N(5)
    feather basics   FI[(0,0);(0,1)]
    waves            W[(-1,1)-{0^1}]
    branch basics    BI[(0,2)@L]

Every value type prints itself in this syntax with `str`, except the feather
point, a tuple of Fractions printed by `feather.fp_str`.
`jsonable` renders a report by one lookup on the exact type of each value.
A wave builds its text once and keeps it, so a wave named twice in a report
(a stage's handle and its certificate) is rendered once.
A feather point is a `feather.FeatherPoint`, or a plain tuple of Fractions
that the engine derived from one; both print alike.  Any other sequence of
rationals in a report must be a list, and renders as a list of rationals.
"""

import re
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import multiline as ml
from .intervals import CofiniteSet, FinSet, IntervalSet
from .rationals import ParseError, fmt_ext, parse_ext, parse_int, parse_rat

# ---------------------------------------------------------------------------
# Formatting.


def fmt_point(p) -> str:
    t = type(p)
    if t is tuple or t is fe.FeatherPoint:
        return fe.fp_str(p)
    if t is int:
        return "N(%d)" % p
    return str(p)


def fmt_basic(b) -> str:
    return str(b)


def _tuple(value):
    # a tuple of points or pairs fails on its first entry, with no generator
    if value and type(value[0]) is Fraction and all(type(c) is Fraction for c in value):
        return fe.fp_str(value)
    return [jsonable(v) for v in value]


# One encoder per type: containers recurse, values that print themselves in
# input syntax go through `str`, generators and certificates become dicts.
_ENCODERS = {
    dict: lambda d: {k if type(k) is str else jsonable(k): jsonable(v) for k, v in d.items()},
    list: lambda s: [jsonable(v) for v in s],
    tuple: _tuple,
    fe.FeatherPoint: fe.fp_str,
    frozenset: lambda s: sorted(map(jsonable, s), key=str),
    Fraction: fmt_ext,
    float: fmt_ext,
    cert.Certificate: lambda c: {"kind": c.kind, "payload": jsonable(c.payload)},
    fe.FlipGen: lambda g: {"gen": "flip", "at": list(map(fmt_ext, g.pivot))},
    fe.StraightenGen: lambda g: {"gen": "unstraighten" if g.inverse else "straighten",
                                 "at": list(map(fmt_ext, g.point))},
    **dict.fromkeys((fe.FeatherTranslateGen, ml.TranslateGen),
                    lambda g: {"gen": "translate", "by": fmt_ext(g.shift)}),
    ml.ExchangeGen: lambda g: {"gen": "exchange", "at": fmt_ext(g.at),
                               "levels": list(g.levels)},
    ml.ReflectGen: lambda g: {"gen": "reflect", "about": fmt_ext(g.about)},
    **dict.fromkeys((ml.MultiLinePoint, ml.BranchPoint, ml.Wave, ml.BranchInterval,
                     fe.FeatherInterval, fe.Chart, fe.SkeletonHandle,
                     IntervalSet, FinSet, CofiniteSet), str),
}


def jsonable(value):
    """Recursively convert engine values into JSON-serializable data."""
    encode = _ENCODERS.get(type(value))
    return value if encode is None else encode(value)


# ---------------------------------------------------------------------------
# Parsing.

_POINT_RE = re.compile(r"^([FDBN])\((.*)\)$")
_WAVE_RE = re.compile(r"^W\[(.*)-\{(.*)\}\]$")
_FI_RE = re.compile(r"^FI\[\((.*)\);\((.*)\)\]$")
_BI_RE = re.compile(r"^BI\[\((.*),(.*)\)@([LR])\]$")
_ISET_RE = re.compile(r"\(([^()]*),([^()]*)\)")
_HANDLE_RE = re.compile(r"^strict-skeleton\*flip\((.*)\)$")


def parse_point(text: str, spec: ml.SpaceSpec = None):
    text = text.strip()
    m = _POINT_RE.match(text)
    if not m:
        raise ParseError("cannot parse point %r" % text)
    tag, body = m.groups()
    if tag == "F":
        try:
            return fe.fp_validate(tuple(parse_rat(c) for c in body.split(",")))
        except Exception as exc:
            raise ParseError("invalid feather point %r: %s" % (text, exc)) from exc
    if tag == "D":
        xs, at, lvl = body.partition("@")
        x, level = parse_rat(xs), parse_int(lvl) if at else 0
        if spec is not None:
            return ml.ml_point(spec, x, level)
        return ml.MultiLinePoint(x, level)
    if tag == "B":
        xs, _, side = body.rpartition(",")
        return ml.branch_point(parse_rat(xs), side.strip())
    if tag == "N":
        return _parse_natural(body)
    raise ParseError("unknown point tag %r" % tag)


def _parse_natural(text: str) -> int:
    n = parse_int(text)
    if n < 0:
        raise ParseError("%s is not a natural number" % n)
    return n


def parse_iset(text: str) -> IntervalSet:
    text = text.strip()
    if text in ("empty", ""):
        return IntervalSet.empty()
    pairs = []
    rest = text
    for part in text.split("u"):
        m = _ISET_RE.match(part.strip())
        if not m or m.group(0) != part.strip():
            raise ParseError("cannot parse interval set %r" % rest)
        pairs.append((parse_ext(m.group(1)), parse_ext(m.group(2))))
    return IntervalSet.of(*pairs)


def parse_cofinite(text: str) -> CofiniteSet:
    text = text.strip()
    if text == "cofinite-empty":
        return CofiniteSet.empty()
    if text.startswith("cofinite-excl{") and text.endswith("}"):
        body = text[len("cofinite-excl{"):-1].strip()
        if not body:
            return CofiniteSet.ground()
        return CofiniteSet.excl(*(_parse_natural(n) for n in body.split(",")))
    raise ParseError("cannot parse cofinite set %r" % text)


def parse_basic(text: str, spec: ml.SpaceSpec = None):
    text = text.strip()
    m = _WAVE_RE.match(text)
    if m:
        parts = parse_iset(m.group(1))
        lift = []
        body = m.group(2).strip()
        if body:
            for item in body.split(","):
                if item.count("^") != 1:
                    raise ParseError("lift entries look like x^level: %r" % item)
                xs, js = item.split("^")
                lift.append((parse_rat(xs), parse_int(js)))
        return ml.Wave(spec or ml.DOUBLED, parts, tuple(lift))
    m = _FI_RE.match(text)
    if m:
        lower = tuple(parse_rat(c) for c in m.group(1).split(","))
        upper = tuple(parse_rat(c) for c in m.group(2).split(","))
        try:
            return fe.FeatherInterval(lower, upper)
        except Exception as exc:
            raise ParseError("invalid feather interval %r: %s" % (text, exc)) from exc
    m = _BI_RE.match(text)
    if m:
        return ml.branch_interval(parse_ext(m.group(1)), parse_ext(m.group(2)), m.group(3))
    if text.startswith("cofinite"):
        return parse_cofinite(text)
    if text == "strict-skeleton":
        return fe.strict_skeleton()
    m = _HANDLE_RE.match(text)
    if m:
        return fe.SkeletonHandle(fe.FlipGen(tuple(parse_rat(c) for c in m.group(1).split(","))))
    raise ParseError("cannot parse basic open %r" % text)
