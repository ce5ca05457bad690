"""Canonical text syntax for points, sets and basics, shared by the CLI and
the golden files.

    rationals        3, -1/2, inf, -inf
    interval sets    (0,1)u(2,3)   (-inf,inf)   empty
    cofinite sets    cofinite-excl{1,2}   cofinite-empty
    feather points   F(0,1,1)
    line points      D(3/2 @1)          (level after @, default 0)
    branch points    B(1,L)
    naturals         N(5)
    feather basics   FI[(0,0);(0,1)]
    waves            W[(-1,1)-{0^1}]
    branch basics    BI[(0,2)@L]

A rational is `n` or `n/d`, an optional sign and decimal digits, which
`rationals.parse_ext` reads with `int` and reduces by one gcd.  Any other
text that `Fraction(text)` reads (decimals, exponents, underscores, spaces
around the slash) goes through `Fraction`, with the same value.  Its
numerator and denominator have at most `sys.get_int_max_str_digits()`
digits, and an exponent is at most that number, so that `Fraction` never
builds 10**exp for a huge exponent; larger text is a `ParseError`.

Every value type prints itself in this syntax with `str`, except the feather
point, a tuple of Fractions printed by `feather.fp_str`.
`jsonable` renders a report by one lookup on the exact type of each value.
`render(value, indent)` is `json.dumps(jsonable(value), indent=indent)`: it
writes jsonable's plain data, escaping strings with json's C
`encode_basestring_ascii`, so rendering never imports `json`.
A wave builds its text once and keeps it, so a wave named twice in a report
(a stage's handle and its certificate) is rendered once.
A feather point is a `feather.FeatherPoint`, or a plain tuple of Fractions
that the engine derived from one; both print alike.  Any other sequence of
rationals in a report must be a list, and renders as a list of rationals.
"""

import re
from _json import encode_basestring_ascii as _quote
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import multiline as ml
from .intervals import CofiniteSet, IntervalSet
from .rationals import ParseError, fmt_ext, parse_ext, parse_int, parse_rat, shorten

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


def _is_point(value):
    # a tuple of points or pairs fails on its first entry, with no generator
    return value and type(value[0]) is Fraction and all(type(c) is Fraction for c in value)


def _tuple(value):
    return fe.fp_str(value) if _is_point(value) else [jsonable(v) for v in value]


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
                     IntervalSet, CofiniteSet), str),
}


def jsonable(value):
    """Recursively convert engine values into JSON-serializable data."""
    encode = _ENCODERS.get(type(value))
    return value if encode is None else encode(value)


def render(value, indent=None) -> str:
    """`json.dumps(jsonable(value), indent=indent)`."""
    out = []
    _walk(jsonable(value), out.append, None if indent is None else "\n", " " * (indent or 0))
    return "".join(out)


def _atom(value) -> str:
    if type(value) is int:
        return int.__repr__(value)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _walk(value, put, nl, step):
    # value: jsonable's output, dicts and lists of str, int, bool and None;
    # nl: the newline and indentation of this value's line, None on one line
    t = type(value)
    if t is str:
        return put(_quote(value))
    if t is not dict and t is not list:
        return put(_atom(value))
    inner = nl and nl + step
    put("{" if t is dict else "[")
    if t is dict:
        value = value.items()
    for i, v in enumerate(value):
        put((", " if nl is None else "," + inner) if i else inner or "")
        if t is dict:
            k, v = v
            put((_quote(k) if type(k) is str else '"%s"' % _atom(k)) + ": ")
        _walk(v, put, inner, step)
    put((value and nl or "") + ("}" if t is dict else "]"))


# ---------------------------------------------------------------------------
# Parsing.

# Strings, compiled by `_match` on first use, so that a run compiles only the
# patterns it uses.
_POINT_RE = r"^([FDBN])\((.*)\)$"
_WAVE_RE = r"^W\[(.*)-\{(.*)\}\]$"
_FI_RE = r"^FI\[\((.*)\);\((.*)\)\]$"
_BI_RE = r"^BI\[\((.*),(.*)\)@([LR])\]$"
_ISET_RE = r"\(([^()]*),([^()]*)\)"
_HANDLE_RE = r"^strict-skeleton\*flip\((.*)\)$"
_COMPILED = {}


def _match(pattern: str, text: str):
    """`re.match(pattern, text)`, with the pattern compiled once and kept."""
    compiled = _COMPILED.get(pattern)
    if compiled is None:
        compiled = _COMPILED[pattern] = re.compile(pattern)
    return compiled.match(text)


def parse_point(text: str, spec: ml.SpaceSpec = None):
    text = text.strip()
    m = _match(_POINT_RE, text)
    if not m:
        raise ParseError("cannot parse point %r" % shorten(text))
    tag, body = m.groups()
    if tag == "F":
        try:
            return fe.fp_validate(tuple(map(parse_rat, body.split(","))))
        except Exception as exc:
            raise ParseError("invalid feather point %r: %s" % (shorten(text), exc)) from exc
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
        raise ParseError("%s is not a natural number" % shorten(str(n)))
    return n


def parse_iset(text: str) -> IntervalSet:
    text = text.strip()
    if text in ("empty", ""):
        return IntervalSet.empty()
    pairs = []
    rest = text
    for part in text.split("u"):
        m = _match(_ISET_RE, part.strip())
        if not m or m.group(0) != part.strip():
            raise ParseError("cannot parse interval set %r" % shorten(rest))
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
    raise ParseError("cannot parse cofinite set %r" % shorten(text))


def parse_basic(text: str, spec: ml.SpaceSpec = None):
    text = text.strip()
    m = _match(_WAVE_RE, text)
    if m:
        parts = parse_iset(m.group(1))
        lift = []
        body = m.group(2).strip()
        if body:
            for item in body.split(","):
                if item.count("^") != 1:
                    raise ParseError("lift entries look like x^level: %r" % shorten(item))
                xs, js = item.split("^")
                lift.append((parse_rat(xs), parse_int(js)))
        return ml.Wave(spec or ml.DOUBLED, parts, tuple(lift))
    m = _match(_FI_RE, text)
    if m:
        lower = tuple(map(parse_rat, m.group(1).split(",")))
        upper = tuple(map(parse_rat, m.group(2).split(",")))
        try:
            return fe.FeatherInterval(lower, upper)
        except Exception as exc:
            raise ParseError("invalid feather interval %r: %s" % (shorten(text), exc)) from exc
    m = _match(_BI_RE, text)
    if m:
        return ml.branch_interval(parse_ext(m.group(1)), parse_ext(m.group(2)), m.group(3))
    if text.startswith("cofinite"):
        return parse_cofinite(text)
    if text == "strict-skeleton":
        return fe.strict_skeleton()
    m = _match(_HANDLE_RE, text)
    if m:
        return fe.SkeletonHandle(fe.FlipGen(tuple(map(parse_rat, m.group(1).split(",")))))
    raise ParseError("cannot parse basic open %r" % shorten(text))
