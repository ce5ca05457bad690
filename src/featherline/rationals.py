"""Exact scalar arithmetic: arbitrary-precision rationals extended with -inf/+inf.

Finite values are `fractions.Fraction` (always in lowest terms with positive
denominator); the two infinities are the float sentinels, which compare
correctly against Fraction.
"""

from __future__ import annotations

from fractions import Fraction

NEG_INF = float("-inf")
POS_INF = float("inf")


def as_ext(x):
    """Coerce ints/Fractions to Fraction, pass infinities through."""
    if isinstance(x, float):
        if x == POS_INF or x == NEG_INF:
            return x
        raise ValueError("non-infinite float endpoint: %r" % x)
    return Fraction(x)


def fmt_ext(x) -> str:
    if isinstance(x, float):
        if x == POS_INF:
            return "inf"
        if x == NEG_INF:
            return "-inf"
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_ext(s: str):
    s = s.strip()
    if s in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    if s in ("-inf", "-oo"):
        return NEG_INF
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("cannot parse rational %r" % s) from exc


def parse_rat(s: str) -> Fraction:
    """A finite rational; the infinities are rejected."""
    x = parse_ext(s)
    if isinstance(x, float):
        raise ParseError("expected a finite rational, got %r" % s.strip())
    return x


def parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ParseError("cannot parse integer %r" % s.strip()) from exc


class ParseError(ValueError):
    """Malformed text syntax (CLI exit status 1)."""


class PreconditionError(ValueError):
    """Operation precondition violated (CLI exit status 2)."""
