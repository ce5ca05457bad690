"""Exact scalar arithmetic: arbitrary-precision rationals extended with -inf/+inf.

Finite values are `fractions.Fraction` (always in lowest terms with positive
denominator); the two infinities are the float sentinels, which compare
correctly against Fraction.

`lt(a, b)` is `a < b` for the inner loops.  A Fraction is in lowest terms
with a positive denominator, so a Fraction or int pair is compared by one
integer cross-multiplication, without the operator's generic dispatch and
without a float; a sentinel or any other type falls back to the operator.
Nothing patches `Fraction`: every other caller keeps the stdlib operators.
"""

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


def lt(a, b) -> bool:
    """Exactly `a < b`.  Reads the `_numerator`/`_denominator` slots of
    `Fraction` (present on Python 3.10-3.13), which cost far less than the
    public properties; the rationals tests pin this against the operator."""
    if a.__class__ is Fraction:
        if b.__class__ is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if b.__class__ is int:
            return a._numerator < b * a._denominator
    elif a.__class__ is int and b.__class__ is Fraction:
        return a * b._denominator < b._numerator
    return a < b


def fmt_ext(x) -> str:
    if x.__class__ is not Fraction:
        if x == POS_INF or x == NEG_INF:
            return "inf" if x > 0 else "-inf"
        x = Fraction(x)
    n, d = x._numerator, x._denominator
    return str(n) if d == 1 else "%d/%d" % (n, d)


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


class Value:
    """A slotted value type.  `_fields` names the fields that equality (same
    class only), hash and the dataclass-style repr read; hidden caches are
    slots left out of it.  `__init__` sets each field once, through
    `Value.__init__` or `object.__setattr__`; assignment raises AttributeError."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
