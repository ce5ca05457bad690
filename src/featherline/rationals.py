"""Exact scalar arithmetic: arbitrary-precision rationals extended with -inf/+inf.

Finite values are `fractions.Fraction` (always in lowest terms with positive
denominator); the two infinities are the float sentinels, which compare
correctly against Fraction.

Exact primitives for the inner loops.  A Fraction is in lowest terms with a
positive denominator, so its `_numerator`/`_denominator` slots decide order,
equality and identity of value, and give sums, with integer arithmetic
alone, without the operators' generic dispatch and without a float.  Nothing
patches `Fraction`: every other caller keeps the stdlib operators.

- `lt(a, b)` is `a < b`: one integer cross-multiplication for a Fraction or
  int pair; a ±inf sentinel against a Fraction, an int or a sentinel is
  decided from the classes and the sign.  A finite float or any other type
  falls back to the operator.
- `eq(a, b)` is `a == b`: the slots of a Fraction pair are compared, and an
  int equals a Fraction only with denominator 1.  Anything else falls back
  to the operator.
- `add(a, b)` and `sub(a, b)` are `a + b` and `a - b`: a Fraction pair by one
  cross-multiplication and one gcd, set into the slots; else the operator.
- `same(p, q)` is `p == q` for tuples of scalars: equal lengths, then an
  identity pass (prefixes sliced from one point share their coordinate
  objects), and only if that fails, `eq` on each pair of coordinates.
- `sorted_by(items, value=None)` is `sorted(items, key=value)` for scalar
  values: stable, keyed on the exact integer floor(v * 2**32) (a sentinel
  keys as itself, and int-float comparison is exact), with ties on that key
  broken by `lt`.
- `denominator_bits(x)` sums the bit lengths of the denominators in a
  rational, a tuple or a `Value`, read from the `_denominator` slot.
- `key(x)` is an integer pair (numerator, denominator) that is equal for two
  values exactly when they are `==`, so an int and an equal Fraction key
  alike.  Anything else keys as `Fraction(x)` does, as it keyed in a
  Fraction-keyed dict.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from math import gcd
from operator import is_

NEG_INF = float("-inf")
POS_INF = float("inf")


def as_ext(x):
    """Coerce ints/Fractions to Fraction, pass infinities through."""
    if isinstance(x, float):
        if x == POS_INF or x == NEG_INF:
            return x
        raise ValueError("non-infinite float endpoint: %r" % x)
    return Fraction(x)


def check_rational(x, what: str):
    """`x` itself if it is an int or a Fraction, else a PreconditionError."""
    if x.__class__ is not Fraction and x.__class__ is not int:
        raise PreconditionError("%s must be an int or a Fraction, not %r" % (what, x))
    return x


def lt(a, b) -> bool:
    """Exactly `a < b`.  Reads the `_numerator`/`_denominator` slots of
    `Fraction` (present on Python 3.10-3.13), which cost far less than the
    public properties; the rationals tests pin this against the operator."""
    ca, cb = a.__class__, b.__class__
    if ca is Fraction:
        if cb is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if cb is int:
            return a._numerator < b * a._denominator
        if cb is float and (b == POS_INF or b == NEG_INF):
            return b > 0
    elif ca is int:
        if cb is Fraction:
            return a * b._denominator < b._numerator
        if cb is float and (b == POS_INF or b == NEG_INF):
            return b > 0
    elif ca is float and (a == POS_INF or a == NEG_INF) and (
            cb is Fraction or cb is int):
        return a < 0
    return a < b


def eq(a, b) -> bool:
    """Exactly `a == b`: a Fraction pair compares its slots (both are in
    lowest terms), an int and a Fraction meet only at denominator 1."""
    if a.__class__ is Fraction:
        if b.__class__ is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if b.__class__ is int:
            return a._denominator == 1 and a._numerator == b
    elif a.__class__ is int and b.__class__ is Fraction:
        return b._denominator == 1 and b._numerator == a
    return a == b


def _lowest(n: int, d: int) -> Fraction:
    """n/d for d > 0, reduced by one gcd and set into the slots unchecked."""
    g = gcd(n, d)
    x = object.__new__(Fraction)
    x._numerator, x._denominator = n // g, d // g
    return x


def add(a, b):
    """Exactly `a + b`: a Fraction pair is summed on its slots."""
    if a.__class__ is Fraction and b.__class__ is Fraction:
        da, db = a._denominator, b._denominator
        return _lowest(a._numerator * db + b._numerator * da, da * db)
    return a + b


def sub(a, b):
    """Exactly `a - b`: a Fraction pair is subtracted on its slots."""
    if a.__class__ is Fraction and b.__class__ is Fraction:
        da, db = a._denominator, b._denominator
        return _lowest(a._numerator * db - b._numerator * da, da * db)
    return a - b


def same(p, q) -> bool:
    """Exactly `p == q` for two tuples of scalars.  The identity pass runs
    in C and settles the common case of coordinates shared by slicing."""
    return len(p) == len(q) and (all(map(is_, p, q)) or all(map(eq, p, q)))


_SCALE = 1 << 32  # the sort key resolves values 2**-32 apart


def _floor_key(v):
    """floor(v * 2**32) as an int for a rational, the sentinel itself for
    ±inf.  Monotone in v, so equal keys are the only ties left."""
    if v.__class__ is Fraction:
        return v._numerator * _SCALE // v._denominator
    if v.__class__ is int:
        return v * _SCALE
    if v.__class__ is float and (v == POS_INF or v == NEG_INF):
        return v
    return _floor_key(Fraction(v))


def _lt_cmp(a, b) -> int:
    # a sort asks only `x < y`, which `cmp_to_key` answers as cmp(x, y) < 0
    return -1 if lt(a, b) else 0


_EXACT = cmp_to_key(_lt_cmp)


def sorted_by(items, value=None) -> list:
    """Exactly `sorted(items, key=value)` for scalar values, and as stable.
    Sorts on integer keys; only runs of values closer than 2**-32 are then
    sorted exactly, by `lt`."""
    items = list(items)
    if len(items) < 2:
        return items
    values = items if value is None else list(map(value, items))
    keys = list(map(_floor_key, values))
    order = sorted(range(len(items)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):  # sort each run of tied keys exactly
        runs = [list(run) for _, run in groupby(order, keys.__getitem__)]
        for run in runs:
            if len(run) > 1:
                run.sort(key=lambda i: _EXACT(values[i]))
        order = [i for run in runs for i in run]
    return [items[i] for i in order]


def key(x) -> tuple:
    """A dict key for a finite scalar: (numerator, denominator) in lowest
    terms, so equal values key alike whatever their type."""
    if x.__class__ is not Fraction:
        if x.__class__ is int:
            return (x, 1)
        x = Fraction(x)
    return (x._numerator, x._denominator)


def denominator_bits(x) -> int:
    """The bit lengths of the denominators of the rationals in `x`, summed:
    `x` is a rational, or a tuple or `Value` holding them, nested; anything
    else counts 0.  Distinct rationals a and b differ by at least
    1/(den_a*den_b), which bounds the halvings of a search by scale."""
    bits, todo = 0, [x]
    while todo:
        x = todo.pop()
        if x.__class__ is Fraction:
            bits += x._denominator.bit_length()
        elif x.__class__ is int:
            bits += 1
        elif isinstance(x, Value):
            todo.append(x._values())
        elif isinstance(x, tuple):
            todo.extend(x)
    return bits


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
