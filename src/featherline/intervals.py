"""Symbolic set algebra on the line: open interval unions, finite sets,
cofinite subsets of the naturals.

All sets are finite presentations with rational or infinite endpoints, so
every operation here is exact.
"""

from fractions import Fraction
from operator import itemgetter

from .rationals import (NEG_INF, POS_INF, PreconditionError, Value, as_ext, eq, fmt_ext, lt,
                        sorted_by)


class IntervalSet(Value):
    """Canonical finite union of open intervals (a, b), sorted and
    non-overlapping.  Touching intervals like (0,1) and (1,2) stay distinct
    because the shared endpoint is absent from both."""

    __slots__ = _fields = ("intervals",)  # tuple of (lo, hi) pairs

    def __init__(self, intervals):
        object.__setattr__(self, "intervals", intervals)

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        return canon_intervals([(as_ext(a), as_ext(b)) for a, b in pairs])

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def full_line() -> "IntervalSet":
        return IntervalSet(((NEG_INF, POS_INF),))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        """One interval is two comparisons.  Otherwise binary-search, by
        `lt`, for the last interval opening strictly below x: that keeps the
        endpoint shared by touching intervals out."""
        iv = self.intervals
        if len(iv) == 1:
            return lt(iv[0][0], x) and lt(x, iv[0][1])
        lo, hi = 0, len(iv)
        while lo < hi:
            mid = (lo + hi) // 2
            if lt(iv[mid][0], x):
                lo = mid + 1
            else:
                hi = mid
        return lo > 0 and lt(x, iv[lo - 1][1])

    def __str__(self):
        iv = self.intervals
        if len(iv) == 1:
            return "(%s,%s)" % (fmt_ext(iv[0][0]), fmt_ext(iv[0][1]))
        return "u".join(["(%s,%s)" % (fmt_ext(a), fmt_ext(b)) for a, b in iv]) or "empty"


_LO = itemgetter(0)


def canon_intervals(pairs) -> IntervalSet:
    """Sort by lower end, drop empty intervals, merge genuinely overlapping
    ones (in whatever order ties on the lower end come)."""
    merged = []
    for lo, hi in sorted_by((p for p in pairs if lt(p[0], p[1])), _LO):
        if merged and lt(lo, merged[-1][1]):
            if lt(merged[-1][1], hi):
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return IntervalSet(tuple((lo, hi) for lo, hi in merged))


def iset_meet(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Intersection by a two-pointer sweep over the sorted presentations."""
    out = []
    i = j = 0
    ai, bi = a.intervals, b.intervals
    while i < len(ai) and j < len(bi):
        (alo, ahi), (blo, bhi) = ai[i], bi[j]
        lo = blo if lt(alo, blo) else alo
        hi = bhi if lt(bhi, ahi) else ahi
        if lt(lo, hi):
            out.append((lo, hi))
        if not lt(bhi, ahi):
            i += 1
        else:
            j += 1
    return IntervalSet(tuple(out))


def iset_meets(a: IntervalSet, b: IntervalSet) -> bool:
    """Same verdict as `not iset_meet(a, b).is_empty()`: a two-pointer sweep
    that skips an interval ending before the other one starts and stops at
    the first overlap, building nothing."""
    i = j = 0
    ai, bi = a.intervals, b.intervals
    while i < len(ai) and j < len(bi):
        if not lt(bi[j][0], ai[i][1]):
            i += 1
        elif not lt(ai[i][0], bi[j][1]):
            j += 1
        else:
            return True
    return False


def iset_union(*sets: IntervalSet) -> IntervalSet:
    """The union of any number of sets (none gives the empty set), by one
    sort and merge over all their intervals.  One set is returned as it is:
    it is already canonical."""
    if len(sets) == 1:
        return sets[0]
    return canon_intervals([pair for s in sets for pair in s.intervals])


def iset_remove_points(a: IntervalSet, xs) -> IntervalSet:
    """Punch finitely many points out of the set (each splits its interval)
    in one merge sweep over the sorted intervals and the sorted points.
    Order and duplicates in `xs` do not matter."""
    pts = sorted_by(xs)
    out = []
    k = 0
    for lo, hi in a.intervals:
        while k < len(pts) and lt(pts[k], hi):
            if lt(lo, pts[k]):
                out.append((lo, pts[k]))
                lo = pts[k]
            k += 1
        out.append((lo, hi))
    return IntervalSet(tuple(out))


def iset_complement_is_finite(a: IntervalSet) -> bool:
    """True iff the complement of the union is a finite set of points,
    i.e. the intervals stretch to both infinities with zero-width gaps."""
    iv = a.intervals
    if not iv or lt(NEG_INF, iv[0][0]) or lt(iv[-1][1], POS_INF):
        return False
    return all(eq(iv[k][1], iv[k + 1][0]) for k in range(len(iv) - 1))


def iset_covers_line(a: IntervalSet) -> bool:
    return a.intervals == ((NEG_INF, POS_INF),)


def pick_rational_in(lo, hi, avoid=()) -> Fraction:
    """Deterministically pick a rational strictly inside (lo, hi) and outside
    the finite collection `avoid`."""
    if lo >= hi:
        raise PreconditionError("empty interval (%s,%s)" % (fmt_ext(lo), fmt_ext(hi)))
    avoid = set(avoid)
    if lo == NEG_INF and hi == POS_INF:
        candidates = (Fraction(n) for n in _naturals_signed())
    elif lo == NEG_INF:
        candidates = (hi - Fraction(1, 2**j) for j in range(len(avoid) + 2))
    elif hi == POS_INF:
        candidates = (lo + Fraction(1, 2**j) for j in range(len(avoid) + 2))
    else:
        candidates = (lo + (hi - lo) / 2**j for j in range(1, len(avoid) + 3))
    for c in candidates:
        if c not in avoid and lo < c < hi:
            return c
    raise AssertionError("unreachable: ran out of candidates")


def _naturals_signed():
    yield 0
    n = 1
    while True:
        yield n
        yield -n
        n += 1


def iset_pick_point(a: IntervalSet, avoid=()) -> Fraction:
    if not a.intervals:
        raise PreconditionError("empty set has no points")
    lo, hi = a.intervals[0]
    return pick_rational_in(lo, hi, avoid)


class FinSet(Value):
    """Finite sorted duplicate-free set of finite rationals."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements):
        object.__setattr__(self, "elements", elements)

    @staticmethod
    def of(*xs) -> "FinSet":
        return FinSet(tuple(sorted({Fraction(x) for x in xs})))

    def __iter__(self):
        return iter(self.elements)


class CofiniteSet(Value):
    """Subset of the naturals that is either empty or has finite complement.
    A non-empty member denotes N minus `excluded` (a sorted tuple of ints,
    ignored when `empty_set` is True)."""

    __slots__ = _fields = ("excluded", "empty_set")

    def __init__(self, excluded, empty_set=False):
        Value.__init__(self, excluded, empty_set)

    @staticmethod
    def excl(*ns) -> "CofiniteSet":
        return CofiniteSet(tuple(sorted(set(int(n) for n in ns))))

    @staticmethod
    def empty() -> "CofiniteSet":
        return CofiniteSet((), empty_set=True)

    @staticmethod
    def ground() -> "CofiniteSet":
        return CofiniteSet(())

    def contains(self, n: int) -> bool:
        if self.empty_set:
            return False
        return n >= 0 and n not in self.excluded

    def __str__(self):
        if self.empty_set:
            return "cofinite-empty"
        return "cofinite-excl{%s}" % ",".join(str(n) for n in self.excluded)


def cofinite_meet(a: CofiniteSet, b: CofiniteSet) -> CofiniteSet:
    """Intersection: union of excluded sets; the empty set absorbs."""
    if a.empty_set or b.empty_set:
        return CofiniteSet.empty()
    return CofiniteSet(tuple(sorted(set(a.excluded) | set(b.excluded))))
