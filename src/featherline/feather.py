"""The complete feather: an everywhere-branching line.

Points are finite rational sequences (s_0, ..., s_n) with
s_0 < s_1 < ... < s_{n-1} <= s_n (only the last step may be slack).  The
space carries the order topology of the tree order

    (s_0..s_n) < (t_0..t_m)  iff  n <= m, s_i = t_i for i < n, s_n < t_n.

Basic opens are order intervals {w : u < w < v}.  Internally every interval
is decomposed into "arms": sets of the form {prefix + (r,) : r in range},
which make meets, twin detection and chart reasoning finite case analyses.
An interval decomposes its arms once, on first use, and keeps them; a chart
is built with its arms, in the closed forms of `FeatherSpace.chart_form`.
Whether two arm unions meet is decided by `arms_meet`, which stops at the
first overlapping pair and builds no meet.

Validation contract.  A point is checked once, where it is made, and the
check is its type: `fp_validate` is the only maker of a `FeatherPoint`, a tuple
of Fractions that holds a valid point.  `fp_validate` checks anything else in
full and returns a `FeatherPoint` passed back in at once, and
`FeatherPoint(seq)` runs the same check, so no point of that type is unchecked.
`parse_point` returns one, as do the `FeatherInterval`, `FlipGen` and
`StraightenGen` constructors for the points they store; the public operations
`flip_apply`, `replay`, `normalize_to_line`, `fp_move`, `fp_chart`,
`homotopy_eval` and `SkeletonHandle.contains` pass their points through
`fp_validate`, which costs O(1) for a checked point and a full check for any
other tuple.  A slice or sum of a point is a plain tuple again.  Internal
transforms trust tuples that are already valid: a generator's `apply` takes a
valid point, a flip glues a prefix of its pivot to a tail of the point and
checks only that seam, and a translation preserves the order.  A
`StraightenGen` validates its point once, since a truncation of a valid point
is valid, and its `apply` runs the flips at the truncations in one pass,
O(len(s) + len(p)).  Each flip keeps the two cases of `_flip`, in their order,
and its seam check, which compares only the two coordinates that meet at the
seam; which case holds is read off a common-prefix length (or, for the
inverse, a running flag) in O(1), and the image is built once.  `fp_chart`
and `arms_to_intervals` build intervals with `FeatherInterval.trusted`: a
chart's ends come from the checked centre and the radius, clamped by exact
comparisons; a meet's ends are arm prefixes plus arm ends of valid intervals.

Exact comparisons.  Every coordinate comparison, and a chart's ends and
clamp gaps (`add`, `sub`), go through `rationals`, never a `Fraction`
operator: arm ends and chart radii by `lt` and `eq` (`_min` and `_max` keep
the first argument on a tie, as `min` and `max` do), points and prefixes by
`same`, and the homotopy's t <= 1/k as t_num * k <= t_den.  The
kernel's refuter probes a twin pair's p against `fp_twin(p)`, whose prefixes
share p's coordinate objects.
"""

from fractions import Fraction
from functools import cmp_to_key

from .rationals import PreconditionError, Value, add, check_rational, eq, lt, same, sub

def _coords(p) -> str:
    """`",".join(map(fmt_ext, p))` for a tuple of Fractions, read off the slots."""
    return ",".join([str(x._numerator) if x._denominator == 1
                     else "%d/%d" % (x._numerator, x._denominator) for x in p])


def fp_str(p: tuple) -> str:
    """A feather point in input syntax: F(0,1,1)."""
    return "F(%s)" % _coords(p)


class FeatherPoint(tuple):
    """A feather point that `fp_validate` has checked: a tuple of Fractions,
    equal to and hashed as the plain tuple.  Building one runs the check."""

    __slots__ = ()

    def __new__(cls, seq):
        return fp_validate(seq)


def fp_ordered(seq) -> bool:
    """Whether a tuple of rationals is a feather point: nonempty, strictly
    increasing before the last step, which does not fall."""
    n = len(seq)
    return n > 0 and all(map(lt, seq[:-2], seq[1:-1])) and (n == 1 or not lt(seq[-1], seq[-2]))


def fp_validate(seq) -> FeatherPoint:
    """The point `seq` as a `FeatherPoint`: one passed in comes back as it
    is; anything else is checked in full, after its coordinates are coerced
    to Fractions unless they all are."""
    if seq.__class__ is FeatherPoint:
        return seq
    if type(seq) is not tuple or set(map(type, seq)) != {Fraction}:
        seq = tuple(Fraction(x) for x in seq)
    if not seq:
        raise PreconditionError("feather point must be nonempty")
    if not fp_ordered(seq):
        if all(map(lt, seq[:-2], seq[1:-1])):
            raise PreconditionError("last step must be non-decreasing: %s" % fp_str(seq))
        raise PreconditionError("coordinates must be strictly increasing before the last step: %s"
                                % fp_str(seq))
    return tuple.__new__(FeatherPoint, seq)


def fp_less(p: tuple, q: tuple) -> bool:
    n = len(p) - 1
    if n > len(q) - 1:
        return False
    return same(p[:n], q[:n]) and lt(p[n], q[n])


def fp_is_strict(p: tuple) -> bool:
    """True for points whose last step is strict (they are lower twins)."""
    return len(p) == 1 or lt(p[-2], p[-1])


def fp_twin(p: tuple) -> tuple:
    """The unique partner with the same predecessors: append the last
    coordinate if the last step is strict, drop it otherwise."""
    if fp_is_strict(p):
        return p + (p[-1],)
    return p[:-1]


def fp_translate(t, p: tuple) -> tuple:
    t = Fraction(t)
    return tuple(x + t for x in p)


# ---------------------------------------------------------------------------
# Order intervals and their arm decomposition.


class Arm(Value):
    """{prefix + (r,) : r in (lo, hi)}, with the lower end closed when
    lo equals prefix[-1] (the branch point sits on the arm)."""

    __slots__ = _fields = ("prefix", "lo", "hi", "lo_closed")

    def __init__(self, prefix, lo, hi, lo_closed=False):
        Value.__init__(self, prefix, lo, hi, lo_closed)

    def contains_coord(self, r) -> bool:
        if self.lo_closed:
            return not lt(r, self.lo) and lt(r, self.hi)
        return lt(self.lo, r) and lt(r, self.hi)

    def contains(self, p: tuple) -> bool:
        return same(p[:-1], self.prefix) and self.contains_coord(p[-1])

    def is_empty(self) -> bool:
        return not lt(self.lo, self.hi)


class FeatherInterval(Value):
    """Basic open {w : lower < w < upper}; `_arms` keeps its arms."""

    __slots__ = ("lower", "upper", "_arms")
    _fields = ("lower", "upper")

    def __init__(self, lower, upper):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_arms", None)
        self.__post_init__()

    @classmethod
    def trusted(cls, lower, upper, arms=None):
        """The interval between two valid points with lower < upper, which the
        caller guarantees, with its arms if given; nothing is checked."""
        itv = object.__new__(cls)
        object.__setattr__(itv, "lower", lower)
        object.__setattr__(itv, "upper", upper)
        object.__setattr__(itv, "_arms", arms)
        return itv

    def __post_init__(self):
        object.__setattr__(self, "lower", fp_validate(self.lower))
        object.__setattr__(self, "upper", fp_validate(self.upper))
        if not fp_less(self.lower, self.upper):
            raise PreconditionError(
                "interval endpoints must satisfy lower < upper: %s, %s"
                % (fp_str(self.lower), fp_str(self.upper)))

    def __str__(self):
        return "FI[(%s);(%s)]" % (_coords(self.lower), _coords(self.upper))

    def contains(self, p: tuple) -> bool:
        return fp_less(self.lower, p) and fp_less(p, self.upper)

    def arms(self) -> tuple:
        if self._arms is None:
            object.__setattr__(self, "_arms", interval_arms(self.lower, self.upper))
        return self._arms


def interval_arms(u: tuple, v: tuple) -> tuple:
    """Decompose {w : u < w < v} into arms, one per admissible length.

    Members are exactly the points (v_0..v_{m-1}, r) with r < v_m that also
    dominate u; domination forces either m = n (same length as u, range
    bounded below by u_n) or m > n with u_n < v_n.
    """
    n = len(u) - 1
    arms = []
    for m in range(n, len(v)):
        prefix = v[:m]
        if m == n:
            if not same(u[:n], v[:n]):
                continue
            arm = Arm(prefix, u[n], v[n], lo_closed=False)
        else:
            if not same(u[:n], v[:n]) or not lt(u[n], v[n]):
                break
            arm = Arm(prefix, v[m - 1], v[m], lo_closed=True)
        if not arm.is_empty():
            arms.append(arm)
    return tuple(arms)


def _arm_order(a, b) -> int:
    """The order of the key (len(prefix), prefix, lo, not lo_closed), with
    each coordinate compared by `eq` and `lt`, as a cmp function."""
    if len(a.prefix) != len(b.prefix):
        return len(a.prefix) - len(b.prefix)
    for x, y in zip(a.prefix + (a.lo,), b.prefix + (b.lo,)):
        if x is not y and not eq(x, y):
            return -1 if lt(x, y) else 1
    return b.lo_closed - a.lo_closed


def normalize_arms(arms) -> tuple:
    """Sort and merge same-prefix arms with overlapping or closed-touching
    coordinate ranges."""
    keyed = sorted((a for a in arms if not a.is_empty()), key=cmp_to_key(_arm_order))
    out = []
    for arm in keyed:
        if out and same(out[-1].prefix, arm.prefix):
            prev = out[-1]
            if lt(arm.lo, prev.hi) or (eq(arm.lo, prev.hi) and arm.lo_closed) or (
                    eq(arm.lo, prev.lo)):
                out[-1] = Arm(prev.prefix, prev.lo, _max(prev.hi, arm.hi), prev.lo_closed)
                continue
        out.append(arm)
    return tuple(out)


def meet_arms(arms1, arms2) -> tuple:
    out = []
    for a in arms1:
        for b in arms2:
            if not same(a.prefix, b.prefix):
                continue
            if lt(b.lo, a.lo):
                lo, closed = a.lo, a.lo_closed
            elif lt(a.lo, b.lo):
                lo, closed = b.lo, b.lo_closed
            else:
                lo, closed = a.lo, a.lo_closed and b.lo_closed
            hi = _min(a.hi, b.hi)
            arm = Arm(a.prefix, lo, hi, closed)
            if not arm.is_empty():
                out.append(arm)
    return normalize_arms(out)


def arms_meet(arms1, arms2) -> bool:
    """Same verdict as `bool(meet_arms(arms1, arms2))`: true at the first
    same-prefix pair whose coordinate ranges overlap, building no arm.
    Arms are nonempty: ranges overlap when each starts below the other's end."""
    for a in arms1:
        for b in arms2:
            if same(a.prefix, b.prefix) and lt(a.lo, b.hi) and lt(b.lo, a.hi):
                return True
    return False


def arms_to_intervals(arms) -> list:
    """Reassemble a normalized arm union into order intervals.  Closed arms
    are glued below onto the arm ending at their branch point; a stranded
    closed arm would denote a non-open set and is rejected."""
    arms = list(normalize_arms(arms))
    open_arms = [a for a in arms if not a.lo_closed]
    closed_arms = [a for a in arms if a.lo_closed]
    chains = [[a] for a in open_arms]
    progress = True
    while closed_arms and progress:
        progress = False
        for chain in chains:
            tail = chain[-1]
            for c in closed_arms:
                if same(c.prefix, tail.prefix + (tail.hi,)) and eq(c.lo, tail.hi):
                    chain.append(c)
                    closed_arms.remove(c)
                    progress = True
                    break
    if closed_arms:
        raise AssertionError("stranded closed arm (non-open arm union): %s" % closed_arms)
    out = []
    for chain in chains:
        head, tail = chain[0], chain[-1]
        out.append(FeatherInterval.trusted(head.prefix + (head.lo,), tail.prefix + (tail.hi,)))
    return out


# ---------------------------------------------------------------------------
# Charts.


class Chart(Value):
    """Canonical basic neighborhood of `center`: an interval of `radius` around it."""

    __slots__ = _fields = ("center", "radius", "interval")

    def __init__(self, center, radius, interval):
        Value.__init__(self, center, radius, interval)

    def __str__(self):
        return str(self.interval)

    def arms(self):
        return self.interval.arms()

    def contains(self, p: tuple) -> bool:
        return self.interval.contains(p)


def _min(a, b):
    """min(a, b), decided exactly: a on a tie, as `min` keeps it."""
    return b if lt(b, a) else a


def _max(a, b):
    """max(a, b), decided exactly: a on a tie, as `max` keeps it."""
    return b if lt(a, b) else a


def chart_radius(eps) -> Fraction:
    """A chart radius as a Fraction; every space rejects one <= 0 alike."""
    if eps.__class__ is not Fraction:
        eps = Fraction(eps)
    if not lt(0, eps):
        raise PreconditionError("chart radius must be positive")
    return eps


def fp_chart(p: tuple, eps) -> Chart:
    """Chart at p of radius at most eps, auto-shrunk so the member set keeps
    one of the two canonical shapes (pure arm, or glued twin neighborhood)."""
    eps = chart_radius(eps)
    p = fp_validate(p)
    a, k, n = p[-1], p[:-1], 2 if fp_is_strict(p) else 3  # the gap a - p[-n] clamps eps
    if len(p) >= n:
        eps = _min(eps, sub(a, p[-n]))
    lo, hi = sub(a, eps), add(a, eps)
    if n == 2:  # a lower twin: one open arm around a
        return Chart(p, eps, FeatherInterval.trusted(k + (lo,), k + (hi,), (Arm(k, lo, hi),)))
    # upper twin (q, a, a): glue the branch below a to the arm above it
    q = p[:-2]
    arms = (Arm(q, lo, a), Arm(k, a, hi, True))
    return Chart(p, eps, FeatherInterval.trusted(q + (lo,), k + (hi,), arms))


# ---------------------------------------------------------------------------
# Homeomorphisms: flips, translations, homogeneity words.


def flip_apply(s: tuple, r: tuple) -> tuple:
    """The branch flip pinned at s (length >= 2) applied to r: exchanges the
    two branches emanating from s[:-1]'s branch point.  An involution."""
    return FlipGen(s).apply(fp_validate(r))


def _seam_error(head: tuple, tail: tuple) -> PreconditionError:
    return PreconditionError("flip seam breaks the order: %s + %s" % (head, tail))


def _seam_ok(last, first, single: bool) -> bool:
    """Whether a head ending in `last` may be glued to a tail starting with
    `first`: a strict step, or a slack one onto a one-coordinate (`single`)
    tail."""
    return lt(last, first) or (single and eq(last, first))


def _glue(head: tuple, tail: tuple) -> tuple:
    """head + tail for a proper prefix and a suffix of valid points; only
    the seam between them needs checking (`_seam_ok`)."""
    if head and tail and not _seam_ok(head[-1], tail[0], len(tail) == 1):
        raise _seam_error(head, tail)
    return head + tail


def _flip(s: tuple, n: int, p: tuple) -> tuple:
    """The flip pinned at s[:n+1] (n >= 1) applied to a valid point p; the
    first case takes precedence when both patterns match: drop p[n-1] when
    p[:n] is s[:n], else insert s[n-1] before p[n-1] when p[:n-1] is
    s[:n-1] and p[n-1] >= s[n-1]."""
    if len(p) >= n + 1 and same(p[:n], s[:n]):
        return _glue(s[:n - 1], p[n:])
    if len(p) >= n and same(p[:n - 1], s[:n - 1]) and not lt(p[n - 1], s[n - 1]):
        return _glue(s[:n], p[n - 1:])
    return p


class FlipGen(Value):
    __slots__ = _fields = ("pivot",)

    def __init__(self, pivot):
        pivot = fp_validate(pivot)
        if len(pivot) < 2:
            raise PreconditionError("flip needs a point of length >= 2")
        object.__setattr__(self, "pivot", pivot)

    def apply(self, p: tuple) -> tuple:
        """Image of a valid point."""
        return _flip(self.pivot, len(self.pivot) - 1, p)


class StraightenGen(Value):
    """The flips at the truncations s, s[:-1], ..., s[:2] of a point s,
    longest first, which carry s to the length-1 point (s[-1],).  With
    `inverse` set the same flips run shortest first, which undoes them (each
    flip is an involution).  The word stores s once, not n pivots.

    `apply` gives the result of `_flip` at each truncation in turn, in one
    pass: each flip keeps `_flip`'s two cases and `_glue`'s seam check, at
    O(1) a flip (see the module's validation contract)."""

    __slots__ = _fields = ("point", "inverse")

    def __init__(self, point, inverse=False):
        Value.__init__(self, fp_validate(point), inverse)

    def apply(self, p: tuple) -> tuple:
        if self.inverse:
            return _unstraighten(self.point, p)
        return _straighten(self.point, p)


def _straighten(s: tuple, p: tuple) -> tuple:
    """The flips at n = len(s)-1, ..., 1 applied to p.  Flips above n touch
    only indices >= n, so at flip n the point is p[:n] + tail, with c, the
    length of the common prefix of p and s, deciding both cases.  The tail
    grows at its front, so it is kept reversed."""
    m = min(len(s), len(p))
    c = 0
    while c < m and (s[c] is p[c] or eq(s[c], p[c])):
        c += 1
    rev = list(reversed(p[len(s) - 1:]))  # the tail p[n:], reversed
    for n in range(len(s) - 1, 0, -1):
        if c >= n and rev:  # p[:n] is s[:n]: drop p[n-1]
            if n >= 2 and not _seam_ok(s[n - 2], rev[-1], len(rev) == 1):
                raise _seam_error(s[:n - 1], tuple(reversed(rev)))
        elif c >= n - 1 and len(p) >= n and not lt(p[n - 1], s[n - 1]):  # insert s[n-1]
            if not _seam_ok(s[n - 1], p[n - 1], not rev):
                raise _seam_error(s[:n], (p[n - 1],) + tuple(reversed(rev)))
            rev.append(p[n - 1])
            rev.append(s[n - 1])
        elif len(p) >= n:
            rev.append(p[n - 1])
    return tuple(reversed(rev))


def _unstraighten(s: tuple, p: tuple) -> tuple:
    """The flips at n = 1, ..., len(s)-1 applied to p.  Flip n settles
    index n-1 for good, so before flip n the point is head + p[i:]: `head`,
    its first n-1 coordinates, is final, `pre` says whether head is s[:n-1],
    and p[i:] is an untouched suffix of p."""
    head, i, pre = [], 0, True
    for n in range(1, len(s)):
        rest = len(p) - i
        if not rest:  # the point is shorter than n: no later flip applies
            break
        x = s[n - 1]
        hit = pre and eq(p[i], x)
        if hit and rest >= 2:  # p[:n] is s[:n]: drop p[i]
            first = p[i + 1]
            if n >= 2 and not _seam_ok(s[n - 2], first, rest == 2):
                raise _seam_error(s[:n - 1], p[i + 1:])
            head.append(first)
            pre = eq(first, x)
            i += 2
        elif pre and not lt(p[i], x):  # p[:n-1] is s[:n-1]: insert x
            if not _seam_ok(x, p[i], rest == 1):
                raise _seam_error(s[:n], p[i:])
            head.append(x)
        else:
            head.append(p[i])
            pre = hit
            i += 1
    return tuple(head) + p[i:]


class FeatherTranslateGen(Value):
    __slots__ = _fields = ("shift",)

    def __init__(self, shift):
        object.__setattr__(self, "shift", check_rational(shift, "a shift"))

    def apply(self, p: tuple) -> tuple:
        return fp_translate(self.shift, p)


def normalize_to_line(s: tuple):
    """Word taking s to the length-1 point (s_n): one straighten generator,
    or none when s already has length 1.  Returns (word, resulting point)."""
    gen = StraightenGen(s)
    s = gen.point
    cur = gen.apply(s)
    if not same(cur, (s[-1],)):
        raise AssertionError("flip word does not reach the line: %s" % (cur,))
    return ((gen,) if len(s) > 1 else ()), cur


def fp_move(p: tuple, q: tuple):
    """Homogeneity word taking p to q: straighten p to the line, translate,
    un-straighten along q's word.  At most three generators."""
    wp, line_p = normalize_to_line(p)
    wq, line_q = normalize_to_line(q)
    word = list(wp)
    shift = line_q[0] - line_p[0]
    if not eq(shift, 0):
        word.append(FeatherTranslateGen(shift))
    word.extend(StraightenGen(gen.point, inverse=True) for gen in wq)
    return tuple(word)


def replay(word, p: tuple) -> tuple:
    p = fp_validate(p)
    for gen in word:
        p = gen.apply(p)
    return p


def twin_swap_flip(p: tuple) -> FlipGen:
    """A flip exchanging the twin pair through p (works for either twin)."""
    lower = p if fp_is_strict(p) else fp_twin(p)
    return FlipGen(lower + (lower[-1] + 1,))


# ---------------------------------------------------------------------------
# The contraction homotopy.


def homotopy_eval(t, s: tuple) -> tuple:
    """Deformation collapsing branch levels one by one: level n collapses
    onto its branch point during [1/(n+1), 1/n], and the surviving line
    slides left during [1, 2]."""
    t = Fraction(t)
    s = fp_validate(s)
    if lt(t, 0) or lt(2, t):
        raise PreconditionError("homotopy time must lie in [0, 2]")
    if lt(1, t):
        return (s[0] - t + 1,)
    return _homotopy_tree(t, s)


def _homotopy_tree(t, s):
    """The tree phase at a Fraction t in [0, 1].  t <= 1/k is decided on
    integers: t_num * k <= t_den (the denominator is positive)."""
    n = len(s) - 1
    if n == 0 or t._numerator * (n + 1) <= t._denominator:
        return s
    if t._numerator * n <= t._denominator:
        tp = n * (n + 1) * t - n
        x, y = s[n - 1], s[n]
        return s[:n] + ((1 - tp) * y + tp * x,)
    return _homotopy_tree(t, s[:n])


def homotopy_seam_limits(t0, s: tuple):
    """Left and right limit points of t |-> homotopy_eval(t, s) at a seam
    time t0 in {1} or {1/n}.  Returns (left, right); they are equal when the
    path does not jump, twins otherwise."""
    t0 = Fraction(t0)
    s = fp_validate(s)
    left = homotopy_eval(t0, s)  # the phi branch owns the closed endpoint
    if eq(t0, 1):
        right = (s[0],)
    else:
        if t0._numerator != 1:
            raise PreconditionError("seam times are 1 and 1/n")
        n = t0._denominator
        if len(s) - 1 >= n:
            right = s[:n]
        else:
            right = homotopy_eval(t0, s)
    return left, right


# ---------------------------------------------------------------------------
# The strict skeleton: a Hausdorff dense open set, maximal in the sense that
# adjoining any missing point creates a twin pair.


class SkeletonHandle(Value):
    """All points that are not upper twins, optionally conjugated by a flip
    so that a prescribed upper twin lands inside."""

    __slots__ = _fields = ("flip",)

    def __init__(self, flip=None):
        object.__setattr__(self, "flip", flip)

    def __str__(self):
        if self.flip is None:
            return "strict-skeleton"
        return "strict-skeleton*flip(%s)" % _coords(self.flip.pivot)

    def contains(self, p: tuple) -> bool:
        p = fp_validate(p)
        return fp_is_strict(self.flip.apply(p) if self.flip else p)

    def adjoin_witness(self, p: tuple):
        """For p outside the handle, the twin pair created by adjoining it:
        (p, fp_twin(p)) with the partner already inside."""
        if self.contains(p):
            raise PreconditionError("point already inside handle")
        partner = fp_validate(fp_twin(p))
        if not self.contains(partner):
            raise AssertionError("twin partner %s outside the handle" % (partner,))
        return (p, partner)


def strict_skeleton() -> SkeletonHandle:
    return SkeletonHandle()


def skeleton_through(p: tuple) -> SkeletonHandle:
    """Skeleton conjugate containing p (plain skeleton if p is strict)."""
    if fp_is_strict(p):
        return SkeletonHandle()
    return SkeletonHandle(twin_swap_flip(p))
