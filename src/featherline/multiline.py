"""The k-fold line family: the everywhere doubled line (k=2), the tripled
line (k=3), the ordinary line (k=1), and the line with two origins (k=2 with
doubling restricted to the abscissa 0) -- plus the branching line.

Basic opens are waves: an open set downstairs with finitely many abscissae
removed and lifted to an upper level.

Validation contract.  `Wave(spec, parts, lift)` checks its input: parsed
text and caller-supplied lifts are coerced to Fractions, sorted, and each
lift must be a doubled abscissa inside the open set at a level in 1..k-1,
lifted to one level only.  `Wave.trusted(spec, parts, lift, levels)` builds
only from checked inputs and checks nothing: `MultiLineSpace.maximal_hausdorff`
uses it for the full wave through a point that `is_point` has accepted.  The
verifier holds a handle's lifts to the space itself
(`is_maximal_hausdorff`), so it does not rely on either constructor.

The wave algebra is near-linear in the number of lifts.  A `Wave` builds its
abscissa -> level map once, when it is constructed, and membership, member
levels and meets read that stored map.  The map `_levels` is keyed by the
integer pair `rationals.key(x)`, not by the Fraction, since hashing a
Fraction computes a modular inverse every time; `lift_map()` still hands out
a Fraction-keyed dict, built from the sorted `lift`.  `chain_connect` keys
its constraints the same way.
Lifted abscissae are punched out of the open set in one merge sweep
(`iset_remove_points`), by `wave_meet` and `down_projection` alike.
Disjointness is decided downstairs (`waves_disjoint`): removing finitely many
points from a nonempty open set leaves it nonempty, so two waves meet exactly
when their open sets do.  The overlap test `iset_meets` stops at the first
overlap, so neither a meet wave nor a meet of the open sets is built.
"""

from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .intervals import (FinSet, IntervalSet, iset_meet, iset_meets, iset_pick_point,
                        iset_remove_points)
from .rationals import (NEG_INF, POS_INF, PreconditionError, Value, check_rational, eq, fmt_ext,
                        key, lt, sorted_by)

_ABSCISSA = itemgetter(0)  # lift abscissae are unique: sort by them alone


class SpaceSpec(Value):
    """Fiber count and which abscissae possess upper levels: `doubling` is
    "all" or a FinSet.  Only this class reads that sentinel.  `everywhere`
    says whether every abscissa has upper levels (k > 1 and "all");
    otherwise the tuple `finite` holds the finitely many doubled abscissae,
    none on the line (k = 1)."""

    __slots__ = ("k", "doubling", "everywhere", "finite")
    _fields = ("k", "doubling")

    def __init__(self, k, doubling="all"):
        if k < 1:
            raise PreconditionError("fiber count must be >= 1")
        Value.__init__(self, k, doubling)
        everywhere = k > 1 and doubling == "all"
        object.__setattr__(self, "everywhere", everywhere)
        object.__setattr__(self, "finite",
                           None if everywhere else () if k == 1 else doubling.elements)

    def is_doubled(self, x) -> bool:
        return self.everywhere or x in self.finite


LINE = SpaceSpec(1)
DOUBLED = SpaceSpec(2)
TRIPLED = SpaceSpec(3)
TWO_ORIGINS = SpaceSpec(2, FinSet.of(0))


class MultiLinePoint(namedtuple("MultiLinePoint", "x level")):
    __slots__ = ()

    def __str__(self):
        x, level = self
        if x.__class__ is Fraction:  # lowest terms: the slots print as fmt_ext does
            if x._denominator == 1:
                return "D(%d @%d)" % (x._numerator, level)
            return "D(%d/%d @%d)" % (x._numerator, x._denominator, level)
        return "D(%s @%d)" % (fmt_ext(x), level)


def ml_point(spec: SpaceSpec, x, level: int) -> MultiLinePoint:
    if x.__class__ is not Fraction:
        x = Fraction(x)
    level = int(level)
    if not 0 <= level < spec.k:
        raise PreconditionError("level %d out of range for k=%d" % (level, spec.k))
    if level > 0 and not spec.is_doubled(x):
        raise PreconditionError("abscissa %s is not doubled" % fmt_ext(x))
    return MultiLinePoint(x, level)


class Wave(Value):
    """Basic open: (O minus lifted abscissae) downstairs, lifted points
    upstairs at their assigned levels.  `lift` is a sorted tuple of
    (abscissa, level) with level >= 1, and `_levels` maps `key(abscissa)` ->
    level.  `_text` keeps the text the first `str` builds."""

    __slots__ = ("spec", "parts", "lift", "_levels", "_text")
    _fields = ("spec", "parts", "lift")

    def __init__(self, spec, parts, lift=()):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "_text", None)
        self.__post_init__()

    @classmethod
    def trusted(cls, spec, parts, lift, levels):
        """The wave of `spec` over `parts` lifting `lift`, a sorted tuple of
        (Fraction, level) pairs that `Wave` would accept, with `levels` its
        map `key(abscissa)` -> level, which the caller guarantees; nothing is
        checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "spec", spec)
        object.__setattr__(w, "parts", parts)
        object.__setattr__(w, "lift", lift)
        object.__setattr__(w, "_levels", levels)
        object.__setattr__(w, "_text", None)
        return w

    def __post_init__(self):
        levels, lift = {}, []
        for x, j in self.lift:
            if x.__class__ is not Fraction:
                x = Fraction(x)
            k = key(x)
            if k not in levels:
                lift.append((x, int(j)))
            levels[k] = int(j)
        if len(lift) < len(self.lift):  # a repeated abscissa must repeat its level
            for x, j in self.lift:
                if levels[key(x)] != int(j):
                    raise PreconditionError("abscissa %s lifted to two levels" % fmt_ext(x))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "lift", tuple(sorted_by(lift, _ABSCISSA)))
        for x, j in self.lift:
            if not 1 <= j < self.spec.k:
                raise PreconditionError("lift level %d out of range" % j)
            if not self.parts.contains(x):
                raise PreconditionError("lifted abscissa %s outside the open set" % fmt_ext(x))
            if not self.spec.is_doubled(x):
                raise PreconditionError("lifted abscissa %s is not doubled" % fmt_ext(x))

    def lift_map(self) -> dict:
        return dict(self.lift)

    def contains(self, p: MultiLinePoint) -> bool:
        # look x up last, and only if something is lifted
        levels = self._levels
        if p.level == 0:
            return self.parts.contains(p.x) and not (levels and key(p.x) in levels)
        return bool(levels) and levels.get(key(p.x)) == p.level

    def is_empty(self) -> bool:
        return self.parts.is_empty()

    def down_projection(self) -> IntervalSet:
        """Open set of abscissae whose down point belongs to the wave."""
        return iset_remove_points(self.parts, (x for x, _ in self.lift))

    def __str__(self):
        if self._text is None:
            lifts = ",".join(["%s^%d" % (fmt_ext(x), j) for x, j in self.lift])
            object.__setattr__(self, "_text", "W[%s-{%s}]" % (self.parts, lifts))
        return self._text


def full_wave(spec: SpaceSpec, lift=()) -> Wave:
    return Wave(spec, IntervalSet.full_line(), tuple(lift))


def wave_meet(w1: Wave, w2: Wave) -> Wave:
    """Single wave with membership equal to the intersection.  An abscissa
    lifted by the two waves to different levels (or lifted by only one) has
    no common point and is punched out of the open set."""
    if w1.spec != w2.spec:
        raise PreconditionError("waves from different spaces")
    parts = iset_meet(w1.parts, w2.parts)
    m1, m2 = w1._levels, w2._levels
    lift, punched = [], []
    for x, j1 in w1.lift:
        if parts.contains(x):
            if m2.get(key(x)) == j1:
                lift.append((x, j1))
            else:
                punched.append(x)
    punched.extend(x for x, _ in w2.lift if key(x) not in m1 and parts.contains(x))
    return Wave(w1.spec, iset_remove_points(parts, punched), tuple(lift))


def waves_disjoint(w1: Wave, w2: Wave) -> bool:
    """Same verdict as `wave_meet(w1, w2).is_empty()`, decided downstairs:
    the meet only punches finitely many points out of the meet of the open
    sets, which leaves a nonempty open set nonempty."""
    if w1.spec is not w2.spec and w1.spec != w2.spec:
        raise PreconditionError("waves from different spaces")
    return not iset_meets(w1.parts, w2.parts)


def wave_member_levels(w: Wave, x) -> set:
    """Levels the wave occupies at abscissa x (empty, {0}, or one lift)."""
    j = w._levels.get(key(x))
    if j is not None:
        return {j}
    if w.parts.contains(x):
        return {0}
    return set()


# ---------------------------------------------------------------------------
# Homeomorphism generators.


class TranslateGen(Value):
    __slots__ = _fields = ("shift",)

    def __init__(self, shift):
        object.__setattr__(self, "shift", check_rational(shift, "a shift"))

    def apply(self, p: MultiLinePoint) -> MultiLinePoint:
        return MultiLinePoint(p.x + self.shift, p.level)


class ExchangeGen(Value):
    __slots__ = _fields = ("at", "levels")

    def __init__(self, at, levels):  # levels: (i, j), two distinct naturals
        if not (type(levels) is tuple and len(levels) == 2
                and all(type(j) is int and j >= 0 for j in levels) and levels[0] != levels[1]):
            raise PreconditionError("exchange levels must be two distinct naturals: %r" % (levels,))
        Value.__init__(self, check_rational(at, "an exchange abscissa"), levels)

    def _swap(self, level: int) -> int:
        i, j = self.levels
        if level == i:
            return j
        if level == j:
            return i
        return level

    def apply(self, p: MultiLinePoint) -> MultiLinePoint:
        if p.x != self.at:
            return p
        return MultiLinePoint(p.x, self._swap(p.level))


class ReflectGen(Value):
    __slots__ = _fields = ("about",)

    def __init__(self, about):
        object.__setattr__(self, "about", check_rational(about, "a reflection center"))

    def apply(self, p: MultiLinePoint) -> MultiLinePoint:
        return MultiLinePoint(2 * self.about - p.x, p.level)


def ml_move(spec: SpaceSpec, p: MultiLinePoint, q: MultiLinePoint, involutive=False):
    """Homeomorphism word taking p to q.  The involutive variant reflects
    about the midpoint and patches levels with exchanges; it swaps p and q
    and squares to the identity."""
    if spec.finite and p.x != q.x:  # doubled at finitely many abscissae, at least one
        raise PreconditionError("restricted doubling domain: cannot move across abscissae")
    word = []
    if involutive:
        if p.x != q.x:
            word.append(ReflectGen((p.x + q.x) / 2))
        if p.level != q.level:
            pair = (p.level, q.level)
            word.append(ExchangeGen(q.x, pair))
            if p.x != q.x:
                word.append(ExchangeGen(p.x, pair))
    else:
        if p.x != q.x:
            word.append(TranslateGen(q.x - p.x))
        if p.level != q.level:
            word.append(ExchangeGen(q.x, (p.level, q.level)))
    return tuple(word)


def ml_replay(word, p: MultiLinePoint) -> MultiLinePoint:
    for gen in word:
        p = gen.apply(p)
    return p


# ---------------------------------------------------------------------------
# Witness generators.


def rational_down_witness(w: Wave) -> MultiLinePoint:
    """A rational down point inside a nonempty wave (the down rationals are
    dense)."""
    if w.is_empty():
        raise PreconditionError("empty wave has no points")
    x = iset_pick_point(w.parts, avoid=[x for x, _ in w.lift])
    return MultiLinePoint(x, 0)


def chain_connect(spec: SpaceSpec, src: MultiLinePoint, dst: MultiLinePoint,
                  removed, window):
    """Try to link src to dst with a chain of connected waves avoiding the
    removed points.  Returns a list of waves, or None when the bounded
    construction finds no chain (reported as inconclusive, never as
    'disconnected')."""
    removed = tuple(removed)
    gone = {(key(r.x), r.level) for r in removed}
    if (key(src.x), src.level) in gone or (key(dst.x), dst.level) in gone:
        raise PreconditionError("endpoints must not be removed")
    wlo, whi = Fraction(window[0]), Fraction(window[1])
    lo, hi = min(src.x, dst.x), max(src.x, dst.x)
    if not (wlo < lo and hi < whi):
        raise PreconditionError("window must contain the endpoint abscissae")

    # pad the span, stopping short of removed abscissae strictly outside it
    pad = min(Fraction(1), (lo - wlo) / 2, (whi - hi) / 2)
    for r in removed:
        if lt(r.x, lo):
            pad = min(pad, (lo - r.x) / 2)
        elif lt(hi, r.x):
            pad = min(pad, (r.x - hi) / 2)
    parts = IntervalSet.of((lo - pad, hi + pad))

    # endpoints at the same abscissa but different levels need two waves
    # overlapping away from that abscissa
    split = eq(src.x, dst.x) and src.level != dst.level

    # every map below is keyed by key(abscissa); `constrained` maps each
    # abscissa that needs a chosen level to the abscissa itself
    ends = () if split else (src, dst)
    required = {key(p.x): p.level for p in ends}
    forbidden_at, constrained = {}, {}
    for r in removed:
        k = key(r.x)
        if k not in forbidden_at:
            forbidden_at[k] = set()
            if parts.contains(r.x):
                constrained[k] = r.x
        forbidden_at[k].add(r.level)
    if split:
        constrained.pop(key(src.x), None)
    constrained.update((key(p.x), p.x) for p in ends)
    lift = []
    for k, x in constrained.items():
        forbidden = forbidden_at.get(k, ())
        if k in required:
            choice = required[k]
            if choice in forbidden:
                return None
        else:
            allowed = [j for j in range(spec.k)
                       if j not in forbidden and (j == 0 or spec.is_doubled(x))]
            if not allowed:
                return None
            choice = allowed[0]
        if choice > 0:
            lift.append((x, choice))
    if split:
        # the endpoints' abscissa is not constrained, so it is not in `lift`
        links = [Wave(spec, parts, tuple(lift + [(p.x, p.level)] if p.level > 0 else lift))
                 for p in (src, dst)]
        if not (links[0].contains(src) and links[1].contains(dst)):
            raise AssertionError("chain links miss their endpoints")
        if waves_disjoint(links[0], links[1]):
            raise AssertionError("chain links do not meet")
        return links
    wave = Wave(spec, parts, tuple(lift))
    if not (wave.contains(src) and wave.contains(dst)):
        raise AssertionError("chain wave misses its endpoints")
    return [wave]


def up_points_discrete_witnesses(spec: SpaceSpec, sample: FinSet, down_point):
    """For each sampled abscissa, a wave isolating its up point from the
    other sampled up points, and a wave showing the down point `down_point`
    avoids the up set entirely."""
    isolating = {}
    xs = list(sample)
    for x in xs:
        if not spec.is_doubled(x):
            raise PreconditionError("abscissa %s is not doubled" % fmt_ext(x))
        gaps = [abs(x - y) for y in xs if y != x]
        d = min(gaps) / 2 if gaps else Fraction(1)
        isolating[x] = Wave(spec, IntervalSet.of((x - d, x + d)), ((x, 1),))
    gaps = [abs(down_point.x - y) for y in xs if y != down_point.x]
    d = min(gaps) / 2 if gaps else Fraction(1)
    avoiding = Wave(spec, IntervalSet.of((down_point.x - d, down_point.x + d)), ())
    return isolating, avoiding


# ---------------------------------------------------------------------------
# The branching line: two copies of R glued along the negatives.


class BranchPoint(namedtuple("BranchPoint", "x side")):
    __slots__ = ()  # side "L" or "R"; x < 0 is side-agnostic, canonicalized to "L"

    def __str__(self):
        return "B(%s,%s)" % (fmt_ext(self.x), self.side)


def branch_point(x, side="L") -> BranchPoint:
    x = Fraction(x)
    if side not in ("L", "R"):
        raise PreconditionError("side must be L or R")
    if x < 0:
        side = "L"
    return BranchPoint(x, side)


class BranchInterval(Value):
    """Open interval (lo, hi) read on one side: its x >= 0 part carries the
    side tag, its negative part is shared."""

    __slots__ = _fields = ("lo", "hi", "side")

    def __init__(self, lo, hi, side):
        if not lo < hi:
            raise PreconditionError("empty branch interval")
        if side not in ("L", "R"):
            raise PreconditionError("side must be L or R")
        Value.__init__(self, lo, hi, side)

    def __str__(self):
        return "BI[(%s,%s)@%s]" % (fmt_ext(self.lo), fmt_ext(self.hi), self.side)

    def contains(self, p: BranchPoint) -> bool:
        if not self.lo < p.x < self.hi:
            return False
        return p.x < 0 or p.side == self.side


def branch_interval(lo, hi, side) -> BranchInterval:
    return BranchInterval(Fraction(lo) if lo != NEG_INF else NEG_INF,
                          Fraction(hi) if hi != POS_INF else POS_INF, side)


def branch_meet(b1: BranchInterval, b2: BranchInterval) -> list:
    lo, hi = max(b1.lo, b2.lo), min(b1.hi, b2.hi)
    if b1.side == b2.side:
        return [BranchInterval(lo, hi, b1.side)] if lo < hi else []
    hi = min(hi, Fraction(0))  # different sides only share the negatives
    return [BranchInterval(lo, hi, "L")] if lo < hi else []

