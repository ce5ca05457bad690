"""Uniform space interface: membership, meets, separation, convergence,
density and certificate verification for every space in the corpus.

Each space is basis-presented: its basic opens have decidable membership and
meet, and every point has a canonical shrinking family of basic
neighborhoods, which is what makes separation and convergence decidable.

The space protocol.  `FeatherSpace`, `MultiLineSpace` (line, doubled,
tripled, two-origins), `BranchSpace` and `CofiniteSpace` answer the same
calls, so no caller asks which space it holds.  A family of basics is a
list (`dense`, `union_twin_pair`): one handle goes in as `[handle]`.  Each
class defines:

    every space          is_point meet meet_is_empty canonical_neighborhood
                         chart_form common_point non_separable_pair separable
    all but branch       dense
    feather, multiline   descriptor term converges move replay union_twin_pair
                         basic_subset maximal_hausdorff is_maximal_hausdorff
                         cover_admits cover_member uncovered_point
                         default_subfamily baire_point chart_sample
                         pipeline_sample
    feather only         homotopy density_witness
    multiline only       chain connected cover_probes covered_by

`Space` answers the rest.  `member` tests a basic of the types the space
declares in `basic_kind`, and rejects any other with "not a <noun>".
By default `density_witness` (a basic missing a non-dense union) is None,
`covered_by` is True (a covered certificate rests on its probes) and
`is_baire` is True; the cofinite space is not Baire, as its diagonal family
of dense opens has empty intersection.  An operation a space lacks is a
stub, generated once on `Space`, that raises
`PreconditionError("<op> is not implemented for <tag>")`.  The bench tracer
times only the methods a space class defines itself, so the table's methods
stay on each class.

The separation rule.  `_separate` is every `separable`: a non-separable
pair is cross-checked by the refuter and certified as a twin pair; any
other is separated by the canonical charts of p and q at the first radius
among scale, scale/2, ... at which they are disjoint.  The start radius is
1 on the feather and |p.x - q.x|/2 elsewhere (|x|/2 for the branching
line's two sheets over one x), where the first probe succeeds.

The upper-twin rule.  Each twin pair holds one upper twin u = (q, r, r), so
a feather union holds a pair exactly when it holds some u and u[:-1].  Its
upper twins are finitely many: the closed lower end prefix + (lo,) of each
arm (the only one an arm holds), and pivot[:-1] + (pivot[-2],) of a skeleton
flipped at pivot; the plain skeleton holds none.

The probe contract.  `meet_is_empty(b1, b2)` gives the verdict of
`not meet(b1, b2)` without building the meet: the refuter makes 16 such
probes per call, so each is one early-exit overlap test (`arms_meet` on the
feather, `waves_disjoint` on the line family).

Parsing is the boundary: `parse_point` and `parse_basic` reject another
space's objects with a `PreconditionError` quoting the input, so wrong-space
objects never reach the operations the refuter calls in its inner loop.
`verify_certificate` holds a certificate built in-process to the same rule:
before any check runs, one walk matches its payload against
`certificates.SCHEMA`.  The payload must hold exactly its kind's fields,
each of its shape: points that `is_point` accepts, basics of the types in
`basic_kind`, word generators of the types in `generators`.  A check asks
the space about a basic (`member`, `connected`), so a payload the space has
no such operation for meets a stub's `PreconditionError`: a rejection.
A sequence is checked once too: `descriptor(base, index, limit, direction)`
is the only way to build a `SeqDescriptor`.  It refuses a base that is not
a point of the space, an index out of range, a direction other than "below"
or "above", a limit below the floor (or at it, from below) and an up-level
base on a line not doubled everywhere.  Its terms come from the space that
built it (`term`).  `converges` holds only the descriptor's base and its
target to `is_point`, which also refuses another space's descriptor.

The verification contract.  A `twin-pair` certificate, and each adjoin
sample of a `maximal-hausdorff` one, claims a pair that no two canonical
charts separate, at any scales.  The verifier proves that exactly, without
the refuter and without the producer's `non_separable_pair`:
  - each space declares a point's canonical chart as a `ChartForm`, affine
    in the radius ρ, with the cap at which `canonical_neighborhood` clamps
    ρ, and names a common point w(δ) of a pair, also affine;
  - the forms must be nested (lower ends fall, upper ends rise with ρ), so
    the charts at scales past R = min(1, caps) contain those at R, and the
    one piece (0, R] stands for every pair of scales;
  - on (0, R] each membership margin a + b·δ must be positive, that is
    a >= 0 and a + b·R > 0, decided by comparisons first, each one on
    integers by `rationals.lt`, so no float enters a verdict; a common
    point and a chart form reuse the point's abscissa, so ends and keys
    that are one object settle by identity before any comparison;
  - no chart is built, so every payload point is first validated against
    the space: a point of the right type but not of the space, such as
    D(1 @1) on the line with two origins, is rejected.
The producer's cross-check in `separable` keeps the 4-scale refuter.
A `maximal-hausdorff` certificate claims a maximal Hausdorff dense open
through x.  The verifier reads maximality off the handle's form in O(1)
(`is_maximal_hausdorff`), without the producer's `union_twin_pair` and
`dense`:
  - on the line family a wave holds at most one point over each abscissa,
    so every wave is Hausdorff; a wave of the space's spec is maximal
    exactly when it holds a point over every abscissa, that is, when its
    open set is the whole line, and it is then dense, as its down
    projection misses only its finitely many lifted abscissae; each lift
    must be an upper point of the space that the wave's level map reads,
    checked here, since `Wave.trusted` builds a handle unchecked;
  - on the feather the handle must be a `SkeletonHandle`: the strict
    skeleton, maximal, dense and Hausdorff, or its image under a flip, a
    homeomorphism, which is all three too; a chart or interval is not;
  - the branching line and the cofinite naturals have no such handle, and
    the stub's `PreconditionError` is a rejection.
Each adjoin sample is still checked: the outside point is not in the
handle, the partner is, and the pair is non-separable at every scale.
A `homeo-word` certificate claims a homeomorphism of this space.  Before it
replays the word, the verifier asks whether each generator maps the space
onto itself, reading the rule off the spec, not `ml_move`: a translation or
reflection must map the doubled set onto itself, and an exchange must swap
two levels that both exist over its abscissa (or neither, and move no
point).  Feather generators always do.
"""

from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import multiline as ml
from .intervals import (CofiniteSet, IntervalSet, cofinite_meet, iset_complement_is_finite,
                        iset_covers_line, iset_pick_point, iset_union, pick_rational_in)
from .rationals import (NEG_INF, POS_INF, PreconditionError, Value, add, check_rational,
                        denominator_bits, eq, key, lt, same, shorten, sorted_by, sub)
from .syntax import parse_basic, parse_point

REFUTER_SCALES = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
_RATIONAL = frozenset((Fraction, int))  # exact coordinate types of a point
_ZERO, _HALF, _NEG_HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)


class SeqDescriptor(Value):
    """A sequence built and checked by its space's `descriptor`, whose
    `term` gives its points: the coordinates of `base` before `coord_index`
    stay fixed and the moving one runs m |-> limit -+ 1/m ("below" |
    "above").  A term is a point once the moving coordinate is at least
    `floor` (None where nothing bounds it)."""

    __slots__ = _fields = ("base", "coord_index", "limit", "direction", "floor")

    def coordinate(self, m: int) -> Fraction:
        step = Fraction(1, m)
        return self.limit - step if self.direction == "below" else self.limit + step

    def first_point(self, m: int) -> int:
        """The first m' >= m whose term is a point: from below, the first
        with 1/m' <= limit - floor."""
        if self.floor is None or self.direction == "above":
            return m
        gap = self.limit - self.floor
        return max(m, -(-gap.denominator // gap.numerator))


def _sequence(base, index, limit, direction, floor=None) -> SeqDescriptor:
    """The checks every `descriptor` shares: the direction, and a rational
    limit at least the floor (above it from below)."""
    if direction not in ("below", "above"):
        raise PreconditionError("direction must be 'below' or 'above'")
    limit = check_rational(limit, "a limit")
    if floor is not None and (lt(limit, floor) or direction == "below" and eq(limit, floor)):
        raise PreconditionError("from-%s terms fall outside the space" % direction)
    return SeqDescriptor(base, index, limit, direction, floor)


class ChartForm:
    """A point's canonical chart as an affine form in its radius ρ.

    The chart holds the points (key, r) with lo < r < hi on one of its
    `arms` (key, lo, hi, lo_closed), less the coordinates in `excluded`,
    whose points sit upstairs at the center's level; where `shared_below`
    is set, an arm also holds the points of every other key with r below
    it.  Each end is a pair (a, b) standing for a + b·ρ.
    `canonical_neighborhood(p, ε)` is the form at ρ = min(ε, cap); a cap of
    None never clamps."""

    __slots__ = ("arms", "cap", "excluded", "shared_below")

    def __init__(self, arms, cap=None, excluded=(), shared_below=None):
        self.arms, self.cap, self.excluded = arms, cap, excluded
        self.shared_below = shared_below

    def nested(self) -> bool:
        """Lower ends fall and upper ends rise with ρ, so the charts grow.
        A plain loop: the verifier asks this of two forms per pair."""
        for _, lo, hi, _ in self.arms:
            if not lo[1] <= 0 <= hi[1]:
                return False
        return True


class Space:
    """Boundary parsing, `member`, the protocol's defaults, and one stub per
    protocol operation that some space lacks (see `_not_implemented`)."""

    spec = None
    is_baire = True
    generators = ()  # the classes of a homeomorphism word's generators

    def _parse(self, parse, kind, text):
        types, noun = kind  # accepted types, name in messages
        x = parse(text, self.spec)
        if type(x) not in types:
            raise PreconditionError("not a %s: %s" % (noun, shorten(text.strip())))
        return x

    def parse_point(self, text):
        return self._parse(parse_point, self.point_kind, text)

    def parse_basic(self, text):
        return self._parse(parse_basic, self.basic_kind, text)

    def _check_points(self, *points):
        for x in points:
            if not self.is_point(x):
                raise PreconditionError("not a %s of this space: %s" % (self.point_kind[1], x))

    def member(self, p, b) -> bool:
        types, noun = self.basic_kind
        if type(b) not in types:
            raise PreconditionError("not a %s: %s" % (noun, b))
        return b.contains(p)

    def density_witness(self, basics):
        return None

    def covered_by(self, chosen) -> bool:
        """Whether the basics `chosen` cover the space, where the space
        decides it from the basics alone; elsewhere a covered certificate
        rests on its probes."""
        return True


class FeatherSpace(Space):
    tag = "feather"
    point_kind = ((fe.FeatherPoint,), "feather point")
    basic_kind = ((fe.Chart, fe.FeatherInterval, fe.SkeletonHandle), "feather basic")
    generators = (fe.FlipGen, fe.StraightenGen, fe.FeatherTranslateGen)

    def _basic_arms(self, b):
        if isinstance(b, fe.SkeletonHandle):
            raise PreconditionError("predicate-backed handle has no finite arm presentation")
        return b.arms()

    def meet(self, b1, b2) -> list:
        return fe.arms_to_intervals(fe.meet_arms(self._basic_arms(b1), self._basic_arms(b2)))

    def meet_is_empty(self, b1, b2) -> bool:
        return not fe.arms_meet(self._basic_arms(b1), self._basic_arms(b2))

    def canonical_neighborhood(self, p, eps):
        return fe.fp_chart(p, eps)

    def is_point(self, x) -> bool:
        # a full check for a plain tuple and a FeatherPoint alike: the
        # certificate walk holds a payload to the space, whatever its class
        return ((x.__class__ is tuple or x.__class__ is fe.FeatherPoint)
                and set(map(type, x)) <= _RATIONAL and fe.fp_ordered(x))

    def chart_form(self, p) -> ChartForm:
        a = p[-1]
        if fe.fp_is_strict(p):  # one arm (p[:-1], a ± ρ)
            return ChartForm(((p[:-1], (a, -1), (a, 1), False),),
                             sub(a, p[-2]) if len(p) >= 2 else None)
        # upper twin: the branch below a glued to the arm above it
        return ChartForm(((p[:-2], (a, -1), (a, 0), False), (p[:-1], (a, 0), (a, 1), True)),
                         sub(a, p[-3]) if len(p) >= 3 else None)

    def common_point(self, p, q):
        # (q, a - δ/2): just below the branch point of the twins (q, a), (q, a, a)
        return (p[:-1] if fe.fp_is_strict(p) else p[:-2]), (p[-1], _NEG_HALF)

    def non_separable_pair(self, p, q) -> bool:
        return same(fe.fp_twin(p), q)

    def separable(self, p, q):
        # a twin q equals fp_twin(p), which is built from p's own coordinate
        # objects, so the refuter's prefix tests on it settle by identity; the
        # twin of a checked p is checked, so its four charts check nothing
        return _separate(self, p, q, _ONE, fe.fp_twin)

    def descriptor(self, base, index, limit, direction) -> SeqDescriptor:
        """The sequence moving coordinate `index` of `base` (by default the
        last); the coordinate before it is the floor."""
        self._check_points(base)
        index = len(base) - 1 if index is None else index
        if not 0 <= index < len(base):
            raise PreconditionError("coordinate index out of range")
        return _sequence(base, index, limit, direction, base[index - 1] if index else None)

    def term(self, descr: SeqDescriptor, m: int):
        return descr.base[: descr.coord_index] + (descr.coordinate(m),)

    def converges(self, descr: SeqDescriptor, p) -> bool:
        self._check_points(descr.base, p)
        prefix, limit = descr.base[: descr.coord_index], descr.limit
        if descr.direction == "below":
            return ((same(p, prefix + (limit,)) and fe.fp_is_strict(p))
                    or same(p, prefix + (limit, limit)))
        return same(p, prefix + (limit,))

    def dense(self, basics) -> bool:
        # every chart contains strict points, so the skeleton is dense; a finite
        # explicit union misses the chart at a fresh level-one branch
        return any(isinstance(b, fe.SkeletonHandle) for b in basics)

    def density_witness(self, basics):
        """A chart disjoint from every listed feather interval."""
        coords = [c for b in basics for pt in (b.lower, b.upper) for c in pt]
        x = (max(abs(c) for c in coords) if coords else Fraction(0)) + 1
        return fe.fp_chart((x, x + 1), Fraction(1, 2))

    def move(self, p, q, involutive=False):
        if involutive:
            raise PreconditionError("involutive words are implemented for the line family")
        return fe.fp_move(p, q)

    def replay(self, word, p):
        return fe.replay(word, p)

    def homotopy(self, t, s):
        return fe.homotopy_eval(t, s)

    def union_twin_pair(self, basics):
        """A twin pair (lower, upper) in the union of `basics`, or None,
        found by the upper-twin rule."""
        candidates = []
        for b in basics:
            if b.__class__ is not fe.SkeletonHandle:
                candidates.extend(a.prefix + (a.lo,) for a in b.arms() if a.lo_closed)
            elif b.flip is not None:
                if b.flip.__class__ is not fe.FlipGen:
                    raise PreconditionError("a skeleton handle is conjugated by a flip")
                pivot = b.flip.pivot
                candidates.append(pivot[:-1] + (pivot[-2],))
        for u in candidates:
            lower = u[:-1]
            if any(b.contains(u) for b in basics) and any(b.contains(lower) for b in basics):
                return lower, u
        return None

    def basic_subset(self, small, big) -> bool:
        """small subset-of big, decided symbolically."""
        small_arms = fe.normalize_arms(self._basic_arms(small))
        big_arms = fe.normalize_arms(self._basic_arms(big))
        return all(any(_arm_subset(a, b) for b in big_arms) for a in small_arms)

    def is_maximal_hausdorff(self, b) -> bool:
        # the strict skeleton, or its conjugate by a flip (a homeomorphism):
        # maximal, dense and Hausdorff; the walk checks only the handle's type
        return b.__class__ is fe.SkeletonHandle and (b.flip is None
                                                     or b.flip.__class__ is fe.FlipGen)

    def maximal_hausdorff(self, x):
        x = fe.fp_validate(x)
        handle = fe.skeleton_through(x)
        # each candidate is checked once, here, or is the twin of the checked
        # x; the handle's tests reuse the check
        candidates = [fe.fp_twin(x)]
        for c in (add(x[0], _ONE), sub(x[0], _ONE)):
            tw = (c, c)
            candidates.append(fe.fp_validate(handle.flip.apply(tw) if handle.flip else tw))
        return x, handle, [handle.adjoin_witness(w) for w in candidates if not handle.contains(w)]

    def cover_admits(self, b) -> bool:
        """Whether `b` is in the canonical cover: the charts."""
        return type(b) is fe.Chart

    def cover_member(self, text):
        # the canonical feather cover consists of charts; name them by center
        return fe.fp_chart(self.parse_point(text), Fraction(1))

    def uncovered_point(self, chosen):
        return self.density_witness([ch.interval for ch in chosen]).center

    def default_subfamily(self, sample_points, handles):
        return tuple(fe.fp_chart(p, Fraction(1)) for p in sample_points)

    def baire_point(self, members, probe):
        arm = fe.normalize_arms(self._basic_arms(probe))[0]
        q = arm.prefix
        avoid = set(q[-1:])  # skip the branch point: keep the pick strict
        for _ in range(64):
            r = pick_rational_in(arm.lo, arm.hi, avoid)
            p = fe.fp_validate(q + (r,))  # r lies above q[-1], the arm's floor
            if fe.fp_is_strict(p) and all(h.contains(p) for h in members):
                return p
            avoid.add(r)
        raise AssertionError("no skeleton point found in probe")

    def chart_sample(self):
        p = fe.FeatherPoint((0, 1))
        return p, fe.fp_chart(p, Fraction(1)), fe.fp_chart(fe.FeatherPoint((0,)), Fraction(1))

    def pipeline_sample(self):
        return ([fe.FeatherPoint((0, 0)), fe.FeatherPoint((1, 2))],
                [fe.FeatherPoint((5,)), fe.FeatherPoint((6, 7))])


class MultiLineSpace(Space):
    tag = "multiline"
    point_kind = ((ml.MultiLinePoint,), "line point")
    basic_kind = ((ml.Wave,), "wave")
    generators = (ml.TranslateGen, ml.ExchangeGen, ml.ReflectGen)

    def __init__(self, spec: ml.SpaceSpec):
        self.spec = spec
        # the maximal handle through every down point, and the k = 1
        # subfamily: one wave, so its text is formatted once
        self._full = ml.Wave.trusted(spec, IntervalSet.full_line(), (), {})

    def meet(self, b1, b2) -> list:
        w = ml.wave_meet(b1, b2)
        return [] if w.is_empty() else [w]

    def meet_is_empty(self, b1, b2) -> bool:
        return ml.waves_disjoint(b1, b2)

    def canonical_neighborhood(self, p, eps):
        eps = fe.chart_radius(eps)
        lift = ((p.x, p.level),) if p.level > 0 else ()
        return ml.Wave(self.spec, IntervalSet(((p.x - eps, p.x + eps),)), lift)

    def is_point(self, x) -> bool:
        if (type(x) is not ml.MultiLinePoint or type(x.x) not in _RATIONAL
                or type(x.level) is not int):
            return False
        return x.level == 0 or 0 < x.level < self.spec.k and self.spec.is_doubled(x.x)

    def chart_form(self, p) -> ChartForm:
        # the down points (key 0) of x ± ρ; a lifted center sits upstairs
        return ChartForm(((0, (p.x, -1), (p.x, 1), False),), None, (p.x,) if p.level else ())

    def common_point(self, p, q):
        return 0, (p.x, _HALF)  # D(x + δ/2 @0)

    def non_separable_pair(self, p, q) -> bool:
        return p.x == q.x and p.level != q.level

    def separable(self, p, q):
        return _separate(self, p, q, abs(p.x - q.x) / 2)

    def descriptor(self, base, index, limit, direction) -> SeqDescriptor:
        """The sequence moving the abscissa of `base` at its level, which
        must be 0 unless the line is doubled everywhere."""
        self._check_points(base)
        if index not in (None, 0):
            raise PreconditionError("a line point has one coordinate: index must be 0")
        if base.level > 0 and not self.spec.everywhere:
            raise PreconditionError("up-level terms leave a restricted doubling domain")
        return _sequence(base, 0, limit, direction)

    def term(self, descr: SeqDescriptor, m: int):
        return ml.MultiLinePoint(descr.coordinate(m), descr.base.level)

    def converges(self, descr: SeqDescriptor, p) -> bool:
        self._check_points(descr.base, p)
        return descr.base.level == 0 and p.x == descr.limit

    def dense(self, basics) -> bool:
        # a wave over the whole line misses only its finitely many lifts
        return (any(iset_covers_line(w.parts) for w in basics)
                or iset_complement_is_finite(_down_union(basics)))

    def move(self, p, q, involutive=False):
        return ml.ml_move(self.spec, p, q, involutive=involutive)

    def replay(self, word, p):
        return ml.ml_replay(word, p)

    def chain(self, src, dst, removed, window):
        return ml.chain_connect(self.spec, src, dst, removed, window)

    def connected(self, w) -> bool:  # one interval of its canonical open set
        return len(w.parts.intervals) == 1

    def union_twin_pair(self, basics):
        waves = list(basics)
        lifted = {key(x): x for w in waves for x, _ in w.lift}
        for x in sorted_by(lifted.values()):
            levels = set()
            for w in waves:
                levels |= ml.wave_member_levels(w, x)
            if len(levels) > 1:
                js = sorted(levels)
                return (ml.MultiLinePoint(x, js[0]), ml.MultiLinePoint(x, js[1]))
        return None

    def basic_subset(self, small, big) -> bool:
        return ml.wave_meet(small, big) == small

    def maximal_hausdorff(self, x):
        # x is checked once, here; its full wave, the one `ml.full_wave`
        # would build, lifts at most x, which is a point of the space
        self._check_points(x)
        spec, handle = self.spec, self._full
        if x.level:
            a = x.x if x.x.__class__ is Fraction else Fraction(x.x)
            handle = ml.Wave.trusted(spec, handle.parts, ((a, x.level),), {key(a): x.level})
        samples = []
        lift_map = handle.lift_map()
        for a in [x.x] if spec.everywhere else spec.finite:  # x's abscissa, or each doubled one
            inside_level = lift_map.get(a, 0)
            partner = ml.MultiLinePoint(a, inside_level)
            for level in range(spec.k):
                if level != inside_level:
                    samples.append((ml.MultiLinePoint(a, level), partner))
        if spec.everywhere:
            y = add(x.x, _ONE)
            samples.append((ml.MultiLinePoint(y, 1), ml.MultiLinePoint(y, 0)))
        return x, handle, samples

    def is_maximal_hausdorff(self, w) -> bool:
        # a wave of this spec holds at most one point over each abscissa; it
        # is maximal when it holds one over every abscissa.  Each lift is held
        # to the space here, not to the constructor (`Wave.trusted` checks
        # nothing): an upper point of the space, at the level `_levels` reads
        levels = w._levels
        return ((w.spec is self.spec or w.spec == self.spec) and iset_covers_line(w.parts)
                and len(levels) == len(w.lift)
                and all(j != 0 and self.is_point(ml.MultiLinePoint(x, j))
                        and levels.get(key(x)) == j for x, j in w.lift))

    def cover_admits(self, b) -> bool:
        """Whether `b` is in the canonical cover: the waves of this spec over
        the whole line that lift at most one abscissa (on the line, the one
        full wave)."""
        return (type(b) is ml.Wave and (b.spec is self.spec or b.spec == self.spec)
                and iset_covers_line(b.parts) and len(b.lift) <= 1)

    def cover_member(self, text):
        return self.parse_basic(text)

    def uncovered_point(self, chosen):
        """A point no chosen wave contains, or None when they cover.  On a
        line doubled everywhere that is the upper point at max |x| + 1 over
        the lifted abscissae x (1 with none lifted), found by a running
        maximum and minimum decided by `lt`."""
        spec = self.spec
        if spec.everywhere:
            # finitely many lifts miss the upper points at any other abscissa
            lo = hi = _ZERO
            for w in chosen:
                for x, _ in w.lift:
                    if lt(hi, x):
                        hi = x
                    elif lt(x, lo):
                        lo = x
            return ml.MultiLinePoint(add(-lo if lt(hi, -lo) else hi, _ONE), 1)
        for p in self._upper_points():
            if not any(w.contains(p) for w in chosen):
                return p
        down = _down_union(chosen)
        if iset_covers_line(down):
            return None
        return ml.MultiLinePoint(_line_gap_point(down), 0)

    def _upper_points(self):
        """The upper points of a line doubled at finitely many abscissae."""
        spec = self.spec
        return [ml.MultiLinePoint(x, level) for x in spec.finite for level in range(1, spec.k)]

    def covered_by(self, chosen) -> bool:
        """The waves' down projections cover the line, and every upper
        point lies in one of them.  No finite family covers a line doubled
        everywhere, so there a covered certificate claims only its probes
        (the waves that contain them)."""
        if self.spec.everywhere:
            return True
        return iset_covers_line(_down_union(chosen)) and all(
            any(w.contains(p) for w in chosen) for p in self._upper_points())

    def cover_probes(self):
        """Sample points a covering choice must contain: three down points
        and every upper point."""
        return [ml.MultiLinePoint(Fraction(n), 0) for n in (-1, 0, 1)] + self._upper_points()

    def default_subfamily(self, sample_points, handles):
        # the samples' handles are full waves lifting at most their own point
        return (self._full,) if self.spec.k == 1 else tuple(handles)

    def baire_point(self, members, probe):
        avoid = {x for x, _ in probe.lift}
        for m in members:
            avoid |= _down_gaps(m)
        return ml.MultiLinePoint(iset_pick_point(probe.parts, avoid=avoid), 0)

    def chart_sample(self):
        v = ml.Wave(self.spec, IntervalSet.of((-1, 1)))
        return ml.MultiLinePoint(Fraction(0), 0), v, v

    def pipeline_sample(self):
        # only doubled abscissae lift
        return ([ml.MultiLinePoint(Fraction(n), int(self.spec.is_doubled(n))) for n in (0, 1)],
                [ml.MultiLinePoint(Fraction(n), 0) for n in (2, 3)])


class BranchSpace(Space):
    tag = "branch"
    point_kind = ((ml.BranchPoint,), "branch point")
    basic_kind = ((ml.BranchInterval,), "branch interval")

    def meet(self, b1, b2) -> list:
        return ml.branch_meet(b1, b2)

    def meet_is_empty(self, b1, b2) -> bool:
        return not ml.branch_meet(b1, b2)

    def canonical_neighborhood(self, p, eps):
        eps = fe.chart_radius(eps)
        return ml.BranchInterval(p.x - eps, p.x + eps, p.side)

    def is_point(self, x) -> bool:
        # a negative point is shared, and named on side L
        return (type(x) is ml.BranchPoint and type(x.x) in _RATIONAL
                and (x.side == "L" or x.side == "R" and x.x >= 0))

    def chart_form(self, p) -> ChartForm:
        # both sides share the negatives
        return ChartForm(((p.side, (p.x, -1), (p.x, 1), False),), shared_below=(Fraction(0), 0))

    def common_point(self, p, q):
        return "L", (p.x, _NEG_HALF)  # B(x - δ/2, L)

    def non_separable_pair(self, p, q) -> bool:
        return p.x == q.x == 0 and p.side != q.side

    def separable(self, p, q):
        # two sheets over one x != 0 are |x| from the shared negatives
        return _separate(self, p, q, abs(p.x if p.x == q.x else p.x - q.x) / 2)


class CofiniteSpace(Space):
    """Countably infinite ground set with the finite complement topology."""

    tag = "cofinite"
    is_baire = False
    point_kind = ((int,), "natural number")
    basic_kind = ((CofiniteSet,), "cofinite set")

    def meet(self, b1, b2) -> list:
        w = cofinite_meet(b1, b2)
        return [] if w.empty_set else [w]

    def meet_is_empty(self, b1, b2) -> bool:
        return cofinite_meet(b1, b2).empty_set

    def canonical_neighborhood(self, p, eps):
        fe.chart_radius(eps)  # the topology has no scales; the ground set is canonical
        return CofiniteSet.ground()

    def is_point(self, x) -> bool:
        return type(x) is int and x >= 0

    def chart_form(self, p) -> ChartForm:
        return ChartForm(((None, (NEG_INF, 0), (POS_INF, 0), False),))

    def common_point(self, p, q):
        return None, (max(p, q) + 1, 0)  # N(max(p, q) + 1), with no scale

    def non_separable_pair(self, p, q) -> bool:
        return p != q  # any two nonempty opens intersect

    def separable(self, p, q):
        return _separate(self, p, q, _ONE)  # every pair of points is non-separable

    def dense(self, basics) -> bool:
        return any(not b.empty_set for b in basics)


def _not_implemented(name: str):
    def missing(self, *args, **kwargs):
        raise PreconditionError("%s is not implemented for %s" % (name, self.tag))
    missing.__name__ = missing.__qualname__ = name
    return missing


# Each protocol operation that some space class lacks gets one stub on
# `Space`, which that class inherits.  The stubs are plain methods, so an
# attribute read stays an ordinary lookup and an unknown name raises
# AttributeError.
_DEFINED = [{name for name, value in vars(cls).items()
             if not name.startswith("_") and callable(value)} for cls in Space.__subclasses__()]
for _name in sorted(set.union(*_DEFINED) - set.intersection(*_DEFINED) - set(vars(Space))):
    setattr(Space, _name, _not_implemented(_name))
del _DEFINED, _name


FEATHER = FeatherSpace()
BRANCH = BranchSpace()
COFINITE = CofiniteSpace()


_DOUBLED = MultiLineSpace(ml.DOUBLED)
_SPACES = {
    "feather": FEATHER, "F": FEATHER,
    "line": MultiLineSpace(ml.LINE),
    "doubled": _DOUBLED, "D": _DOUBLED,
    "tripled": MultiLineSpace(ml.TRIPLED),
    "two-origins": MultiLineSpace(ml.TWO_ORIGINS),
    "branch": BRANCH, "branching-line": BRANCH,
    "cofinite": COFINITE, "N": COFINITE,
}


def space_of(name: str):
    if name not in _SPACES:
        raise PreconditionError("unknown space %r" % name)
    return _SPACES[name]


def _separate(space, p, q, scale, partner=None):
    """Every `separable`, by the separation rule.  Where given, the refuter
    probes p against `partner(p)`, a point equal to q once the pair is
    non-separable."""
    if _equal(p, q):
        raise PreconditionError("separable needs two distinct points")
    if space.non_separable_pair(p, q):
        if bounded_refuter(space, p, q if partner is None else partner(p)) is not None:
            raise AssertionError("refuter contradicts the %s characterization" % space.tag)
        return False, cert.twin_pair(p, q)
    # distinct coordinates differ by at least 1/(den_a*den_b), so this many
    # halvings always reach a separating radius
    eps = fe.chart_radius(scale)
    for _ in range(64 + denominator_bits(p + q)):
        b1, b2 = space.canonical_neighborhood(p, eps), space.canonical_neighborhood(q, eps)
        if space.meet_is_empty(b1, b2):
            return True, cert.separated_by(p, q, b1, b2)
        eps /= 2
    raise AssertionError("no separating charts found for a separable %s pair" % space.tag)


def bounded_refuter(space, p, q):
    """Search the canonical charts at scales 1, 1/2, 1/4, 1/8 for a disjoint
    pair separating p from q; returns the first such pair in scale order, or
    None after all 16 probes.  Each chart is built once."""
    ps = [space.canonical_neighborhood(p, e) for e in REFUTER_SCALES]
    qs = [space.canonical_neighborhood(q, e) for e in REFUTER_SCALES]
    for b1 in ps:
        for b2 in qs:
            if space.meet_is_empty(b1, b2):
                return b1, b2
    return None


def _arm_subset(a, b) -> bool:
    if not same(a.prefix, b.prefix) or lt(b.hi, a.hi):
        return False
    if lt(b.lo, a.lo):
        return True
    if lt(a.lo, b.lo):
        return False
    return b.lo_closed or not a.lo_closed


def _line_gap_point(union: IntervalSet) -> Fraction:
    iv = union.intervals
    if not iv:
        return Fraction(0)
    if iv[0][0] != NEG_INF:
        return iv[0][0] - 1
    for k in range(len(iv) - 1):
        hi, lo = iv[k][1], iv[k + 1][0]
        return hi if hi == lo else (hi + lo) / 2
    return iv[-1][1] + 1  # right end is finite here


def _down_union(waves) -> IntervalSet:
    """The open set of abscissae whose down point some wave contains: one
    n-ary `iset_union` of the down projections, so one wave's projection
    comes back as it is and several are sorted and merged once."""
    return iset_union(*[w.down_projection() for w in waves])


def _down_gaps(member) -> set:
    """Finite set of abscissae whose down point is missed by a dense wave
    (the zero-width gaps of its down projection): over the whole line,
    its lifted abscissae."""
    if iset_covers_line(member.parts):
        return {x for x, _ in member.lift}
    iv = _down_union([member]).intervals
    return {iv[k][1] for k in range(len(iv) - 1) if iv[k][1] == iv[k + 1][0]}


# ---------------------------------------------------------------------------
# Certificate verification (independent of the producers): one check per
# certificate kind.


def verify_certificate(space, c: cert.Certificate) -> bool:
    check = _CHECKS.get(c.kind)
    if check is None or not _fits_schema(space, c.kind, c.payload):
        return False
    try:
        return check(space, c.payload)
    except (PreconditionError, AssertionError):
        return False


def _fits_schema(space, kind, pl) -> bool:
    """Whether the payload `pl` holds exactly `SCHEMA`'s fields for `kind`, each of its shape."""
    fields = cert.SCHEMA[kind]
    return (type(pl) is dict and len(pl) == len(fields)
            and all(f in pl and _SHAPES[shape](space, pl[f]) for f, shape in fields))


def _each(shape, entries):
    """A collection shape: its container, with entries that `entries` accepts."""
    container = cert.CONTAINERS[shape]
    return lambda space, x: type(x) is container and entries(space, x)


_SHAPES = {
    "point": lambda space, x: space.is_point(x),
    "basic": lambda space, x: type(x) in space.basic_kind[0],
    "rational": lambda space, x: type(x) in _RATIONAL,
    "flag": lambda space, x: type(x) is bool,
    "name": lambda space, x: type(x) is str,
}
_SHAPES.update({shape: _each(shape, entries) for shape, entries in {
    **dict.fromkeys(("points", "point set"), lambda space, xs: all(map(space.is_point, xs))),
    "point pairs": lambda space, xs: all(type(x) is tuple and len(x) == 2
                                         and all(map(space.is_point, x)) for x in xs),
    "basics": lambda space, xs: set(map(type, xs)).issubset(space.basic_kind[0]),
    "word": lambda space, xs: set(map(type, xs)).issubset(space.generators),
    "rationals": lambda space, xs: set(map(type, xs)) <= _RATIONAL,
    "index map": lambda space, xs: all(map(space.is_point, xs)) and all(
        type(n) is int and n >= 0 for n in xs.values()),
}.items()})


def verified(space, c: cert.Certificate, **fields) -> dict:
    """`fields`, then the certificate and whether `verify_certificate`
    accepts it: the key order of every report entry that ships one."""
    return dict(fields, certificate=c, verified=verify_certificate(space, c))


def _non_separable_at_every_scale(space, p, q) -> bool:
    """No two canonical charts of the distinct points p and q are disjoint,
    at any scales: the common point the space names lies in both."""
    return not _equal(p, q) and _in_both_charts(space, p, q, *space.common_point(p, q))


def _equal(a, b) -> bool:
    """`a == b` for two points or two chart keys; tuples (feather points,
    checked or not, and prefixes) are compared by `rationals.same`.  The
    same object is equal without a comparison: a common point's key is
    often the chart form's own."""
    if a is b:
        return True
    ca, cb = a.__class__, b.__class__
    if (ca is tuple or ca is fe.FeatherPoint) and (cb is tuple or cb is fe.FeatherPoint):
        return same(a, b)
    return a == b


def _in_both_charts(space, p, q, key, w) -> bool:
    """The point (key, w(δ)) lies in the charts of p and q at every scale.

    Decided from the spaces' chart forms, building no chart.  The charts
    grow with the radius (nestedness), and at radii past R = min(1, caps)
    they stay what they are at R, so each pair of scales (ε₁, ε₂) is covered
    by δ = min(ε₁, ε₂, R) in the one piece (0, R].  There membership is
    finitely many affine margins, each positive on all of (0, R]."""
    fp, fq = space.chart_form(p), space.chart_form(q)
    if not (fp.nested() and fq.nested()):
        return False
    r = _ONE
    for cap in (fp.cap, fq.cap):
        if cap is not None and lt(cap, r):
            r = cap
    return _in_chart_form(fp, key, w, r) and _in_chart_form(fq, key, w, r)


def _in_chart_form(form, key, w, r) -> bool:
    """The point (key, w(δ)) lies in the chart of `form` at every δ in
    (0, r], on one arm.  A closed lower end is checked as open, which can
    only reject."""
    for e in form.excluded:
        at = (e, 0)
        if not (_above(w, at, r) or _above(at, w, r)):
            return False
    shared = form.shared_below
    for k, lo, hi, _closed in form.arms:
        if ((_equal(k, key) or shared is not None and _above(shared, w, r))
                and _above(w, lo, r) and _above(hi, w, r)):
            return True
    return False


def _above(hi, lo, r) -> bool:
    """hi(δ) > lo(δ) for every δ in (0, r], for affine hi and lo given as
    pairs (a, b) = a + b·δ: the constants may tie, and then the slopes
    decide; the values at r may not tie.  Comparisons decide it, except when
    hi starts above lo and falls towards it.  Each comparison is
    `rationals.eq` or `rationals.lt`, decided on integers.  Shared objects
    settle by identity first: a common point and a chart form reuse the
    point's abscissa, so constants that are one object tie, and then slopes
    that are one object decide False."""
    (ha, hb), (la, lb) = hi, lo
    if ha is la or eq(ha, la):
        return hb is not lb and lt(lb, hb)
    if lt(ha, la):
        return False
    return not lt(hb, lb) or lt(la + lb * r, ha + hb * r)


def _verify_chain(space, pl) -> bool:
    links = pl["links"]
    if not links:
        return False
    for w in links:
        if not space.connected(w) or any(space.member(r, w) for r in pl["removed"]):
            return False
    if not space.member(pl["src"], links[0]) or not space.member(pl["dst"], links[-1]):
        return False
    return not any(space.meet_is_empty(a, b) for a, b in zip(links, links[1:]))


def _verify_word(space, pl) -> bool:
    run, word, src, dst = space.replay, pl["word"], pl["src"], pl["dst"]
    if not all(_maps_onto_itself(space.spec, g) for g in word) or not _equal(run(word, src), dst):
        return False
    # an involutive word also carries dst back to src and squares to the identity
    return not pl["involutive"] or (_equal(run(word, dst), src) and all(
        _equal(run(word, run(word, x)), x) for x in (src, dst)))


def _maps_onto_itself(spec, gen) -> bool:
    """Whether a word generator maps the space of `spec` onto itself, read
    off the spec.  A translation or reflection must map the doubled set onto
    itself.  An exchange swaps two levels over `at`: both must exist there,
    or neither (then it moves no point).  Feather generators always do."""
    t = type(gen)
    if t is ml.ExchangeGen:
        i, j = (n == 0 or n < spec.k and spec.is_doubled(gen.at) for n in gen.levels)
        return i == j
    if t not in (ml.TranslateGen, ml.ReflectGen) or spec.everywhere:
        return True
    xs = set(spec.finite)  # none on the line
    image = ({x + gen.shift for x in xs} if t is ml.TranslateGen
             else {2 * gen.about - x for x in xs})
    return image == xs


def _verify_compact(space, pl) -> bool:
    radius, ends = pl["radius"], pl["closed_interval"]
    # [lo, hi] holds the centre inside it and lies in a slightly larger open
    # chart, whose containment in the enclosing neighborhood certifies the nesting
    if len(ends) != 2 or not -radius < ends[0] < 0 < ends[1] < radius:
        return False
    probe = (max(map(abs, ends)) + radius) / 2
    small = space.canonical_neighborhood(pl["center"], probe)
    return space.basic_subset(small, pl["enclosing"])


def _verify_maximal(space, pl) -> bool:
    handle = pl["handle"]
    if not space.is_maximal_hausdorff(handle) or not space.member(pl["x"], handle):
        return False
    return all(not space.member(outside, handle) and space.member(partner, handle)
               and _non_separable_at_every_scale(space, outside, partner)
               for outside, partner in pl["adjoin_samples"])


_CHECKS = {
    "separated-by": lambda space, pl: (space.member(pl["p"], pl["b1"])
                                       and space.member(pl["q"], pl["b2"])
                                       and space.meet_is_empty(pl["b1"], pl["b2"])),
    "twin-pair": lambda space, pl: _non_separable_at_every_scale(space, pl["p"], pl["q"]),
    "uncovered": lambda space, pl: all(not space.member(pl["point"], b) for b in pl["chosen"]),
    "covered": lambda space, pl: (all(any(space.member(p, b) for b in pl["chosen"])
                                      for p in pl["probes"])
                                  and space.covered_by(pl["chosen"])),
    "excluded-by": lambda space, pl: (
        pl["family"] == "cofinite-diagonal" and len(pl["candidates"]) > 0
        and all(not space.member(n, CofiniteSet.excl(i)) for n, i in pl["candidates"].items())),
    "chain": _verify_chain,
    "homeo-word": _verify_word,
    "compact": _verify_compact,
    "maximal-hausdorff": _verify_maximal,
    "hausdorff-open": lambda space, pl: space.union_twin_pair(pl["basics"]) is None,
    "baire-point": lambda space, pl: all(space.member(pl["point"], b)
                                         for b in (pl["probe"], *pl["members"])),
}
