"""Uniform space interface: membership, meets, separation, convergence,
density and certificate verification for every space in the corpus.

Each space is basis-presented: its basic opens have decidable membership and
meet, and every point has a canonical shrinking family of basic
neighborhoods, which is what makes separation and convergence decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import multiline as ml
from .intervals import (CofiniteSet, IntervalSet, cofinite_meet,
                        iset_complement_is_finite, iset_union)
from .rationals import PreconditionError

REFUTER_SCALES = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


@dataclass(frozen=True)
class SeqDescriptor:
    """Parametric sequence: coordinates of `base` up to `coord_index` stay
    fixed, the moving coordinate runs m |-> limit -+ 1/m."""

    space: str  # "feather" or "multiline"
    base: object
    coord_index: int
    limit: Fraction
    direction: str  # "below" | "above"

    def __post_init__(self):
        if self.direction not in ("below", "above"):
            raise PreconditionError("direction must be 'below' or 'above'")

    def term(self, m: int):
        step = Fraction(1, m)
        x = self.limit - step if self.direction == "below" else self.limit + step
        if self.space == "feather":
            return self.base[: self.coord_index] + (x,)
        return ml.MultiLinePoint(x, self.base.level)


class FeatherSpace:
    tag = "feather"

    def member(self, p, b) -> bool:
        if isinstance(b, (fe.FeatherInterval, fe.Chart, fe.SkeletonHandle)):
            return b.contains(p)
        raise PreconditionError("not a feather basic: %s" % (b,))

    def basic_arms(self, b):
        if isinstance(b, fe.SkeletonHandle):
            raise PreconditionError("predicate-backed handle has no finite arm presentation")
        return b.arms()

    def meet(self, b1, b2) -> list:
        return fe.arms_to_intervals(fe.meet_arms(self.basic_arms(b1), self.basic_arms(b2)))

    def meet_is_empty(self, b1, b2) -> bool:
        return not fe.meet_arms(self.basic_arms(b1), self.basic_arms(b2))

    def canonical_neighborhood(self, p, eps):
        return fe.fp_chart(p, eps)

    def non_separable_pair(self, p, q) -> bool:
        return fe.fp_twin(p) == q

    def separable(self, p, q):
        if p == q:
            raise PreconditionError("separable needs two distinct points")
        if self.non_separable_pair(p, q):
            refuted = bounded_refuter(self, p, q)
            if refuted is not None:
                raise AssertionError("refuter contradicts the twin characterization")
            return False, cert.twin_pair(p, q)
        b1, b2 = self._separating_charts(p, q)
        return True, cert.separated_by(p, q, b1, b2)

    def _separating_charts(self, p, q):
        # distinct coordinates differ by at least 1/(den_a*den_b), so this
        # many halvings always reach a separating scale
        rounds = 64 + sum(c.denominator.bit_length() for c in p + q)
        eps = Fraction(1)
        for _ in range(rounds):
            c1, c2 = fe.fp_chart(p, eps), fe.fp_chart(q, eps)
            if self.meet_is_empty(c1, c2):
                return c1, c2
            eps /= 2
        raise AssertionError("no separating charts found for a non-twin pair")

    def converges(self, descr: SeqDescriptor, p) -> bool:
        prefix, limit = _feather_descr_check(descr)
        fe.fp_validate(p)
        if descr.direction == "below":
            return (p == prefix + (limit,) and fe.fp_is_strict(p)) or p == prefix + (limit, limit)
        return p == prefix + (limit,)

    def dense(self, u) -> bool:
        if isinstance(u, fe.SkeletonHandle):
            # every chart contains strict points (and flip-images of them)
            return True
        # a finite explicit union touches finitely many branch prefixes, so a
        # chart at a fresh level-one branch always misses it
        return False

    def fresh_chart_missing(self, basics):
        """Witness for non-density of an explicit union: a chart disjoint
        from every listed basic."""
        coords = [c for b in basics for pt in (b.lower, b.upper) for c in pt]
        x = (max(abs(c) for c in coords) if coords else Fraction(0)) + 1
        return fe.fp_chart((x, x + 1), Fraction(1, 2))


class MultiLineSpace:
    tag = "multiline"

    def __init__(self, spec: ml.SpaceSpec):
        self.spec = spec

    def member(self, p, b) -> bool:
        if isinstance(b, ml.Wave):
            return b.contains(p)
        raise PreconditionError("not a wave: %s" % (b,))

    def meet(self, b1, b2) -> list:
        w = ml.wave_meet(b1, b2)
        return [] if w.is_empty() else [w]

    def meet_is_empty(self, b1, b2) -> bool:
        return ml.waves_disjoint(b1, b2)

    def canonical_neighborhood(self, p, eps):
        eps = Fraction(eps)
        lift = ((p.x, p.level),) if p.level > 0 else ()
        return ml.Wave(self.spec, IntervalSet.of((p.x - eps, p.x + eps)), lift)

    def non_separable_pair(self, p, q) -> bool:
        return p.x == q.x and p.level != q.level

    def separable(self, p, q):
        if p == q:
            raise PreconditionError("separable needs two distinct points")
        if self.non_separable_pair(p, q):
            refuted = bounded_refuter(self, p, q)
            if refuted is not None:
                raise AssertionError("refuter contradicts the same-abscissa characterization")
            return False, cert.twin_pair(p, q)
        b1, b2 = ml.separating_waves(self.spec, p, q)
        return True, cert.separated_by(p, q, b1, b2)

    def converges(self, descr: SeqDescriptor, p) -> bool:
        _multiline_descr_check(self.spec, descr)
        return descr.base.level == 0 and p.x == descr.limit

    def dense(self, u) -> bool:
        if isinstance(u, ml.Wave):
            u = [u]
        down = IntervalSet.empty()
        for w in u:
            down = iset_union(down, w.down_projection())
        return iset_complement_is_finite(down)


class BranchSpace:
    tag = "branch"

    def member(self, p, b) -> bool:
        if isinstance(b, ml.BranchInterval):
            return b.contains(p)
        raise PreconditionError("not a branch interval: %s" % (b,))

    def meet(self, b1, b2) -> list:
        return ml.branch_meet(b1, b2)

    def meet_is_empty(self, b1, b2) -> bool:
        return not ml.branch_meet(b1, b2)

    def canonical_neighborhood(self, p, eps):
        eps = Fraction(eps)
        return ml.BranchInterval(p.x - eps, p.x + eps, p.side)

    def non_separable_pair(self, p, q) -> bool:
        return p.x == q.x == 0 and p.side != q.side

    def separable(self, p, q):
        if p == q:
            raise PreconditionError("separable needs two distinct points")
        if self.non_separable_pair(p, q):
            refuted = bounded_refuter(self, p, q)
            if refuted is not None:
                raise AssertionError("refuter contradicts the two-origins characterization")
            return False, cert.twin_pair(p, q)
        b1, b2 = ml.branch_separating(p, q)
        return True, cert.separated_by(p, q, b1, b2)

    def dense(self, u) -> bool:
        raise PreconditionError("density is not implemented for the branching line")


class CofiniteSpace:
    """Countably infinite ground set with the finite complement topology."""

    tag = "cofinite"

    def member(self, p, b) -> bool:
        if isinstance(b, CofiniteSet):
            return b.contains(p)
        raise PreconditionError("not a cofinite set: %s" % (b,))

    def meet(self, b1, b2) -> list:
        w = cofinite_meet(b1, b2)
        return [] if w.empty_set else [w]

    def meet_is_empty(self, b1, b2) -> bool:
        return cofinite_meet(b1, b2).empty_set

    def canonical_neighborhood(self, p, eps):
        del eps  # the topology has no scales; the ground set is canonical
        return CofiniteSet.ground()

    def non_separable_pair(self, p, q) -> bool:
        return p != q  # any two nonempty opens intersect

    def separable(self, p, q):
        if p == q:
            raise PreconditionError("separable needs two distinct points")
        if bounded_refuter(self, p, q) is not None:
            raise AssertionError("refuter separates two points of a cofinite space")
        return False, cert.twin_pair(p, q)

    def dense(self, u) -> bool:
        if isinstance(u, CofiniteSet):
            u = [u]
        return any(not b.empty_set for b in u)


FEATHER = FeatherSpace()
BRANCH = BranchSpace()
COFINITE = CofiniteSpace()


def space_of(name: str):
    table = {
        "feather": FEATHER, "F": FEATHER,
        "line": MultiLineSpace(ml.LINE),
        "doubled": MultiLineSpace(ml.DOUBLED), "D": MultiLineSpace(ml.DOUBLED),
        "tripled": MultiLineSpace(ml.TRIPLED),
        "two-origins": MultiLineSpace(ml.TWO_ORIGINS),
        "branch": BRANCH, "branching-line": BRANCH,
        "cofinite": COFINITE, "N": COFINITE,
    }
    if name not in table:
        raise PreconditionError("unknown space %r" % name)
    return table[name]


def _feather_descr_check(descr: SeqDescriptor):
    if descr.space != "feather":
        raise PreconditionError("feather descriptor expected")
    base = fe.fp_validate(descr.base)
    if not 0 <= descr.coord_index < len(base):
        raise PreconditionError("coordinate index out of range")
    prefix = base[: descr.coord_index]
    if prefix:
        floor = prefix[-1]
        if descr.direction == "below" and descr.limit <= floor:
            raise PreconditionError("from-below terms fall outside the space")
        if descr.direction == "above" and descr.limit < floor:
            raise PreconditionError("from-above terms fall outside the space")
    return prefix, Fraction(descr.limit)


def _multiline_descr_check(spec: ml.SpaceSpec, descr: SeqDescriptor):
    if descr.space != "multiline":
        raise PreconditionError("multiline descriptor expected")
    if descr.base.level > 0 and spec.doubling != "all":
        raise PreconditionError("up-level terms leave a restricted doubling domain")


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


# ---------------------------------------------------------------------------
# Handle-level Hausdorffness (no non-separable pair inside).


def union_twin_pair(space, basics, extra_points=()):
    """Search the union of `basics` plus the adjoined points for a
    non-separable pair.  `basics` may also contain predicate handles."""
    if isinstance(space, FeatherSpace):
        return _feather_union_twin_pair(basics, extra_points)
    if isinstance(space, MultiLineSpace):
        return _multiline_union_twin_pair(basics, extra_points)
    raise PreconditionError("hausdorff check unsupported for %s" % space.tag)


def _feather_union_twin_pair(basics, extra_points):
    arms = []
    handles = []
    for b in basics:
        if isinstance(b, fe.SkeletonHandle):
            handles.append(b)
        else:
            arms.extend(b.arms())
    pair = fe.arms_twin_pair(arms)
    if pair:
        return pair
    def in_union(w):
        return any(h.contains(w) for h in handles) or any(a.contains(w) for a in arms)
    for w in extra_points:
        partner = fe.fp_twin(w)
        if in_union(partner) or partner in extra_points:
            return (w, partner)
    # a handle plus an explicit arm may overlap in twins
    for h in handles:
        for a in arms:
            tw = _arm_twin_inside_handle(h, a)
            if tw:
                return tw
    return None


def _arm_twin_inside_handle(handle, arm):
    # an arm's twin partners: for (q, r) the partner (q, r, r) or q; the
    # skeleton contains exactly the strict points (up to the conjugating
    # flip), so only the closed lower end of the arm can pair up
    if arm.lo_closed and arm.prefix and arm.prefix[-1] == arm.lo:
        upper = arm.prefix + (arm.lo,)
        lower = fe.fp_twin(upper)
        if handle.contains(upper) and handle.contains(lower):
            return (lower, upper)
    return None


def _multiline_union_twin_pair(basics, extra_points):
    waves = list(basics)
    lifted = {x for w in waves for x, _ in w.lift}
    lifted |= {p.x for p in extra_points}
    for x in sorted(lifted):
        levels = set()
        for w in waves:
            levels |= ml.wave_member_levels(w, x)
        for p in extra_points:
            if p.x == x:
                levels.add(p.level)
        if len(levels) > 1:
            js = sorted(levels)
            return (ml.MultiLinePoint(x, js[0]), ml.MultiLinePoint(x, js[1]))
    return None


def hausdorff_union(space, basics, extra_points=()):
    """(verdict, certificate): True when the union contains no non-separable
    pair, else False with the offending pair."""
    pair = union_twin_pair(space, basics, extra_points)
    if pair is None:
        return True, None
    return False, cert.twin_pair(*pair)


# ---------------------------------------------------------------------------
# Certificate verification (independent of the producers).


def verify_certificate(space, c: cert.Certificate) -> bool:
    try:
        return _verify(space, c)
    except (PreconditionError, AssertionError):
        return False


def _verify(space, c: cert.Certificate) -> bool:
    kind, pl = c.kind, c.payload
    if kind == "separated-by":
        return (space.member(pl["p"], pl["b1"]) and space.member(pl["q"], pl["b2"])
                and space.meet_is_empty(pl["b1"], pl["b2"]))
    if kind == "twin-pair":
        p, q = pl["p"], pl["q"]
        return (p != q and space.non_separable_pair(p, q)
                and bounded_refuter(space, p, q) is None)
    if kind == "uncovered":
        return all(not space.member(pl["point"], b) for b in pl["chosen"])
    if kind == "covered":
        return all(any(space.member(p, b) for b in pl["chosen"]) for p in pl["probes"])
    if kind == "excluded-by":
        if pl["family"] != "cofinite-diagonal":
            return False
        return all(not CofiniteSet.excl(idx).contains(n)
                   for n, idx in pl["candidates"].items())
    if kind == "chain":
        return _verify_chain(space, pl)
    if kind == "homeo-word":
        return _verify_word(space, pl)
    if kind == "compact":
        return _verify_compact(space, pl)
    if kind == "maximal-hausdorff":
        return _verify_maximal(space, pl)
    return False


def _verify_chain(space, pl) -> bool:
    links = pl["links"]
    if not links:
        return False
    for w in links:
        if w.is_empty() or not w.is_connected():
            return False
        if any(space.member(r, w) for r in pl["removed"]):
            return False
    if not space.member(pl["src"], links[0]) or not space.member(pl["dst"], links[-1]):
        return False
    for a, b in zip(links, links[1:]):
        if space.meet_is_empty(a, b):
            return False
    return True


def _verify_word(space, pl) -> bool:
    if isinstance(space, FeatherSpace):
        run = fe.replay
    else:
        run = ml.ml_replay
    if run(pl["word"], pl["src"]) != pl["dst"]:
        return False
    if pl.get("involutive"):
        if run(pl["word"], pl["dst"]) != pl["src"]:
            return False
        for x in (pl["src"], pl["dst"]):
            if run(pl["word"], run(pl["word"], x)) != x:
                return False
    return True


def _verify_compact(space, pl) -> bool:
    radius = pl["radius"]
    a, b = pl["closed_interval"]
    if not (-radius < a <= b < radius):
        return False
    # a slightly larger open chart contains the closed image; its containment
    # in the enclosing neighborhood certifies the nesting
    probe = (max(abs(a), abs(b)) + radius) / 2
    small = space.canonical_neighborhood(pl["center"], probe)
    return basic_subset(space, small, pl["enclosing"])


def _verify_maximal(space, pl) -> bool:
    handle = pl["handle"]
    if not _handle_contains(space, handle, pl["x"]):
        return False
    ok, _ = hausdorff_union(space, [handle])
    if not ok or not space.dense(handle):
        return False
    for outside, partner in pl["adjoin_samples"]:
        if _handle_contains(space, handle, outside):
            return False
        if not _handle_contains(space, handle, partner):
            return False
        if not space.non_separable_pair(outside, partner):
            return False
        if bounded_refuter(space, outside, partner) is not None:
            return False
    return True


def _handle_contains(space, handle, p) -> bool:
    if isinstance(handle, fe.SkeletonHandle):
        return handle.contains(p)
    return space.member(p, handle)


def basic_subset(space, small, big) -> bool:
    """small subset-of big, decided symbolically."""
    if isinstance(space, MultiLineSpace):
        return ml.wave_meet(small, big) == small
    if isinstance(space, FeatherSpace):
        small_arms = fe.normalize_arms(small.arms())
        big_arms = fe.normalize_arms(big.arms())
        for a in small_arms:
            if not any(_arm_subset(a, b) for b in big_arms):
                return False
        return True
    raise PreconditionError("subset check unsupported for %s" % space.tag)


def _arm_subset(a, b) -> bool:
    if a.prefix != b.prefix or a.hi > b.hi:
        return False
    if a.lo > b.lo:
        return True
    if a.lo < b.lo:
        return False
    return b.lo_closed or not a.lo_closed
