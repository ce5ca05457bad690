"""Maximal Hausdorff dense opens, subcover extraction, Baire intersections,
quasi-compactness and microcompactness: the machinery behind the
"homogeneous + Lindelof + locally Hausdorff + Baire => Hausdorff" pipeline
and its counterexamples.

Zorn's lemma is replaced by closed-form maximal opens per space (a full-line
wave, the strict skeleton, the complement of one origin), each shipping a
maximality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import certificates as cert
from . import feather as fe
from . import kernel as ke
from . import multiline as ml
from .intervals import (CofiniteSet, IntervalSet, iset_covers_line,
                        iset_pick_point, iset_union, pick_rational_in)
from .rationals import NEG_INF, PreconditionError

# ---------------------------------------------------------------------------
# Lemma-style maximal Hausdorff dense opens.


def maximal_hausdorff_at(space, x):
    """A Hausdorff dense open set containing x, maximal in the sense that
    adjoining any outside point creates a non-separable pair inside the
    union.  Returns (handle, certificate)."""
    if isinstance(space, ke.MultiLineSpace):
        handle = _ml_maximal_handle(space.spec, x)
        samples = _ml_adjoin_samples(space.spec, handle, x)
    elif isinstance(space, ke.FeatherSpace):
        handle = fe.skeleton_through(x)
        samples = _feather_adjoin_samples(handle, x)
    else:
        raise PreconditionError("maximal Hausdorff opens implemented for the "
                                "line family and the feather only")
    return handle, cert.maximal_hausdorff(x, handle, samples)


def _ml_maximal_handle(spec, x) -> ml.Wave:
    lift = ((x.x, x.level),) if x.level > 0 else ()
    return ml.full_wave(spec, lift)


def _ml_adjoin_samples(spec, handle: ml.Wave, x):
    samples = []
    abscissae = [x.x] if spec.doubling == "all" else list(spec.doubling)
    lift_map = handle.lift_map()
    for a in abscissae:
        if not spec.is_doubled(a):
            continue
        inside_level = lift_map.get(a, 0)
        partner = ml.MultiLinePoint(a, inside_level)
        for level in range(spec.k):
            if level != inside_level:
                samples.append((ml.MultiLinePoint(a, level), partner))
    if spec.doubling == "all" and spec.k > 1:
        y = x.x + 1
        samples.append((ml.MultiLinePoint(y, 1), ml.MultiLinePoint(y, 0)))
    return samples


def _feather_adjoin_samples(handle: fe.SkeletonHandle, x):
    candidates = [fe.fp_twin(x)]
    for shift in (1, -1):
        c = x[0] + shift
        tw = (c, c)
        candidates.append(handle.flip.apply(tw) if handle.flip else tw)
    samples = []
    for w in candidates:
        if not handle.contains(w):
            samples.append(handle.adjoin_witness(w))
    return samples


def hausdorff_open(space, u, extra_points=()):
    """(verdict, certificate).  u is a handle or a list of basics; the
    verdict is True iff the union holds no non-separable pair."""
    basics = u if isinstance(u, (list, tuple)) else [u]
    ok, bad = ke.hausdorff_union(space, basics, tuple(extra_points))
    if ok:
        return True, cert.Certificate("hausdorff-open", {
            "basics": tuple(basics), "extra_points": tuple(extra_points)})
    return False, bad


def verify_hausdorff_open_cert(space, c) -> bool:
    if c.kind != "hausdorff-open":
        return False
    return ke.union_twin_pair(space, list(c.payload["basics"]),
                              c.payload["extra_points"]) is None


# ---------------------------------------------------------------------------
# Covers and the Lindelof failure.


@dataclass(frozen=True)
class CoverDescriptor:
    """Either a parametric family with decidable membership or an explicit
    finite list of basics."""

    kind: str  # "lift-cover" | "chart-cover" | "explicit"
    basics: tuple = ()

    def admits(self, space, b) -> bool:
        if self.kind == "lift-cover":
            if not isinstance(b, ml.Wave) or b.parts != IntervalSet.full_line():
                return False
            return len(b.lift) == 0 or (len(b.lift) == 1 and b.lift[0][1] == 1)
        if self.kind == "chart-cover":
            return isinstance(b, fe.Chart)
        return b in self.basics


def canonical_cover(space) -> CoverDescriptor:
    if isinstance(space, ke.MultiLineSpace):
        if space.spec.k == 1:
            return CoverDescriptor("explicit", (ml.full_wave(space.spec),))
        return CoverDescriptor("lift-cover")
    if isinstance(space, ke.FeatherSpace):
        return CoverDescriptor("chart-cover")
    raise PreconditionError("no canonical cover for %s" % space.tag)


def subcover_attempt(space, cover: CoverDescriptor, chosen):
    """Check whether the presented subfamily still covers.  Returns
    (True, covered-certificate) or (False, uncovered-certificate with an
    explicit point missed by every chosen basic)."""
    chosen = tuple(chosen)
    for b in chosen:
        if not cover.admits(space, b):
            raise PreconditionError("chosen basic %s is not in the cover" % (b,))
    if isinstance(space, ke.MultiLineSpace) and space.spec.k == 1:
        union = IntervalSet.empty()
        for w in chosen:
            union = iset_union(union, w.parts)
        if iset_covers_line(union):
            probes = [ml.MultiLinePoint(Fraction(n), 0) for n in (-1, 0, 1)]
            return True, cert.covered(probes, chosen)
        point = ml.MultiLinePoint(_line_gap_point(union), 0)
        return False, _checked_uncovered(space, point, chosen)
    if isinstance(space, ke.MultiLineSpace):
        lifted = {x for w in chosen for x, _ in w.lift}
        fresh = (max((abs(x) for x in lifted), default=Fraction(0))) + 1
        point = ml.MultiLinePoint(fresh, 1)
        return False, _checked_uncovered(space, point, chosen)
    if isinstance(space, ke.FeatherSpace):
        coords = [abs(c) for ch in chosen for pt in (ch.interval.lower, ch.interval.upper) for c in pt]
        fresh = (max(coords, default=Fraction(0))) + 1
        point = (fresh, fresh + 1)
        return False, _checked_uncovered(space, point, chosen)
    raise PreconditionError("subcover attempt unsupported for %s" % space.tag)


def _checked_uncovered(space, point, chosen):
    c = cert.uncovered(point, chosen)
    if not ke.verify_certificate(space, c):
        raise AssertionError("constructed uncovered point is covered")
    return c


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


# ---------------------------------------------------------------------------
# Baire intersections.


@dataclass(frozen=True)
class DenseFamily:
    """A finite list of dense open members, or the parametric cofinite
    family D_n = ground-minus-{n} indexed by all naturals."""

    kind: str  # "finite" | "cofinite-diagonal"
    members: tuple = ()


def baire_intersect(space, fam: DenseFamily, probe, candidates=range(100)):
    """For finite families on the line spaces / feather: an explicit point of
    probe inside every member.  For the cofinite diagonal family: the EMPTY
    verdict, with the excluding index for every candidate."""
    if fam.kind == "cofinite-diagonal":
        mapping = {int(n): int(n) for n in candidates}
        return "EMPTY", cert.excluded_by("cofinite-diagonal", mapping)
    for m in fam.members:
        if not space.dense(m):
            raise PreconditionError("family member is not dense")
    if isinstance(space, ke.MultiLineSpace):
        point = _ml_baire_point(space, fam.members, probe)
    elif isinstance(space, ke.FeatherSpace):
        point = _feather_baire_point(fam.members, probe)
    else:
        raise PreconditionError("finite Baire intersection unsupported for %s" % space.tag)
    c = cert.Certificate("baire-point", {"point": point, "probe": probe,
                                         "members": tuple(fam.members)})
    if not verify_baire_point_cert(space, c):
        raise AssertionError("constructed Baire point does not verify")
    return point, c


def _member_down_gaps(member) -> set:
    """Finite set of abscissae whose down point is missed by a dense wave
    union (the zero-width gaps of its down projection)."""
    waves = member if isinstance(member, (list, tuple)) else [member]
    down = IntervalSet.empty()
    for w in waves:
        down = iset_union(down, w.down_projection())
    iv = down.intervals
    return {iv[k][1] for k in range(len(iv) - 1) if iv[k][1] == iv[k + 1][0]}


def _ml_baire_point(space, members, probe: ml.Wave):
    avoid = {x for x, _ in probe.lift}
    for m in members:
        avoid |= _member_down_gaps(m)
    x = iset_pick_point(probe.parts, avoid=avoid)
    return ml.MultiLinePoint(x, 0)


def _feather_baire_point(members, probe):
    handles = list(members)
    arm = fe.normalize_arms(probe.arms())[0]
    q = arm.prefix
    avoid = set(q[-1:])  # skip the branch point: keep the pick strict
    for _ in range(64):
        r = pick_rational_in(arm.lo, arm.hi, avoid)
        p = q + (r,)
        if fe.fp_is_valid(p) and fe.fp_is_strict(p) and all(h.contains(p) for h in handles):
            return p
        avoid.add(r)
    raise AssertionError("no skeleton point found in probe")


def verify_baire_point_cert(space, c) -> bool:
    if c.kind != "baire-point":
        return False
    p = c.payload["point"]
    if not space.member(p, c.payload["probe"]):
        return False
    for m in c.payload["members"]:
        if isinstance(m, (list, tuple)):
            if not any(space.member(p, b) for b in m):
                return False
        elif not ke._handle_contains(space, m, p):
            return False
    return True


# ---------------------------------------------------------------------------
# The Hausdorffness pipeline.


def theorem_pipeline(space, sample_points, chosen=None, probes=None):
    """Staged report: per-point maximal Hausdorff dense opens, a subcover
    attempt, a finite Baire intersection and a separated point.  On the
    ordinary line the pipeline succeeds; on the doubled line and the feather
    it fails exactly at the subcover stage."""
    report = {"stages": [], "verdict": None}
    opens = []
    for p in sample_points:
        handle, mcert = maximal_hausdorff_at(space, p)
        ok = ke.verify_certificate(space, mcert)
        opens.append(handle)
        report["stages"].append({"id": "lemma-zorn", "point": p, "handle": handle,
                                 "certificate": mcert, "verified": ok})
    cover = canonical_cover(space)
    if chosen is None:
        chosen = _default_subfamily(space, sample_points)
    covered, scert = subcover_attempt(space, cover, chosen)
    report["stages"].append({"id": "subcover", "covered": covered, "certificate": scert,
                             "verified": ke.verify_certificate(space, scert)})
    if not covered:
        report["verdict"] = "subcover-stage-failure"
        return report
    fam = DenseFamily("finite", tuple(opens))
    probe = chosen[0]
    point, bcert = baire_intersect(space, fam, probe)
    report["stages"].append({"id": "baire", "point": point, "certificate": bcert,
                             "verified": verify_baire_point_cert(space, bcert)})
    separations = []
    for y in (probes or []):
        if y == point:
            continue
        ok, c = space.separable(point, y)
        separations.append({"other": y, "separable": ok,
                            "verified": ke.verify_certificate(space, c)})
        if not ok:
            report["verdict"] = "separation-failure"
            report["stages"].append({"id": "separate", "results": separations})
            return report
    report["stages"].append({"id": "separate", "results": separations})
    report["verdict"] = "separated-point-found"
    report["separated_point"] = point
    return report


def _default_subfamily(space, sample_points):
    if isinstance(space, ke.MultiLineSpace):
        if space.spec.k == 1:
            return (ml.full_wave(space.spec),)
        return tuple(_ml_maximal_handle(space.spec, p) for p in sample_points)
    return tuple(fe.fp_chart(p, Fraction(1)) for p in sample_points)


# ---------------------------------------------------------------------------
# Quasi-compactness of the cofinite space.


def quasi_compact_subcover(cover):
    """Finite subcover of a cofinite cover of the naturals: one nonempty
    member plus, per excluded point, a member containing it."""
    cover = list(cover)
    nonempty = [c for c in cover if not c.empty_set]
    if not nonempty:
        raise PreconditionError("cover misses everything: no nonempty member")
    base = nonempty[0]
    sub = [base]
    for n in base.excluded:
        for c in cover:
            if c.contains(n):
                if c not in sub:
                    sub.append(c)
                break
        else:
            raise PreconditionError("input does not cover: %d uncovered" % n)
    return sub


# ---------------------------------------------------------------------------
# Microcompactness and the implication chart.


def microcompact_neighborhood(space, p, v):
    """A compact neighborhood of p inside v: a closed interval in a chart at
    p.  Returns (certificate, interior basic) so the construction nests."""
    if not space.member(p, v):
        raise PreconditionError("point must lie in the neighborhood")
    eps = Fraction(1)
    for _ in range(128):
        chart = space.canonical_neighborhood(p, eps)
        radius = getattr(chart, "radius", eps)
        if ke.basic_subset(space, chart, v):
            c = cert.compact_cert(p, radius, (-radius / 2, radius / 2), v)
            if not ke.verify_certificate(space, c):
                raise AssertionError("compact neighborhood certificate does not verify")
            return c, space.canonical_neighborhood(p, radius / 2)
        eps /= 2
    raise AssertionError("no chart neighborhood fits inside v")


def microcompact_nesting(space, p, v, depth=5):
    """Iterate microcompact_neighborhood inside its own interior: a strictly
    nested chain of closed chart intervals."""
    chain = []
    cur = v
    for _ in range(depth):
        c, interior = microcompact_neighborhood(space, p, cur)
        chain.append(c)
        cur = interior
    radii = [c.payload["radius"] for c in chain]
    if not all(a > b for a, b in zip(radii, radii[1:])):
        raise AssertionError("nesting not strict")
    return chain


def chart_of_implications():
    """Machine-checked instantiation of the compactness/Baire chart on the
    corpus: the manifold examples are locally compact hence microcompact and
    Baire at finite-family scale; the cofinite space is quasi-compact and
    microquasi-compact yet not Baire."""
    rows = {}
    for name in ("line", "doubled", "feather"):
        space = ke.space_of(name)
        if isinstance(space, ke.MultiLineSpace):
            p = ml.MultiLinePoint(Fraction(0), 0)
            v = ml.Wave(space.spec, IntervalSet.of((-1, 1)))
        else:
            p = (Fraction(0), Fraction(1))
            v = fe.fp_chart(p, Fraction(1))
        ccert, _ = microcompact_neighborhood(space, p, v)
        handle, mcert = maximal_hausdorff_at(space, p)
        fam = DenseFamily("finite", (handle,))
        probe = v if isinstance(space, ke.MultiLineSpace) else fe.fp_chart((Fraction(0),), Fraction(1))
        point, bcert = baire_intersect(space, fam, probe)
        rows[name] = {
            "locally_compact": ke.verify_certificate(space, ccert),
            "microcompact": ke.verify_certificate(space, ccert),
            "baire_finite": verify_baire_point_cert(space, bcert),
            "witness_point": point,
        }
    cof = ke.COFINITE
    sample_cover = [CofiniteSet.excl(0), CofiniteSet.excl(1)]
    sub = quasi_compact_subcover(sample_cover)
    verdict, ecert = baire_intersect(cof, DenseFamily("cofinite-diagonal"),
                                     CofiniteSet.ground(), candidates=range(10))
    rows["cofinite"] = {
        "quasi_compact": len(sub) >= 1,
        "microquasi_compact": True,  # every open subset is itself quasi-compact
        "baire": False,
        "empty_intersection": verdict == "EMPTY",
        "certificate_verified": ke.verify_certificate(cof, ecert),
    }
    return rows
