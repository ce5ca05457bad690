"""Maximal Hausdorff dense opens, subcover extraction, Baire intersections,
quasi-compactness and microcompactness: the machinery behind the
"homogeneous + Lindelof + locally Hausdorff + Baire => Hausdorff" pipeline
and its counterexamples.

Zorn's lemma is replaced by closed-form maximal opens per space (a full-line
wave, the strict skeleton, the complement of one origin), each shipping a
maximality certificate.
"""

from fractions import Fraction

from . import certificates as cert
from . import kernel as ke
from .intervals import CofiniteSet
from .rationals import PreconditionError, Value

# ---------------------------------------------------------------------------
# Lemma-style maximal Hausdorff dense opens.


def maximal_hausdorff_at(space, x):
    """A Hausdorff dense open set containing x, maximal in the sense that
    adjoining any outside point creates a non-separable pair inside the
    union.  Returns (handle, certificate)."""
    handle, samples = space.maximal_hausdorff(x)
    return handle, cert.maximal_hausdorff(x, handle, samples)


def hausdorff_open(space, u, extra_points=()):
    """(verdict, certificate).  u is a handle or a list of basics; the
    verdict is True iff the union holds no non-separable pair."""
    basics = u if isinstance(u, (list, tuple)) else [u]
    extra_points = tuple(extra_points)
    pair = space.union_twin_pair(basics, extra_points)
    if pair is None:
        return True, cert.hausdorff_open(basics, extra_points)
    return False, cert.twin_pair(*pair)


# ---------------------------------------------------------------------------
# Covers and the Lindelof failure.


def canonical_cover(space):
    """The space's canonical cover, as its membership test."""
    return space.cover_admits


def subcover_attempt(space, cover, chosen):
    """Check whether the presented subfamily of `cover` (a membership test)
    still covers.  Returns (True, covered-certificate) or (False,
    uncovered-certificate with an explicit point missed by every chosen
    basic)."""
    chosen = tuple(chosen)
    for b in chosen:
        if not cover(b):
            raise PreconditionError("chosen basic %s is not in the cover" % (b,))
    point = space.uncovered_point(chosen)
    if point is None:
        # only lines doubled at finitely many abscissae are covered by
        # finitely many chosen basics
        return True, cert.covered(space.cover_probes(), chosen)
    c = cert.uncovered(point, chosen)
    if not ke.verify_certificate(space, c):
        raise AssertionError("constructed uncovered point is covered")
    return False, c


# ---------------------------------------------------------------------------
# Baire intersections.


class DenseFamily(Value):
    """A finite list of dense open members, or the parametric cofinite
    family D_n = ground-minus-{n} indexed by all naturals."""

    __slots__ = _fields = ("kind", "members")

    def __init__(self, kind, members=()):  # "finite" | "cofinite-diagonal"
        Value.__init__(self, kind, members)


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
    point = space.baire_point(fam.members, probe)
    c = cert.baire_point(point, probe, fam.members)
    if not ke.verify_certificate(space, c):
        raise AssertionError("constructed Baire point does not verify")
    return point, c


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
        opens.append(handle)
        report["stages"].append(ke.verified(space, mcert, id="lemma-zorn", point=p, handle=handle))
    cover = canonical_cover(space)
    if chosen is None:
        chosen = space.default_subfamily(sample_points)
    covered, scert = subcover_attempt(space, cover, chosen)
    report["stages"].append(ke.verified(space, scert, id="subcover", covered=covered))
    if not covered:
        report["verdict"] = "subcover-stage-failure"
        return report
    fam = DenseFamily("finite", tuple(opens))
    probe = chosen[0]
    point, bcert = baire_intersect(space, fam, probe)
    report["stages"].append(ke.verified(space, bcert, id="baire", point=point))
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


# ---------------------------------------------------------------------------
# Quasi-compactness of the cofinite space.


def quasi_compact_subcover(cover, within=CofiniteSet.ground()):
    """Finite subcover of a cofinite cover of the open set `within` (by
    default the naturals): one nonempty member plus, per point of `within`
    it excludes, a member containing it."""
    cover = list(cover)
    nonempty = [c for c in cover if not c.empty_set]
    if not nonempty:
        raise PreconditionError("cover misses everything: no nonempty member")
    base = nonempty[0]
    sub = [base]
    for n in base.excluded:
        if not within.contains(n):
            continue
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
        if space.basic_subset(chart, v):
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
    microquasi-compact yet not Baire.  Every entry is the verdict of a
    verified certificate."""
    rows = {}
    for name in ("line", "doubled", "feather"):
        space = ke.space_of(name)
        p, v, probe = space.chart_sample()
        ccert, _ = microcompact_neighborhood(space, p, v)
        handle, mcert = maximal_hausdorff_at(space, p)
        fam = DenseFamily("finite", (handle,))
        point, bcert = baire_intersect(space, fam, probe)
        rows[name] = {
            "locally_compact": ke.verify_certificate(space, ccert),
            "microcompact": all(ke.verify_certificate(space, c)
                                for c in microcompact_nesting(space, p, v)),
            "baire_finite": ke.verify_certificate(space, bcert),
            "witness_point": point,
        }
    cof = ke.COFINITE
    verdict, ecert = baire_intersect(cof, DenseFamily("cofinite-diagonal"),
                                     CofiniteSet.ground(), candidates=range(10))
    empty = verdict == "EMPTY"
    excluded_ok = ke.verify_certificate(cof, ecert)
    rows["cofinite"] = {
        "quasi_compact": _subcover_verified([CofiniteSet.excl(0), CofiniteSet.excl(1)],
                                            CofiniteSet.ground()),
        # a sample open subset, covered by two of its open subsets
        "microquasi_compact": _subcover_verified(
            [CofiniteSet.excl(0, 1), CofiniteSet.excl(0, 2)], CofiniteSet.excl(0)),
        "baire": not (empty and excluded_ok),
        "empty_intersection": empty,
        "certificate_verified": excluded_ok,
    }
    return rows


def _subcover_verified(cover, within) -> bool:
    """Whether a finite subcover of `cover` of the open set `within` is
    certified: its first member misses finitely many points, so probing
    those of `within` checks the whole of it."""
    sub = quasi_compact_subcover(cover, within)
    probes = [n for n in sub[0].excluded if within.contains(n)]
    return ke.verify_certificate(ke.COFINITE, cert.covered(probes, sub))
