"""Maximal Hausdorff dense opens, subcover extraction, Baire intersections,
quasi-compactness and microcompactness: the machinery behind the
"homogeneous + Lindelof + locally Hausdorff + Baire => Hausdorff" pipeline
and its counterexamples.

Zorn's lemma is replaced by closed-form maximal opens per space (a full-line
wave, the strict skeleton, the complement of one origin), each shipping a
maximality certificate.

A family of basics is a list: one handle goes in as `[handle]`.
`baire_intersect` takes finitely many dense members; the cofinite diagonal
family, indexed by all naturals, has its own `diagonal_intersection`.

Producers return certificates and do not verify them.  Whoever reports a
certificate verifies it, once: `kernel.verified` in `theorem_pipeline` and
in the CLI, and `verify_certificate` in `chart_of_implications`.
"""

from fractions import Fraction

from . import certificates as cert
from . import kernel as ke
from .intervals import CofiniteSet
from .rationals import PreconditionError, denominator_bits, lt

# ---------------------------------------------------------------------------
# Lemma-style maximal Hausdorff dense opens.


def maximal_hausdorff_at(space, x):
    """A Hausdorff dense open set containing x, maximal in the sense that
    adjoining any outside point creates a non-separable pair inside the
    union.  Returns (handle, certificate); the certificate carries x as
    the space checked it."""
    x, handle, samples = space.maximal_hausdorff(x)
    return handle, cert.maximal_hausdorff(x, handle, samples)


def hausdorff_open(space, basics):
    """(verdict, certificate): True iff the union of the list `basics` holds
    no non-separable pair."""
    pair = space.union_twin_pair(basics)
    if pair is None:
        return True, cert.hausdorff_open(basics)
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
    return False, cert.uncovered(point, chosen)


# ---------------------------------------------------------------------------
# Baire intersections.


def baire_intersect(space, members, probe):
    """An explicit point of the basic `probe` inside every member of the
    finite family `members` of dense opens (the line spaces, the feather)."""
    for m in members:
        if not space.dense([m]):
            raise PreconditionError("family member is not dense")
    point = space.baire_point(members, probe)
    return point, cert.baire_point(point, probe, members)


def diagonal_intersection(candidates):
    """The cofinite diagonal family D_n = N - {n}, indexed by all naturals n:
    the EMPTY verdict, with the member D_n excluding each candidate n."""
    return "EMPTY", cert.excluded_by("cofinite-diagonal", {int(n): int(n) for n in candidates})


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
        chosen = space.default_subfamily(sample_points, opens)
    covered, scert = subcover_attempt(space, cover, chosen)
    report["stages"].append(ke.verified(space, scert, id="subcover", covered=covered))
    if not covered:
        report["verdict"] = "subcover-stage-failure"
        return report
    probe = chosen[0]
    point, bcert = baire_intersect(space, opens, probe)
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
    return _compact_in(space, p, v, 0)[1:]


def _compact_in(space, p, v, start):
    """`microcompact_neighborhood`, trying the chart radii 2**-k for k from
    `start` on; returns (k, certificate, interior basic) for the first k
    whose chart fits in v."""
    if not space.member(p, v):
        raise PreconditionError("point must lie in the neighborhood")
    eps = Fraction(1, 1 << start)
    # distinct rationals differ by at least 1/(den_a*den_b), so this many
    # halvings from 1 bring the chart's ends inside v's ends and past its lifts
    for k in range(start, 64 + denominator_bits(p) + denominator_bits(v)):
        chart = space.canonical_neighborhood(p, eps)
        radius = getattr(chart, "radius", eps)
        if space.basic_subset(chart, v):
            return (k, cert.compact_cert(p, radius, (-radius / 2, radius / 2), v),
                    space.canonical_neighborhood(p, radius / 2))
        eps /= 2
    raise AssertionError("no chart neighborhood fits inside v")


def microcompact_nesting(space, p, v, depth=5):
    """Iterate microcompact_neighborhood inside its own interior: a strictly
    nested chain of closed chart intervals.  Each interior lies in the
    neighborhood it was built in, so a chart that did not fit there does not
    fit in it: each level's search resumes at the radius that fitted last,
    and depth d costs O(d) subset tests, not O(d**2)."""
    chain = []
    cur, k = v, 0
    for _ in range(depth):
        k, c, cur = _compact_in(space, p, cur, k)
        chain.append(c)
    radii = [c.payload["radius"] for c in chain]
    if not all(map(lt, radii[1:], radii)):
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
        point, bcert = baire_intersect(space, [handle], probe)
        rows[name] = {
            "locally_compact": ke.verify_certificate(space, ccert),
            "microcompact": all(ke.verify_certificate(space, c)
                                for c in microcompact_nesting(space, p, v)),
            "baire_finite": ke.verify_certificate(space, bcert),
            "witness_point": point,
        }
    cof = ke.COFINITE
    verdict, ecert = diagonal_intersection(range(10))
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
