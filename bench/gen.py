"""Seeded input generators and the known-answer oracle.

Everything here is plain Python with `fractions.Fraction`: it never imports
featherline, so every expected verdict comes from the paper's
characterizations and from how the inputs were constructed, not from the
engine under test.

A workload's pool is a list of rounds.  Each round holds SHORT_PER_ROUND
short ops followed by LONG_PER_ROUND long ops, so that any prefix of whole
rounds has the same mix.  Kinds rotate, and sizes follow a fixed schedule
per kind (a cycle for short ops, a low-discrepancy sequence for long ones);
the seed draws the rationals.  Every seed therefore costs about the same,
which keeps medians steady from one seed to the next.
"""

from __future__ import annotations

import random
from fractions import Fraction

SHORT_PER_ROUND = 6
LONG_PER_ROUND = 2
# Rounds per pool: one pass over the pool takes a few seconds, so a run
# holds several passes.
POOL_ROUNDS = {"feather-deep": 32, "wave-wide": 16}

# Mixed denominators keep the exact arithmetic honest without letting the
# least common multiples of long points explode.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 25)
GOLDEN = Fraction(618034, 1000000)

FEATHER_KINDS = ("move", "twin", "far", "maximal", "meet", "homotopy")
WAVE_SIZED_KINDS = ("wave_meet", "dense", "chain", "chain_control",
                    "subcover", "pipeline")
WAVE_KINDS = WAVE_SIZED_KINDS + ("separate",)

FEATHER_SHORT = (2, 8)
FEATHER_LONG = (40, 120)
WAVE_SHORT = (0, 8)
WAVE_LONG = (100, 300)


def fmt(x) -> str:
    """Text form of a rational, matching the engine's canonical syntax."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def fpoint(coords) -> str:
    return "F(%s)" % ",".join(fmt(c) for c in coords)


def dpoint(x, level=0) -> str:
    return "D(%s @%d)" % (fmt(x), level)


def wave(lo, hi, lifts=()) -> str:
    parts = "(%s,%s)" % (_end(lo), _end(hi))
    return "W[%s-{%s}]" % (parts, ",".join("%s^%d" % (fmt(x), j) for x, j in lifts))


def _end(x) -> str:
    if x == "-inf" or x == "inf":
        return x
    return fmt(x)


def fi(lower, upper) -> str:
    return "FI[(%s);(%s)]" % (",".join(fmt(c) for c in lower),
                              ",".join(fmt(c) for c in upper))


def iset_text(pairs) -> str:
    return "u".join("(%s,%s)" % (_end(a), _end(b)) for a, b in pairs)


class Gen:
    """Seeded source of rationals and sizes."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rat(self, lo: int, hi: int) -> Fraction:
        den = self.rng.choice(DENOMINATORS)
        return Fraction(self.rng.randrange(lo * den, hi * den + 1), den)

    def step(self) -> Fraction:
        """A positive increment in (0, 9]."""
        return Fraction(self.rng.randrange(1, 10), self.rng.choice(DENOMINATORS))

    def strict_point(self, length: int) -> tuple:
        x = self.rat(-10, 10)
        out = [x]
        for _ in range(length - 1):
            x += self.step()
            out.append(x)
        return tuple(out)

    def abscissae(self, n: int, lo: Fraction) -> list:
        """n increasing rationals above lo, more than 1/2 apart."""
        out = []
        x = lo
        for _ in range(n):
            x += Fraction(1, 2) + Fraction(self.rng.randrange(1, 8),
                                           self.rng.choice(DENOMINATORS) * 4)
            out.append(x)
        return out


def short_size(index: int, bounds) -> int:
    lo, hi = bounds
    return lo + index % (hi - lo + 1)


def long_size(index: int, bounds) -> int:
    lo, hi = bounds
    return lo + int((index * GOLDEN) % 1 * (hi - lo + 1))


def pool(workload: str, seed: int, rounds: int = None) -> list:
    """The op pool of an in-process workload: a list of rounds of op specs."""
    g = Gen(seed)
    rounds = rounds or POOL_ROUNDS[workload]
    if workload == "feather-deep":
        kinds, sized, make = FEATHER_KINDS, FEATHER_KINDS, feather_op
        short_b, long_b = FEATHER_SHORT, FEATHER_LONG
    elif workload == "wave-wide":
        kinds, sized, make = WAVE_KINDS, WAVE_SIZED_KINDS, wave_op
        short_b, long_b = WAVE_SHORT, WAVE_LONG
    else:
        raise ValueError("no in-process pool for workload %r" % workload)
    out = []
    # per-kind counters: each kind cycles through its short sizes and walks
    # the low-discrepancy sequence over its long sizes on its own
    count = {}
    for r in range(rounds):
        ops = []
        for i in range(SHORT_PER_ROUND + LONG_PER_ROUND):
            if i < SHORT_PER_ROUND:
                kind = kinds[(r * SHORT_PER_ROUND + i) % len(kinds)]
                j = count[kind, "short"] = count.get((kind, "short"), -1) + 1
                size = short_size(j, short_b)
            else:
                kind = sized[(r * LONG_PER_ROUND + i) % len(sized)]
                j = count[kind, "long"] = count.get((kind, "long"), -1) + 1
                size = long_size(j, long_b)
            ops.append(make(g, kind, size, j))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# feather-deep: the complete feather.


def feather_op(g: Gen, kind: str, n: int, index: int) -> dict:
    p = g.strict_point(n)
    if kind == "move":
        q = g.strict_point(n)
        if index % 2:
            q = q + (q[-1],)  # targets include upper twins
        # replay(fp_move(p, q), p) == q
        return {"kind": kind, "p": fpoint(p), "q": fpoint(q),
                "expect": {"verdict": "moved", "out": fpoint(q)}}
    if kind == "twin":
        lower, upper = p, p + (p[-1],)
        a, b = (lower, upper) if index % 2 else (upper, lower)
        return {"kind": kind, "p": fpoint(a), "q": fpoint(b),
                "expect": {"verdict": "not separable"}}
    if kind == "far":
        d = g.step()
        if index % 2:
            q = p[:-1] + (p[-1] + d,)  # same prefix, distinct last coordinate
        else:
            q = p + (p[-1] + d,)  # one level up, not the twin
        return {"kind": kind, "p": fpoint(p), "q": fpoint(q),
                "expect": {"verdict": "separable"}}
    if kind == "maximal":
        x = p + (p[-1],)  # an upper twin, outside the plain skeleton
        return {"kind": kind, "x": fpoint(x), "twin": fpoint(p),
                "expect": {"verdict": "maximal", "contains_x": True,
                           "contains_twin": False}}
    if kind == "meet":
        gap = p[-1] - p[-2] if n >= 2 else Fraction(1)
        a = p[-1] - gap / 2
        b1 = fi(p[:-1] + (a,), p[:-1] + (p[-1] + g.step(),))
        eps = gap / 4 + Fraction(1, 1000)
        if index % 2:
            # b1 and the chart both contain p
            return {"kind": kind, "b1": b1, "p": fpoint(p), "eps": fmt(eps),
                    "expect": {"verdict": "nonempty"}}
        c = p[-1] + 2 * (p[-1] - a) + 2 * eps + g.step()
        other = p[:-1] + (c,)
        b1 = fi(p[:-1] + (a,), p[:-1] + (p[-1] + (p[-1] - a),))
        return {"kind": kind, "b1": b1, "p": fpoint(other), "eps": fmt(eps),
                "inside": fpoint(p), "expect": {"verdict": "empty"}}
    if kind == "homotopy":
        t, out = _homotopy_case(g, p, index)
        return {"kind": kind, "p": fpoint(p), "t": fmt(t),
                "expect": {"verdict": fpoint(out)}}
    raise ValueError(kind)


def _homotopy_case(g: Gen, s: tuple, index: int):
    """A time with a closed-form value of the contraction: level m collapses
    onto its branch point during [1/(m+1), 1/m] and the line slides left
    during [1, 2]."""
    n = len(s) - 1
    case = index % 3
    if case == 0:
        t = 1 + Fraction(g.rng.randrange(1, 9), 8)
        return t, (s[0] - t + 1,)
    if case == 1 and n >= 1:
        k = 1 + g.rng.randrange(n)
        return Fraction(1, k), s[:k] + (s[k - 1],)
    return Fraction(1, n + 1 + g.rng.randrange(1, 4)), s


# ---------------------------------------------------------------------------
# wave-wide: the k-fold lines.


def wave_op(g: Gen, kind: str, n: int, index: int) -> dict:
    if kind == "wave_meet":
        return _wave_meet_op(g, n, index)
    if kind == "dense":
        return _dense_op(g, n, index)
    if kind in ("chain", "chain_control"):
        return _chain_op(g, kind, n)
    if kind == "subcover":
        xs = g.abscissae(n, g.rat(-50, 0))
        chosen = [wave("-inf", "inf")] + [wave("-inf", "inf", [(x, 1)]) for x in xs]
        return {"kind": kind, "space": "doubled", "chosen": chosen,
                "expect": {"verdict": "uncovered"}}
    if kind == "pipeline":
        space = ("line", "doubled", "tripled")[index % 3]
        k = {"line": 1, "doubled": 2, "tripled": 3}[space]
        xs = g.abscissae(max(1, n), g.rat(-50, 0))
        # lift covers admit level-1 lifts only, so samples stay on levels 0 and 1
        samples = [dpoint(x, i % min(k, 2)) for i, x in enumerate(xs)]
        probes = [dpoint(xs[-1] + 1 + g.step()), dpoint(xs[0] - 1 - g.step())]
        verdict = "separated-point-found" if k == 1 else "subcover-stage-failure"
        return {"kind": kind, "space": space, "samples": samples, "probes": probes,
                "expect": {"verdict": verdict}}
    if kind == "separate":
        return _separate_op(g, index)
    raise ValueError(kind)


def _wave_meet_op(g: Gen, n: int, index: int) -> dict:
    """Two waves sharing half of their lifted abscissae; on the tripled line
    every third shared abscissa is lifted to different levels."""
    space, k = ("tripled", 3) if index % 2 else ("doubled", 2)
    lo = g.rat(-20, 0)
    n_shared = n // 2
    xs = g.abscissae(n_shared + 2 * (n - n_shared), lo)
    hi = (xs[-1] if xs else lo) + 1 + g.step()
    lo1, hi2 = lo - 1 - g.step(), hi + 1 + g.step()
    shuffled = list(xs)
    g.rng.shuffle(shuffled)
    shared = shuffled[:n_shared]
    only1 = shuffled[n_shared:n_shared + (n - n_shared)]
    only2 = shuffled[n_shared + (n - n_shared):]
    lift1, lift2, kept, punched = [], [], [], list(only1) + list(only2)
    for i, x in enumerate(shared):
        j1 = 1 + (i % (k - 1))
        j2 = j1 if (k == 2 or i % 3) else 1 + (j1 % (k - 1))
        lift1.append((x, j1))
        lift2.append((x, j2))
        if j1 == j2:
            kept.append((x, j1))
        else:
            punched.append(x)
    lift1 += [(x, 1) for x in only1]
    lift2 += [(x, 1 + (i % (k - 1))) for i, x in enumerate(only2)]
    g.rng.shuffle(lift1)
    g.rng.shuffle(lift2)
    cuts = [lo] + sorted(punched) + [hi]
    meet = "W[%s-{%s}]" % (iset_text(list(zip(cuts, cuts[1:]))),
                           ",".join("%s^%d" % (fmt(x), j) for x, j in sorted(kept)))
    # a down point of the meet away from every lifted abscissa
    down = dpoint((lo + (xs[0] if xs else hi)) / 2)
    probes = [dpoint(x, j) for x, j in kept] + [down]
    return {"kind": "wave_meet", "space": space,
            "w1": wave(lo1, hi, lift1), "w2": wave(lo, hi2, lift2),
            "probes": probes, "missing": [dpoint(x) for x in punched[:4]],
            "expect": {"verdict": "nonempty", "meet": meet}}


def _dense_op(g: Gen, n: int, index: int) -> dict:
    """Unions of full-line waves are dense (their down parts miss finitely
    many abscissae); unions of bounded waves are not."""
    space = ("doubled", "tripled")[index % 2]
    k = 2 if space == "doubled" else 3
    xs = g.abscissae(n, g.rat(-50, 0))
    m = 2 + index % 3
    bounded = index % 4 == 3
    far = (xs[-1] if xs else 0) + 10 + g.step()
    waves = []
    for w in range(m):
        lifts = [(x, 1 + (i % (k - 1))) for i, x in enumerate(xs) if i % m == w]
        if bounded:
            lo = (xs[0] if xs else 0) - 1 - w
            waves.append(wave(lo, far - 1, lifts))
        else:
            waves.append(wave("-inf", "inf", lifts))
    probes = [dpoint(far + Fraction(j, 3)) for j in range(3)]
    return {"kind": "dense", "space": space, "waves": waves, "probes": probes,
            "expect": {"verdict": "not dense" if bounded else "dense"}}


def _chain_op(g: Gen, kind: str, n: int) -> dict:
    """Removing two levels at each of n abscissae leaves the tripled line
    connected through its third level; on the doubled line removing both
    levels at one abscissa leaves the bounded construction inconclusive."""
    src = g.rat(-20, 0)
    xs = g.abscissae(max(n, 1 if kind == "chain_control" else 0), src)
    dst = (xs[-1] if xs else src) + 1 + g.step()
    removed = []
    for i, x in enumerate(xs):
        removed.append(dpoint(x, 0))
        if kind == "chain" or i == len(xs) // 2 or i % 2:
            removed.append(dpoint(x, 1))
    space = "tripled" if kind == "chain" else "doubled"
    return {"kind": kind, "space": space, "src": dpoint(src), "dst": dpoint(dst),
            "removed": removed, "window": [fmt(src - 5), fmt(dst + 5)],
            "expect": {"verdict": "connected" if kind == "chain" else "inconclusive"}}


def _separate_op(g: Gen, index: int) -> dict:
    """Same-abscissa pairs at different levels, the two origins and any two
    cofinite points are not separable; distinct abscissae are."""
    case = index % 6
    x = g.rat(-20, 20)
    y = x + g.step()
    if case == 0:
        return _sep("doubled", dpoint(x, 0), dpoint(x, 1), False)
    if case == 1:
        i = g.rng.randrange(3)
        return _sep("tripled", dpoint(x, i), dpoint(x, (i + 1) % 3), False)
    if case == 2:
        return _sep("two-origins", dpoint(0, 0), dpoint(0, 1), False)
    if case == 3:
        m = g.rng.randrange(100)
        return _sep("cofinite", "N(%d)" % m, "N(%d)" % (m + 1 + g.rng.randrange(50)), False)
    if case == 4:
        return _sep("tripled", dpoint(x, g.rng.randrange(3)), dpoint(y, g.rng.randrange(3)), True)
    space = ("line", "two-origins", "doubled")[g.rng.randrange(3)]
    level = 1 if space == "doubled" else 0
    return _sep(space, dpoint(x, level), dpoint(y, 0), True)


def _sep(space, p, q, separable) -> dict:
    return {"kind": "separate", "space": space, "p": p, "q": q,
            "expect": {"verdict": "separable" if separable else "not separable"}}


# ---------------------------------------------------------------------------
# cli-gallery: the golden demos plus the README verbs.

GOLDEN_DEMOS = [
    ("two-origins", ["demo", "two-origins"], 0),
    ("branching-line", ["demo", "branching-line"], 0),
    ("feather-homogeneity", ["demo", "feather-homogeneity"], 0),
    ("feather-contraction", ["demo", "feather-contraction"], 0),
    ("feather-twins", ["demo", "feather-twins"], 0),
    ("doubled-line", ["demo", "doubled-line"], 0),
    ("involutorial", ["demo", "involutorial"], 0),
    ("fuks-rokhlin", ["demo", "fuks-rokhlin"], 0),
    ("lemma-zorn", ["demo", "lemma-zorn"], 0),
    ("theorem2-line", ["demo", "theorem2", "--space", "line"], 0),
    ("theorem2-doubled", ["demo", "theorem2", "--space", "doubled"], 3),
    ("theorem2-feather", ["demo", "theorem2", "--space", "feather"], 3),
    ("lindelof-failure", ["demo", "lindelof-failure"], 3),
    ("cofinite-not-baire", ["demo", "cofinite-not-baire"], 3),
    ("microcompact", ["demo", "microcompact"], 0),
]


# Seeded variants of each verb per pass: with the 15 demos a pass holds 111
# invocations, enough for ten samples beyond the 90th percentile.
VERB_VARIANTS = 6


def gallery(seed: int) -> list:
    """Gallery cases in a seeded order.  A case is a dict with argv, the
    expected exit code and either a golden file name or the expected verdict
    line (`verdict` exact, or `verdict_prefix`)."""
    g = Gen(seed)
    cases = [{"name": name, "argv": argv + ["--format", "json"], "code": code,
              "golden": name + ".json"} for name, argv, code in GOLDEN_DEMOS]
    for _ in range(VERB_VARIANTS):
        cases += _verb_cases(g)
    g.rng.shuffle(cases)
    return cases


def _verb(name, argv, code, verdict=None, prefix=None, **extra) -> dict:
    case = {"name": name, "argv": argv, "code": code}
    if verdict is not None:
        case["verdict"] = verdict
    if prefix is not None:
        case["verdict_prefix"] = prefix
    case.update(extra)
    return case


def _verb_cases(g: Gen) -> list:
    a = g.rat(-5, 5)
    b = a + g.step()
    c = b + g.step()
    twin_lo = (a, b)
    x, y = g.rat(-5, 5), g.rat(6, 12)
    m = g.rng.randrange(50)
    p_move = g.strict_point(3)
    q_move = g.strict_point(2)
    t = 1 + Fraction(g.rng.randrange(1, 9), 8)
    lifted = g.rat(-3, 3)
    cases = [
        _verb("separate-F-twins", ["separate", "F", fpoint(twin_lo), fpoint(twin_lo + (b,))],
              3, "NOT separable: twin pair"),
        _verb("separate-D-far", ["separate", "D", dpoint(x, 1), dpoint(y, 0)], 0, "separable"),
        _verb("separate-N", ["separate", "N", "N(%d)" % m, "N(%d)" % (m + 3)],
              3, "NOT separable: twin pair"),
        _verb("move-F", ["move", "F", fpoint(p_move), fpoint(q_move)], 0, "moved"),
        _verb("move-D-involutive", ["move", "doubled", dpoint(x, 0), dpoint(y, 1),
                                    "--involutive"], 0, "moved"),
        _verb("meet", ["meet", "doubled", wave(a - 2, a + 2, [(a, 1)]), wave(a, a + 4)],
              0, "nonempty"),
        _verb("chain-tripled", ["chain", "tripled", dpoint(x - 1), dpoint(x + 1),
                                "--remove", "%s;%s" % (dpoint(x, 0), dpoint(x, 1)),
                                "--window=%s,%s" % (fmt(x - 5), fmt(x + 5))],
              0, "connected"),
        _verb("baire-N", ["baire", "cofinite", "--candidates", str(20 + m)], 3, "EMPTY"),
        _verb("baire-D-probe", ["baire", "doubled", wave("-inf", "inf", [(lifted, 1)]),
                                "--probe", wave(lifted - 1, lifted + 1)],
              0, prefix="D(", down_in=[fmt(lifted - 1), fmt(lifted + 1)],
              avoid=fmt(lifted)),
        _verb("flip", ["flip", fpoint((a, b)), fpoint((a, c))], 0, fpoint((c,))),
        _verb("homotopy", ["homotopy", "F", fpoint((a, b)), "--t", fmt(t)],
              0, fpoint((a - t + 1,))),
        _verb("maximal-hausdorff", ["maximal-hausdorff", "feather", fpoint((a, b, b))],
              0, prefix="strict-skeleton", verified=True),
        _verb("subcover", ["subcover", "doubled", wave("-inf", "inf"),
                           wave("-inf", "inf", [(a, 1)])], 3, "uncovered"),
        _verb("microcompact", ["microcompact", "doubled", dpoint(x), wave(x - 1, x + 1),
                               "--depth", "5"], 0, "nested x5"),
        _verb("dense", ["dense", "doubled", wave("-inf", "inf", [(a, 1)]),
                        wave("-inf", "inf")], 0, "dense"),
        _verb("converges", ["converges", "F", fpoint((a, b)), fpoint((a, b, b)),
                            "--limit=%s" % fmt(b), "--direction", "below"], 0, "converges"),
    ]
    return cases
