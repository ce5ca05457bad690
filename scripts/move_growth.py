#!/usr/bin/env python3
"""Time a feather `move` end to end at growing point lengths and fit how the
time grows.

Run from the repository root:

    python3 scripts/move_growth.py
    python3 scripts/move_growth.py --lengths 50 100 200

For each length n it builds two feather points of n coordinates, the second
with a slack last step, and times, best of 5, what the `move` verb does
in-process: the homogeneity word from one point to the other, its replay,
and the verification of the `homeo-word` certificate.  It prints one row per
length, then the exponent k of a least-squares fit of
log(time) = k log(n) + c over the lengths from 400 to 1,600.  A move that
does not reach its target, or a certificate that does not verify, exits 1.
"""

import argparse
import math
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from featherline import certificates as cert  # noqa: E402
from featherline import kernel as ke  # noqa: E402

DEFAULT_LENGTHS = (50, 100, 200, 400, 800, 1600)
REPEAT = 5  # runs per length; the best one counts
FIT = (400, 1600)  # the lengths the exponent is fitted over


def points(n: int):
    """A strict point and a point with a slack last step, both of length n."""
    p = tuple(Fraction(k) for k in range(n))
    q = tuple(Fraction(2 * k + 1, 3) for k in range(n - 1)) + (Fraction(2 * n - 3, 3),)
    return p, q


def move_once(p, q) -> bool:
    """The `move` verb's work: the word, its replay and the verification."""
    word = ke.FEATHER.move(p, q)
    out = ke.FEATHER.replay(word, p)
    c = cert.homeo_word(word, p, out, involutive=False)
    return out == q and ke.verify_certificate(ke.FEATHER, c)


def best_ms(n: int) -> float:
    p, q = points(n)
    best = math.inf
    for _ in range(REPEAT):
        start = time.perf_counter()
        ok = move_once(p, q)
        best = min(best, time.perf_counter() - start)
        if not ok:
            raise RuntimeError("the move at length %d did not verify" % n)
    return best * 1000


def exponent(rows) -> float:
    """Slope of the least-squares line through (log n, log ms)."""
    xs = [math.log(n) for n, _ in rows]
    ys = [math.log(ms) for _, ms in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lengths", type=int, nargs="+", default=list(DEFAULT_LENGTHS),
                        metavar="N", help="point lengths (default %s)"
                        % " ".join(map(str, DEFAULT_LENGTHS)))
    args = parser.parse_args(argv)
    if min(args.lengths) < 2:
        parser.error("--lengths must be at least 2")

    rows = []
    print("%8s  %10s" % ("length", "best_ms"))
    for n in sorted(set(args.lengths)):
        try:
            ms = best_ms(n)
        except RuntimeError as exc:
            sys.stderr.write("move_growth: %s\n" % exc)
            return 1
        rows.append((n, ms))
        print("%8d  %10.3f" % (n, ms), flush=True)
    lo, hi = FIT
    fitted = [row for row in rows if lo <= row[0] <= hi]
    if len(fitted) < 2:
        print("exponent %d..%d: n/a (fewer than two lengths in range)" % (lo, hi))
    else:
        print("exponent %d..%d: %.2f" % (lo, hi, exponent(fitted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
