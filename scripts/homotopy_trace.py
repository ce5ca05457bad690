#!/usr/bin/env python3
"""Export the contraction homotopy path of a feather point as CSV rows
(t, point) for plotting.

    python3 scripts/homotopy_trace.py 'F(0,1,3)' --steps 24 > trace.csv

Exit status: 0 on success (and for --help), 1 for a malformed point or
malformed arguments, 2 for a point that is not in the feather.
"""

import argparse
import csv
import sys
from fractions import Fraction

from featherline import feather as fe
from featherline import kernel as ke
from featherline.rationals import ParseError, PreconditionError
from featherline.syntax import fmt_point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("point", help="feather point, e.g. F(0,1,3)")
    parser.add_argument("--steps", type=int, default=16,
                        help="grid points per unit of homotopy time")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message
        return 1 if exc.code not in (0, None) else 0

    if args.steps < 1:
        sys.stderr.write("parse error: --steps must be at least 1, got %d\n" % args.steps)
        return 1
    try:
        s = ke.FEATHER.parse_point(args.point)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 1
    except PreconditionError as exc:
        sys.stderr.write("precondition error: %s\n" % exc)
        return 2
    writer = csv.writer(sys.stdout)
    writer.writerow(["t", "point"])
    for k in range(2 * args.steps + 1):
        t = Fraction(k, args.steps)
        writer.writerow([str(t), fmt_point(fe.homotopy_eval(t, s))])
    return 0


if __name__ == "__main__":
    sys.exit(main())
