#!/usr/bin/env python3
"""Profile one pass of an in-process benchmark workload and print where the
self time went.

Run from the repository root:

    python3 scripts/profile_pass.py --workload wave-wide --seed 7 --top 25

It builds the workload's op pool with `bench/gen.py` and `bench/ops.py`,
runs one untimed pass to warm caches, then one pass under cProfile.  It
prints the top K functions by self time and the share of all self time
spent in the standard library's `fractions.py`.
"""

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import gen  # noqa: E402  (bench/, found through the path set above)
import ops  # noqa: E402


def one_pass(built):
    for rnd in built:
        for kind, args, expect in rnd:
            ops.run(kind, args, expect)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.POOL_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=20, help="functions to list (default 20)")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")

    built = [[ops.build(spec) for spec in rnd] for rnd in gen.pool(args.workload, args.seed)]
    one_pass(built)
    prof = cProfile.Profile()
    prof.runcall(one_pass, built)
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)

    total = sum(row[2] for row in stats.values())
    in_fractions = sum(row[2] for key, row in stats.items()
                       if os.path.basename(key[0]) == "fractions.py")
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:args.top]
    print("%s seed %d: one pass, %.3f s of self time" % (args.workload, args.seed, total))
    print("%8s %6s %9s  %s" % ("self_s", "share", "calls", "function"))
    for (path, line, name), (_, calls, tt, _, _) in rows:
        where = "%s:%d" % (os.path.relpath(path, ROOT) if path.startswith(ROOT)
                           else os.path.basename(path), line)
        print("%8.3f %5.1f%% %9d  %s(%s)" % (tt, 100 * tt / total, calls, name, where))
    print("fractions.py share of self time: %.1f%%" % (100 * in_fractions / total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
