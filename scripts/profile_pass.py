#!/usr/bin/env python3
"""Profile one pass of an in-process benchmark workload and print where the
self time went.

Run from the repository root:

    python3 scripts/profile_pass.py --workload wave-wide --seed 7 --top 25
    python3 scripts/profile_pass.py --workload wave-wide --seed 7 --callers 'fractions.py:.*__hash__'

It builds the workload's op pool with `bench/gen.py` and `bench/ops.py`,
runs one untimed pass to warm caches, one timed pass without the profiler,
then one pass under cProfile.  It prints the top K functions by self time
and the share of all self time spent in the standard library's
`fractions.py`, with the number of `Fraction` arithmetic operator calls in
the pass (`+`, `-`, `*`, `/` and the rest, which the stdlib builds as
`forward` and `reverse`), then a table of op kinds from the timed pass:
each kind's op count, mean wall time per op and share of the pass.  With `--callers
PATTERN` it then prints, for every function whose `file:line(name)` matches
the regular expression PATTERN, the functions that called it and how often.
"""

import argparse
import cProfile
import os
import pstats
import re
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import gen  # noqa: E402  (bench/, found through the path set above)
import ops  # noqa: E402


def one_pass(built):
    for rnd in built:
        for kind, args, expect in rnd:
            ops.run(kind, args, expect)


def timed_pass(built) -> dict:
    """One pass without the profiler: op kind -> [ops, wall seconds]."""
    kinds = {}
    for rnd in built:
        for kind, args, expect in rnd:
            start = time.perf_counter()
            ops.run(kind, args, expect)
            row = kinds.setdefault(kind, [0, 0.0])
            row[0] += 1
            row[1] += time.perf_counter() - start
    return kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.POOL_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=20, help="functions to list (default 20)")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="also list the callers of functions matching this regex")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")
    try:
        callers_re = re.compile(args.callers) if args.callers is not None else None
    except re.error as exc:
        parser.error("--callers: %s" % exc)

    built = [[ops.build(spec) for spec in rnd] for rnd in gen.pool(args.workload, args.seed)]
    one_pass(built)
    kinds = timed_pass(built)
    prof = cProfile.Profile()
    prof.runcall(one_pass, built)
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)

    total = sum(row[2] for row in stats.values())
    in_fractions = sum(row[2] for key, row in stats.items()
                       if os.path.basename(key[0]) == "fractions.py")
    # the stdlib builds every binary operator of Fraction as `forward` or `reverse`
    arithmetic = sum(row[1] for key, row in stats.items()
                     if os.path.basename(key[0]) == "fractions.py"
                     and key[2] in ("forward", "reverse"))
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:args.top]
    print("%s seed %d: one pass, %.3f s of self time" % (args.workload, args.seed, total))
    print("%8s %6s %9s  %s" % ("self_s", "share", "calls", "function"))
    for func, (_, calls, tt, _, _) in rows:
        print("%8.3f %5.1f%% %9d  %s" % (tt, 100 * tt / total, calls, label(func)))
    print("fractions.py share of self time: %.1f%%, %d Fraction arithmetic calls"
          % (100 * in_fractions / total, arithmetic))
    print_kinds(kinds)
    if callers_re is not None:
        print_callers(stats, callers_re)
    return 0


def print_kinds(kinds):
    """Each op kind's count, mean ms per op and share of the timed pass,
    largest share first."""
    wall = sum(seconds for _, seconds in kinds.values())
    print()
    print("op kinds: one timed pass without the profiler, %.1f ms" % (1000 * wall))
    print("%-14s %5s %9s %6s" % ("kind", "ops", "mean_ms", "share"))
    for kind, (n, seconds) in sorted(kinds.items(), key=lambda item: -item[1][1]):
        print("%-14s %5d %9.3f %5.1f%%" % (kind, n, 1000 * seconds / n, 100 * seconds / wall))


def label(func) -> str:
    """`name(file:line)`, with the file relative to the repository root."""
    path, line, name = func
    where = os.path.relpath(path, ROOT) if path.startswith(ROOT) else os.path.basename(path)
    return "%s(%s:%d)" % (name, where, line)


def print_callers(stats, pattern):
    """For each function whose `file:line(name)` matches, its callers by call
    count, most frequent first."""
    matched = [func for func in stats
               if pattern.search("%s:%d(%s)" % (os.path.basename(func[0]), func[1], func[2]))]
    matched.sort(key=lambda func: stats[func][1], reverse=True)
    if not matched:
        print("no function matches %r" % pattern.pattern)
    for func in matched:
        _, calls, tt, _, callers = stats[func]
        print()
        print("callers of %s: %d calls, %.3f s self" % (label(func), calls, tt))
        for caller, row in sorted(callers.items(), key=lambda item: item[1][1], reverse=True):
            print("%9d  %s" % (row[1], label(caller)))


if __name__ == "__main__":
    sys.exit(main())
