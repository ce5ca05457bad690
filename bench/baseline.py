#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the numbers.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 > bench/BASELINE.json

For each workload and end-to-end metric it reports the median and the
quartile spread (interquartile range over median) of the untraced runs, one
run per seed, workloads interleaved; then one traced run per workload gives
the tracing overhead and the growth-sweep exponents.  Progress goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one(workload, seed, seconds, traced) -> dict:
    proc = subprocess.run([sys.executable, BENCH, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(traced))],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("bench failed for %s seed %d:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.splitlines()
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    a = ap.parse_args()
    values = {w: {} for w in run.WORKLOADS}
    correct = True
    env = None
    for seed in a.seeds:
        for workload in run.WORKLOADS:
            out = one(workload, seed, a.seconds, False)
            env = out["env"]
            correct &= out["result"]["correct"]
            for name, m in out["result"]["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            sys.stderr.write("%s seed %d: %s\n" % (workload, seed, json.dumps(
                {k: round(m["value"], 4) for k, m in out["result"]["metrics"].items()})))
    summary = {"env": env, "seeds": a.seeds, "seconds": a.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        rows = {}
        for name, vs in values[workload].items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rows[name] = {"median": med, "spread": (q3 - q1) / med, "values": vs}
        traced = one(workload, a.seeds[0], a.seconds, True)["result"]
        correct &= traced["correct"]
        keep = ("trace.overhead_ratio", "trace.untraced_ops_per_s", "trace.traced_ops_per_s")
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "traced": {k: m["value"] for k, m in traced["metrics"].items()
                       if k in keep or k.startswith("sweep.")},
        }
    summary["correct"] = correct
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
