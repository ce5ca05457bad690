#!/usr/bin/env python3
"""Run the benchmark on a base commit and on the working tree in alternating
pairs, and write the per-pair medians a speed change cites.

Run from the repository root, before committing the change (the base
defaults to HEAD) or after it with `--base HEAD~1`:

    python3 scripts/bench_pairs.py --pr N --seeds 901 902 903 904 905

The workloads, the run length and the metrics, with the direction that is
better, come from BENCHMARK.json, and every declared workload runs at the
declared length, so the file covers what the no-regression check compares.
For each workload and seed it runs
`python3 bench/run.py --trace 0` once in an export of the base commit and
once in the working tree, alternating which side goes first.  The export is
`git archive` of the base unpacked into a temporary directory, which is
removed at the end.  Each side runs its own `bench/`.  It writes
`BENCH_<pr>.json` at the repository root: per workload and end-to-end
metric, each side's median and quartiles, the change's median over the
base's, the number of pairs the change won (ties count for neither), every
run's value, and the failed ops of each side.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str):
    """Unpack the tree of `rev` into the empty directory `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `root`; its result line."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s"
                           % (" ".join(cmd[1:]), root, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; a single run is all three)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, metrics: dict) -> dict:
    """Summary of one workload's pairs.  `runs` holds (base, change) result
    lines in pair order; `metrics` maps each end-to-end metric name to
    "higher" or "lower", the direction that is better."""
    out = {"pairs": len(runs),
           "failed": {side: [r["failed"] for r in column]
                      for side, column in zip(("base", "change"), zip(*runs))},
           "metrics": {}}
    for name, better in metrics.items():
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        won = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
        row = {"unit": runs[0][0]["metrics"][name]["unit"], "better": better,
               "base": spread(base), "change": spread(change), "won": won,
               "runs": {"base": base, "change": change}}
        if row["base"]["median"]:
            row["ratio"] = row["change"]["median"] / row["base"]["median"]
        out["metrics"][name] = row
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    a = ap.parse_args(argv)
    base_sha = subprocess.run(["git", "rev-parse", a.base], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    report = {"base": base_sha, "change": "working tree",
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "seconds": seconds, "seeds": a.seeds, "workloads": {}}
    tmp = tempfile.mkdtemp(prefix="bench-base-")
    sides = {"base": tmp, "change": ROOT}
    try:
        export(base_sha, tmp)
        for workload in workloads:
            runs = []
            for i, seed in enumerate(a.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                result = {side: bench(sides[side], workload, seed, seconds) for side in order}
                runs.append((result["base"], result["change"]))
                sys.stderr.write("%s seed %d: ops_per_s %.4g -> %.4g\n" % (
                    workload, seed, result["base"]["metrics"]["ops_per_s"]["value"],
                    result["change"]["metrics"]["ops_per_s"]["value"]))
            report["workloads"][workload] = summarize(runs, metrics)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as exc:
        sys.stderr.write("bench_pairs: %s\n" % exc)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = os.path.join(ROOT, "BENCH_%s.json" % a.pr)
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    sys.stderr.write("wrote %s\n" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
