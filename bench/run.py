#!/usr/bin/env python3
"""The featherline benchmark.  Run from the root of a checkout:

    python3 bench/run.py --workload feather-deep --seed 1 --seconds 20 --trace 0

Workloads: cli-gallery, feather-deep, wave-wide (see bench/README.md).
With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics, and an earlier line holds the
growth sweep.  Exits 2 without a result when the checkout has no engine
sources or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import gallery
import layers

WORKLOADS = ("cli-gallery", "feather-deep", "wave-wide")
SETUP_WORKERS = 4  # extra fresh processes timing set-up, besides the measuring one
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(root: str, args: list) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(gallery.BENCH_DIR, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=root, env=gallery.child_env(root),
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError("worker %s failed:\n%s" % (" ".join(args), proc.stderr.decode()))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def warm(root: str):
    """Untimed pass that compiles the .pyc files of the engine and the bench."""
    code = "import featherline.cli, sys; sys.path.insert(0, %r); import ops" % gallery.BENCH_DIR
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=gallery.child_env(root), capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError("cannot import featherline from %s/src:\n%s"
                         % (root, proc.stderr.decode()))


def measure(root, workload, seed, seconds) -> dict:
    if workload == "cli-gallery":
        out = gallery.measure(root, seed, seconds)
    else:
        common = ["--workload", workload, "--seed", str(seed)]
        setups = [run_worker(root, common + ["--mode", "setup"])["setup_s"]
                  for _ in range(SETUP_WORKERS)]
        out = run_worker(root, common + ["--seconds", str(seconds), "--mode", "measure"])
        setups.append(out["setup_s"])
        setups.sort()
        out["setup_s"] = setups[len(setups) // 2]
    metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def trace(root, workload, seed, seconds) -> dict:
    if workload == "cli-gallery":
        out = gallery.trace(root, seed, seconds)
    else:
        out = run_worker(root, ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--mode", "trace"])
    print(json.dumps({"sweep": out["sweep"]}))
    values = dict.fromkeys(layers.names(), 0.0)
    values.update(out["metrics"])
    metrics = {name: {"value": values[name], "unit": layers.unit(name)}
               for name in layers.names()}
    return {"correct": out["failed"] == 0 and out["identical"],
            "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    root = os.getcwd()
    for required in (os.path.join("src", "featherline", "cli.py"),
                     os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(root, required)):
            sys.stderr.write("bench: %s not found; run from the root of a "
                             "featherline checkout\n" % required)
            return 2
    try:
        warm(root)
        if a.trace:
            result = trace(root, a.workload, a.seed, a.seconds)
        else:
            result = measure(root, a.workload, a.seed, a.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2
    print(json.dumps({"env": {"python": platform.python_version(),
                              "nproc": len(os.sched_getaffinity(0))}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
