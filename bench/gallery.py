"""The cli-gallery workload: real `python -m featherline` processes, one at a
time, checked against the golden files and hand-written verdict lines."""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import gen
import layers
from probe import Calibration
from worker import summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
PROBE_EVERY = 4  # invocations per interpreter-start probe
# Wall time of `python -c pass` on the reference machine of probe.NOMINAL_NS.
SPAWN_NOMINAL_NS = 60_000_000


def child_env(root: str) -> dict:
    """The fixed environment of every child process."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.path.join(root, "src"),
            "LC_ALL": "C.UTF-8"}


def check(case: dict, code: int, stdout: bytes, golden: dict) -> bool:
    if code != case["code"]:
        return False
    if "golden" in case:
        return stdout == golden[case["golden"]]
    lines = stdout.decode().splitlines()
    if not lines or not lines[0].startswith("verdict: "):
        return False
    verdict = lines[0][len("verdict: "):]
    if "verdict" in case and verdict != case["verdict"]:
        return False
    if "verdict_prefix" in case and not verdict.startswith(case["verdict_prefix"]):
        return False
    if case.get("verified") and "verified: true" not in lines:
        return False
    if "down_in" in case:
        m = re.fullmatch(r"D\((\S+) @0\)", verdict)
        lo, hi = (Fraction(t) for t in case["down_in"])
        if not m or not lo < Fraction(m.group(1)) < hi or m.group(1) == case["avoid"]:
            return False
    return True


def load_golden(root: str) -> dict:
    out = {}
    for name, _, _ in gen.GOLDEN_DEMOS:
        with open(os.path.join(root, "tests", "golden", name + ".json"), "rb") as f:
            out[name + ".json"] = f.read()
    return out


def invoke(root: str, argv: list, traced: bool):
    """Run one CLI process.  Returns (exit code, stdout, wall ns, trace)."""
    env = child_env(root)
    if traced:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")] + argv
        env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
    else:
        cmd = [sys.executable, "-m", "featherline"] + argv
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
    wall = time.perf_counter_ns() - t0
    trace = None
    if traced:
        last = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
        if last.startswith("BENCH_TRACE "):
            trace = json.loads(last[len("BENCH_TRACE "):])
    return proc.returncode, proc.stdout, wall, trace


def spawn_calibration(root: str) -> Calibration:
    """Calibration whose probe is the wall time of starting a bare
    interpreter, the cost that dominates a CLI invocation."""
    def probe():
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root),
                       check=True, capture_output=True, timeout=60)
        return time.perf_counter_ns() - t0
    return Calibration(probe, SPAWN_NOMINAL_NS)


def setup_time(root: str) -> float:
    """Median wall time of a fresh interpreter importing featherline.cli,
    scaled by the probe run after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import featherline.cli"], cwd=root,
                       env=child_env(root), check=True, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        cal = spawn_calibration(root)
        cal.sample()
        samples.append(elapsed * cal.scale())
    return statistics.median(samples)


def run_passes(root, cases, golden, traced=False, deadline=None, passes=None):
    """Closed loop over whole passes of the gallery, with the probe after
    every PROBE_EVERY invocations.  Returns (records, stdouts, ok flags,
    traces) with records as in worker.run_passes."""
    records, outs, oks, traces = [], [], [], []
    while passes is None or len(records) < passes:
        lat = []
        cal = spawn_calibration(root)
        for i, case in enumerate(cases):
            try:
                code, out, wall, trace = invoke(root, case["argv"], traced)
                ok = check(case, code, out, golden) and (trace is not None or not traced)
            except (subprocess.SubprocessError, OSError, ValueError) as exc:
                out, wall, trace, ok = repr(exc).encode(), 0, None, False
            lat.append(wall)
            outs.append(out)
            oks.append(ok)
            traces.append(trace)
            if i % PROBE_EVERY == 0:
                cal.sample()
        records.append((cal.scale(), lat))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return records, outs, oks, traces


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def measure(root, seed, seconds) -> dict:
    cases = gen.gallery(seed)
    golden = load_golden(root)
    setup_s = setup_time(root)
    records, _, oks, _ = run_passes(root, cases, golden,
                                    deadline=time.perf_counter() + seconds)
    out = summarize(records)
    out.update(setup_s=setup_s, attempted=len(oks), failed=oks.count(False),
               peak_rss_mb=peak_child_rss_mb())
    return out


def trace(root, seed, seconds) -> dict:
    """One untraced pass, then traced passes over the same cases for about
    half the time; stdout must match byte for byte."""
    cases = gen.gallery(seed)
    golden = load_golden(root)
    records, plain, oks, _ = run_passes(root, cases, golden, passes=1)
    plain_s = sum(records[0][1]) / 1e9
    passes = max(1, int(seconds * 0.5 / plain_s))
    t_records, traced, t_oks, traces = run_passes(root, cases, golden, traced=True,
                                                  passes=passes)
    n = len(traced)
    op_ns = sum(x for _, ls in t_records for x in ls)
    snaps = [t["snapshot"] for t in traces if t]
    merged = {key: {} for key in ("calls", "self_ns", "outer_ns", "counters")}
    for snap in snaps:
        for key, table in snap.items():
            for name, v in table.items():
                merged[key][name] = merged[key].get(name, 0) + v
    metrics = layers.from_snapshot(merged, n, op_ns, sum(len(o) for o in traced))
    for stage in layers.CLI_METRICS:
        metrics[stage] = sum(t["stages"][stage] for t in traces if t) / n
    metrics["trace.untraced_ops_per_s"] = len(plain) / plain_s
    metrics["trace.traced_ops_per_s"] = n / (op_ns / 1e9)
    metrics["trace.overhead_ratio"] = (op_ns / n) / (plain_s * 1e9 / len(plain))
    identical = traced == plain * passes
    return {"attempted": len(plain) + n, "failed": oks.count(False) + t_oks.count(False),
            "identical": identical, "metrics": metrics, "sweep": {}}
