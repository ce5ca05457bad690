"""One in-process workload in a fresh interpreter.

    python worker.py --workload feather-deep --seed 1 --seconds 20 --mode measure

Modes:
  setup    import featherline and build the inputs; report the time taken
  measure  setup, then the untraced closed loop; end-to-end numbers
  trace    setup, an untraced and a traced pass over the same ops (outputs
           must be byte-identical), then the growth sweep; per-layer numbers

Prints one JSON object as the last line of stdout.  featherline must be
importable (the caller puts the checkout's `src` on PYTHONPATH); this script
does not import it before the setup timer starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import gen
import layers
from probe import Calibration

SETUP_PROBES = 16


def setup(workload: str, seed: int, tracer=None):
    """Import the engine and build the pool.  Returns (built rounds, seconds
    scaled to the nominal machine, parse snapshot or None)."""
    specs = gen.pool(workload, seed)
    t0 = time.perf_counter()
    import ops  # imports featherline, which set-up time includes
    parse_snap = None
    if tracer is not None:
        tracer.install()
    built = [[ops.build(spec) for spec in rnd] for rnd in specs]
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        parse_snap = tracer.snapshot()
        tracer.uninstall()
    cal = Calibration()
    for _ in range(SETUP_PROBES):
        cal.sample()
    return built, elapsed * cal.scale(), parse_snap


def run_passes(built, deadline=None, passes=None, keep_texts=False):
    """Closed loop with one client over whole passes of the pool, until the
    deadline has passed or `passes` passes ran.  The probe runs after every
    round.  Returns (per-pass records, texts, ok flags); a record is
    (probe scale, [latency ns])."""
    import ops
    records, texts, oks = [], [], []
    clock = time.perf_counter_ns
    while passes is None or len(records) < passes:
        lat = []
        cal = Calibration()
        for rnd in built:
            for kind, args, expect in rnd:
                t0 = clock()
                try:
                    text, ok = ops.run(kind, args, expect)
                except Exception as exc:  # a failed op, not a harness error
                    text, ok = "error: %r" % (exc,), False
                lat.append(clock() - t0)
                if keep_texts:
                    texts.append(text)
                oks.append(ok)
            cal.sample()
        records.append((cal.scale(), lat))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return records, texts, oks


def summarize(records) -> dict:
    """Every pass runs the same ops in the same order.  An op's latency is
    the median over the passes of its probe-scaled latency, which drift and
    spikes of the shared machine move little; ops_per_s is the number of
    ops in a pass over the sum of those medians, and the percentiles are
    taken over them, interpolating between neighbouring ops."""
    scaled = [[x * scale for x in lat] for scale, lat in records]
    lat = [statistics.median(reps) for reps in zip(*scaled)]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"ops_per_s": len(lat) / (sum(lat) / 1e9),
            "op_p50_ms": deciles[4] / 1e6,
            "op_p90_ms": deciles[8] / 1e6}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed, seconds) -> dict:
    built, setup_s, _ = setup(workload, seed)
    records, _, oks = run_passes(built, deadline=time.perf_counter() + seconds)
    out = summarize(records)
    out.update(setup_s=setup_s, attempted=len(oks), failed=oks.count(False),
               peak_rss_mb=peak_rss_mb())
    return out


def trace(workload, seed, seconds) -> dict:
    from layertrace import LayerTracer
    tracer = LayerTracer()
    built, _, parse_snap = setup(workload, seed, tracer)
    n_parsed = sum(len(r) for r in built)
    records, plain, oks = run_passes(
        built, deadline=time.perf_counter() + seconds / 4, keep_texts=True)
    tracer.install()
    tracer.reset()
    t_records, traced, t_oks = run_passes(built, passes=len(records), keep_texts=True)
    snap = tracer.snapshot()
    tracer.uninstall()
    n = len(plain)
    plain_ns = sum(x for _, ls in records for x in ls)
    op_ns = sum(x for _, ls in t_records for x in ls)
    metrics = layers.from_snapshot(snap, n, op_ns, sum(len(t) for t in traced),
                                   parse_snap, n_parsed)
    metrics["trace.untraced_ops_per_s"] = n / (plain_ns / 1e9)
    metrics["trace.traced_ops_per_s"] = n / (op_ns / 1e9)
    metrics["trace.overhead_ratio"] = op_ns / plain_ns
    sweep_metrics, table = growth_sweep(workload, seed, tracer)
    metrics.update(sweep_metrics)
    return {"attempted": 2 * n, "failed": oks.count(False) + t_oks.count(False),
            "identical": plain == traced, "metrics": metrics, "sweep": table}


def growth_sweep(workload, seed, tracer):
    """Trace single ops at growing sizes.  Returns (exponent metrics, table)."""
    import ops
    targets = {"feather-deep": ("move",), "wave-wide": ("wave_meet", "dense")}[workload]
    g = gen.Gen(seed)
    metrics, table = {}, {}
    for op in targets:
        sizes = layers.SWEEP_SIZES[op]
        rows = []
        for size in sizes:
            spec = (gen.feather_op(g, op, size, 0) if op == "move"
                    else gen.wave_op(g, op, size, 0))
            built = ops.build(spec)
            tracer.install()
            tracer.reset()
            t0 = time.perf_counter_ns()
            ops.run(*built)
            total = time.perf_counter_ns() - t0
            snap = tracer.snapshot()
            tracer.uninstall()
            rows.append({"size": size, "op_ms": total / 1e6,
                         "calls": {k: v for k, v in snap["calls"].items() if v},
                         "self_ms": {k: v / 1e6 for k, v in snap["self_ns"].items() if v}})
        exponents = {
            layer: {stat: layers.growth_exponent(sizes, [row[stat].get(layer, 0) for row in rows])
                    for stat in ("calls", "self_ms")}
            for layer in rows[0]["calls"] if all(layer in row["calls"] for row in rows)}
        table[op] = {"rows": rows, "exponents": exponents}
        for layer in layers.SWEEP_LAYERS[op]:
            for stat in ("calls", "self_ms"):
                metrics["sweep.%s.%s.%s_exp" % (op, layer, stat)] = exponents.get(
                    layer, {}).get(stat, 0.0)
        metrics["sweep.%s.op_ms_exp" % op] = layers.growth_exponent(
            sizes, [row["op_ms"] for row in rows])
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("feather-deep", "wave-wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    a = ap.parse_args(argv)
    if a.mode == "setup":
        _, setup_s, _ = setup(a.workload, a.seed)
        out = {"setup_s": setup_s}
    elif a.mode == "measure":
        out = measure(a.workload, a.seed, a.seconds)
    else:
        out = trace(a.workload, a.seed, a.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
