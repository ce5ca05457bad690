"""The per-layer metrics and how each is derived from a tracer snapshot.

Counts and self times are normalised per op.  Parse metrics of the
in-process workloads are normalised per built op, because parsing happens
while the inputs are built, before the timed loop.
"""

from __future__ import annotations

import math

# (metric, span, statistic)
SPAN_METRICS = [
    ("feather.fp_validate.calls", "feather.fp_validate", "calls"),
    ("feather.fp_validate.self_ms", "feather.fp_validate", "self_ms"),
    ("feather.flip_apply.calls", "feather.flip_apply", "calls"),
    ("feather.flip_apply.self_ms", "feather.flip_apply", "self_ms"),
    ("feather.fp_chart.calls", "feather.fp_chart", "calls"),
    ("feather.fp_chart.self_ms", "feather.fp_chart", "self_ms"),
    ("feather.meet_arms.calls", "feather.meet_arms", "calls"),
    ("feather.meet_arms.self_ms", "feather.meet_arms", "self_ms"),
    ("feather.normalize_arms.calls", "feather.normalize_arms", "calls"),
    ("feather.normalize_arms.self_ms", "feather.normalize_arms", "self_ms"),
    ("feather.interval_arms.calls", "feather.interval_arms", "calls"),
    ("feather.fp_move.self_ms", "feather.fp_move", "self_ms"),
    ("feather.replay.self_ms", "feather.replay", "self_ms"),
    ("multiline.wave_init.calls", "multiline.wave_init", "calls"),
    ("multiline.wave_init.self_ms", "multiline.wave_init", "self_ms"),
    ("multiline.lift_map.calls", "multiline.lift_map", "calls"),
    ("multiline.wave_contains.calls", "multiline.wave_contains", "calls"),
    ("multiline.wave_contains.self_ms", "multiline.wave_contains", "self_ms"),
    ("multiline.wave_meet.calls", "multiline.wave_meet", "calls"),
    ("multiline.wave_meet.self_ms", "multiline.wave_meet", "self_ms"),
    ("multiline.down_projection.calls", "multiline.down_projection", "calls"),
    ("multiline.down_projection.self_ms", "multiline.down_projection", "self_ms"),
    ("multiline.chain_connect.self_ms", "multiline.chain_connect", "self_ms"),
    ("intervals.iset_remove_point.calls", "intervals.iset_remove_point", "calls"),
    ("intervals.iset_remove_point.self_ms", "intervals.iset_remove_point", "self_ms"),
    ("intervals.iset_meet.calls", "intervals.iset_meet", "calls"),
    ("intervals.iset_meet.self_ms", "intervals.iset_meet", "self_ms"),
    ("intervals.iset_union.calls", "intervals.iset_union", "calls"),
    ("intervals.iset_union.self_ms", "intervals.iset_union", "self_ms"),
    ("intervals.canon_intervals.calls", "intervals.canon_intervals", "calls"),
    ("intervals.canon_intervals.self_ms", "intervals.canon_intervals", "self_ms"),
    ("intervals.contains.calls", "intervals.contains", "calls"),
    ("kernel.separable.calls", "kernel.separable", "calls"),
    ("kernel.separable.self_ms", "kernel.separable", "self_ms"),
    ("kernel.bounded_refuter.calls", "kernel.bounded_refuter", "calls"),
    ("kernel.bounded_refuter.self_ms", "kernel.bounded_refuter", "self_ms"),
    ("kernel.meet_is_empty.calls", "kernel.meet_is_empty", "calls"),
    ("kernel.verify_certificate.calls", "kernel.verify_certificate", "calls"),
    ("kernel.verify_certificate.self_ms", "kernel.verify_certificate", "self_ms"),
    ("kernel.dense.self_ms", "kernel.dense", "self_ms"),
    ("separation.maximal_hausdorff_at.self_ms", "separation.maximal_hausdorff_at", "self_ms"),
    ("separation.subcover_attempt.self_ms", "separation.subcover_attempt", "self_ms"),
    ("separation.baire_intersect.self_ms", "separation.baire_intersect", "self_ms"),
    ("separation.theorem_pipeline.self_ms", "separation.theorem_pipeline", "self_ms"),
    ("syntax.jsonable.calls", "syntax.jsonable", "calls"),
    ("syntax.jsonable.self_ms", "syntax.jsonable", "self_ms"),
]
PARSE_METRICS = [
    ("syntax.parse_point.self_ms", "syntax.parse_point"),
    ("syntax.parse_basic.self_ms", "syntax.parse_basic"),
]
DERIVED = [
    "kernel.verify_certificate.rejected",
    "kernel.refuter_probes_per_call",
    "kernel.charts_per_separation",
    "kernel.verify_share",
    "syntax.render_bytes",
]
CLI_METRICS = ["process.startup_ms", "cli.import_ms", "cli.parse_args_ms",
               "cli.handler_ms", "cli.render_ms"]
TRACE_METRICS = ["trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.overhead_ratio"]

# Growth sweep: op kind -> sizes, and the layers whose growth is reported.
SWEEP_SIZES = {"move": (3, 30, 300), "wave_meet": (10, 100, 1000), "dense": (10, 100, 1000)}
SWEEP_LAYERS = {"move": ("feather.fp_validate", "feather.flip_apply"),
                "wave_meet": ("intervals.iset_remove_point",),
                "dense": ("intervals.iset_remove_point",)}
SWEEP_METRICS = (["sweep.%s.%s.%s_exp" % (op, layer, stat)
                  for op, layers in SWEEP_LAYERS.items() for layer in layers
                  for stat in ("calls", "self_ms")]
                 + ["sweep.%s.op_ms_exp" % op for op in SWEEP_SIZES])


def names() -> list:
    """Every per-layer metric, in report order."""
    return ([m for m, _, _ in SPAN_METRICS] + [m for m, _ in PARSE_METRICS] + DERIVED
            + CLI_METRICS + TRACE_METRICS + SWEEP_METRICS)


def unit(name: str) -> str:
    if name.endswith("_exp"):
        return "exponent"
    if name.endswith(".calls") or name.endswith(".rejected"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return {"kernel.refuter_probes_per_call": "count",
            "kernel.charts_per_separation": "count",
            "kernel.verify_share": "ratio",
            "syntax.render_bytes": "bytes",
            "trace.untraced_ops_per_s": "1/s",
            "trace.traced_ops_per_s": "1/s",
            "trace.overhead_ratio": "ratio"}[name]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def from_snapshot(snap: dict, n_ops: int, op_ns: int, render_bytes: int,
                  parse_snap: dict = None, n_parsed: int = 0) -> dict:
    """Per-layer values of one traced pass.  `snap` holds the op pass's
    tracer counts; parse metrics come from `parse_snap` normalised by
    `n_parsed` when given (in-process workloads), else from `snap`."""
    calls, self_ns, outer_ns, counters = (snap["calls"], snap["self_ns"],
                                          snap["outer_ns"], snap["counters"])
    out = {}
    for metric, span, stat in SPAN_METRICS:
        if stat == "calls":
            out[metric] = _ratio(calls.get(span, 0), n_ops)
        else:
            out[metric] = _ratio(self_ns.get(span, 0) / 1e6, n_ops)
    psnap, pn = (parse_snap, n_parsed) if parse_snap is not None else (snap, n_ops)
    for metric, span in PARSE_METRICS:
        out[metric] = _ratio(psnap["self_ns"].get(span, 0) / 1e6, pn)
    out["kernel.verify_certificate.rejected"] = _ratio(
        counters.get("kernel.verify_certificate.rejected", 0), n_ops)
    out["kernel.refuter_probes_per_call"] = _ratio(
        counters.get("kernel.meet_is_empty<kernel.bounded_refuter", 0),
        calls.get("kernel.bounded_refuter", 0))
    out["kernel.charts_per_separation"] = _ratio(
        counters.get("feather.fp_chart<kernel.separable", 0),
        counters.get("kernel.separable.true", 0))
    out["kernel.verify_share"] = _ratio(outer_ns.get("kernel.verify_certificate", 0), op_ns)
    out["syntax.render_bytes"] = _ratio(render_bytes, n_ops)
    return out


def growth_exponent(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size); 0 when any
    value is 0."""
    if not all(v > 0 for v in values):
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
