"""Traced stand-in for `python -m featherline ARGS...`.

Runs `featherline.cli.main(ARGS)` unchanged, so stdout and the exit code are
those of the real command, and times the stages of the process.  The last
line of stderr is `BENCH_TRACE <json>` with the stage times and the layer
tracer's counts.  The parent passes its spawn time (time.monotonic_ns) in
BENCH_SPAWN_NS.
"""

import time

_START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from layertrace import LayerTracer  # noqa: E402


def _timed(fn, key, times):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            times[key] += time.perf_counter_ns() - t0
    return wrapper


def main(argv) -> int:
    times = {"parse_args": 0, "render": 0}
    t0 = time.perf_counter_ns()
    import featherline.cli as cli
    import_ns = time.perf_counter_ns() - t0
    tracer = LayerTracer()
    tracer.install()
    build_parser, render = cli.build_parser, cli._render

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = _timed(parser.parse_args, "parse_args", times)
        return parser

    cli.build_parser = _timed(traced_build_parser, "parse_args", times)
    cli._render = _timed(render, "render", times)
    try:
        code = cli.main(argv)
    finally:
        cli.build_parser, cli._render = build_parser, render
        tracer.uninstall()
    sys.stdout.flush()
    snap = tracer.snapshot()
    handler_ns = sum(ns for name, ns in snap["outer_ns"].items()
                     if name.startswith("cli.cmd_"))
    stages = {
        "process.startup_ms": (_START_NS - int(os.environ["BENCH_SPAWN_NS"])) / 1e6,
        "cli.import_ms": import_ns / 1e6,
        "cli.parse_args_ms": times["parse_args"] / 1e6,
        "cli.handler_ms": handler_ns / 1e6,
        "cli.render_ms": times["render"] / 1e6,
    }
    sys.stderr.write("BENCH_TRACE %s\n" % json.dumps({"stages": stages, "snapshot": snap}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
