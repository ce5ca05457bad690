"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import gallery  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import worker  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

IN_PROCESS = ("feather-deep", "wave-wide")


def _texts(workload, seed, rounds=2):
    built = [[ops.build(s) for s in rnd] for rnd in gen.pool(workload, seed, rounds)]
    _, texts, oks = worker.run_passes(built, passes=1, keep_texts=True)
    assert all(oks)
    return texts


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_same_seed_same_inputs_and_outputs(workload):
    assert gen.pool(workload, 7, 3) == gen.pool(workload, 7, 3)
    assert gen.pool(workload, 7, 3) != gen.pool(workload, 8, 3)
    assert _texts(workload, 7) == _texts(workload, 7)


def test_gallery_seeded():
    assert gen.gallery(3) == gen.gallery(3)
    assert gen.gallery(3) != gen.gallery(4)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_traced_outputs_identical(workload):
    built = [[ops.build(s) for s in rnd] for rnd in gen.pool(workload, 5, 2)]
    _, plain, _ = worker.run_passes(built, passes=1, keep_texts=True)
    tracer = LayerTracer()
    tracer.install()
    try:
        _, traced, _ = worker.run_passes(built, passes=1, keep_texts=True)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sum(tracer.calls.values()) > 0


def test_uninstall_restores_every_attribute():
    import featherline.cli  # noqa: F401  (the tracer wraps every loaded module)
    tracer = LayerTracer()
    tracer.install()
    wrapped = list(tracer.installed)
    assert len(wrapped) > 100
    assert all(vars(owner)[attr] is not original for owner, attr, original in wrapped)
    tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in wrapped)
    for name, mod in list(sys.modules.items()):
        if name.startswith("featherline"):
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for value in vars(owner).values():
                    assert not hasattr(value, "span_name"), (name, value)


def test_every_per_layer_metric_is_nonzero_somewhere():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert declared == layers.names()
    seen = set()
    for workload in IN_PROCESS:
        out = worker.trace(workload, 3, 0.5)
        assert out["identical"] and out["failed"] == 0
        seen |= {k for k, v in out["metrics"].items() if v}
    out = gallery.trace(ROOT, 3, 0.1)
    assert out["identical"] and out["failed"] == 0
    seen |= {k for k, v in out["metrics"].items() if v}
    assert set(declared) - seen == set()


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_wrong_expected_verdict_counts_as_failed(workload):
    rnd = [ops.build(s) for s in gen.pool(workload, 2, 1)[0]]
    kind, args, expect = rnd[0]
    rnd[0] = (kind, args, dict(expect, verdict="no such verdict"))
    _, _, oks = worker.run_passes([rnd], passes=1)
    assert oks.count(False) == 1


def test_wrong_gallery_verdict_counts_as_failed():
    case = next(c for c in gen.gallery(1) if c["name"] == "separate-F-twins")
    out = b"verdict: NOT separable: twin pair\n"
    assert gallery.check(case, 3, out, {})
    assert not gallery.check(dict(case, verdict="separable"), 3, out, {})
    assert not gallery.check(case, 0, out, {})
    demo = next(c for c in gen.gallery(1) if "golden" in c)
    golden = gallery.load_golden(ROOT)
    assert not gallery.check(demo, demo["code"], golden[demo["golden"]] + b" ", golden)
