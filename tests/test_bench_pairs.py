"""The pair-run tool's summary: medians, quartiles and pairs won."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _result(ops, p90, failed=0):
    return {"failed": failed, "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                          "op_p90_ms": {"value": p90, "unit": "ms"}}}


def test_summary_counts_wins_in_the_better_direction():
    runs = [(_result(100, 2.0), _result(200, 1.0)),
            (_result(110, 2.0), _result(105, 2.0)),  # a loss, and a tie
            (_result(90, 3.0), _result(180, 1.5, failed=1)),
            (_result(120, 1.0), _result(240, 0.5))]
    out = bench_pairs.summarize(runs, {"ops_per_s": "higher", "op_p90_ms": "lower"})
    assert out["pairs"] == 4
    assert out["failed"] == {"base": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    ops = out["metrics"]["ops_per_s"]
    assert (ops["won"], ops["unit"], ops["better"]) == (3, "1/s", "higher")
    assert ops["base"] == {"median": 105, "q1": 97.5, "q3": 112.5}
    assert ops["change"]["median"] == 190
    assert ops["ratio"] == pytest.approx(190 / 105)
    assert ops["runs"] == {"base": [100, 110, 90, 120], "change": [200, 105, 180, 240]}
    assert out["metrics"]["op_p90_ms"]["won"] == 3


def test_spread_of_one_run_is_that_run():
    assert bench_pairs.spread([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}
