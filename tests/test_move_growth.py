"""The move growth probe: a row per length, the fitted exponent, and a usage
error, not a traceback, for bad arguments."""

import importlib.util
import math
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "move_growth.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("move_growth", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_probe(*args):
    return subprocess.run([sys.executable, str(SCRIPT)] + list(args),
                          capture_output=True, text=True)


@pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
def test_the_exponent_of_a_power_law_is_its_power(k):
    rows = [(n, 3 * n ** k) for n in (400, 800, 1600)]
    assert math.isclose(load_probe().exponent(rows), k)


def test_small_lengths_print_a_row_each_and_no_exponent():
    proc = run_probe("--lengths", "8", "4", "16")
    assert proc.returncode == 0, proc.stderr
    header, *rows, fit = proc.stdout.strip().splitlines()
    assert header.split() == ["length", "best_ms"]
    assert [int(row.split()[0]) for row in rows] == [4, 8, 16]
    assert all(float(row.split()[1]) > 0 for row in rows)
    assert fit == "exponent 400..1600: n/a (fewer than two lengths in range)"


@pytest.mark.parametrize("args,shown", [
    (["--lengths", "1"], "--lengths must be at least 2"),
    (["--lengths", "ten"], "--lengths"),
    (["--repeat", "3"], "unrecognized arguments"),
])
def test_bad_arguments_exit_2_with_a_message(args, shown):
    proc = run_probe(*args)
    assert proc.returncode == 2
    assert shown in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
