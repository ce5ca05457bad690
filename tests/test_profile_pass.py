"""The one-pass profiler's `--callers` listing."""

import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "profile_pass.py"


def run_profile(*args):
    return subprocess.run([sys.executable, str(SCRIPT), "--workload", "feather-deep",
                           "--seed", "7", "--top", "3"] + list(args),
                          capture_output=True, text=True)


def test_callers_lists_each_matching_function_with_its_callers():
    proc = run_profile("--callers", r"feather\.py:\d+\((arms_meet|fp_chart)\)$")
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("\ncallers of ")[1:]
    assert sorted(block.split("(")[0] for block in blocks) == ["arms_meet", "fp_chart"]
    for block in blocks:
        header, *callers = block.strip().splitlines()
        assert re.fullmatch(r"\w+\(src/featherline/feather\.py:\d+\): \d+ calls, [\d.]+ s self",
                            header)
        assert callers and all(re.fullmatch(r" *\d+  \S.*", line) for line in callers)
        assert sum(int(line.split()[0]) for line in callers) == int(header.split()[1])


def test_callers_reports_a_pattern_that_matches_nothing():
    proc = run_profile("--callers", "no_such_function_anywhere")
    assert proc.returncode == 0 and "no function matches" in proc.stdout


def test_callers_rejects_a_malformed_pattern():
    proc = run_profile("--callers", "(")
    assert proc.returncode == 2 and "--callers" in proc.stderr and proc.stdout == ""
