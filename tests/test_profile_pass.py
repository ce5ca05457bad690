"""The one-pass profiler's `--callers` listing, its count of `Fraction`
arithmetic calls and its table of op kinds."""

import importlib.util
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "profile_pass.py"


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


def test_the_fraction_arithmetic_count_is_the_operator_calls_listed():
    proc = run_profile("--callers", r"fractions\.py:\d+\((forward|reverse)\)$")
    assert proc.returncode == 0, proc.stderr
    summary = re.search(r"^fractions\.py share of self time: [\d.]+%, (\d+) Fraction arithmetic"
                        r" calls$", proc.stdout, re.M)
    listed = re.findall(r"^callers of (?:forward|reverse)\(fractions\.py:\d+\): (\d+) calls",
                        proc.stdout, re.M)
    assert summary and listed
    assert int(summary.group(1)) == sum(map(int, listed))


def test_callers_reports_a_pattern_that_matches_nothing():
    proc = run_profile("--callers", "no_such_function_anywhere")
    assert proc.returncode == 0 and "no function matches" in proc.stdout


def test_callers_rejects_a_malformed_pattern():
    proc = run_profile("--callers", "(")
    assert proc.returncode == 2 and "--callers" in proc.stderr and proc.stdout == ""


def test_the_op_kind_table_splits_one_timed_pass_by_the_pool_s_kinds():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    proc = run_profile()
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("\nop kinds: ")[1]
    header, columns, *rows = table.strip().splitlines()
    assert re.fullmatch(r"one timed pass without the profiler, [\d.]+ ms", header)
    assert columns.split() == ["kind", "ops", "mean_ms", "share"]
    cells = [re.fullmatch(r"(\w+) +(\d+) +([\d.]+) +([\d.]+)%", row).groups() for row in rows]
    pool = [op["kind"] for rnd in gen.pool("feather-deep", 7) for op in rnd]
    assert {kind: int(n) for kind, n, _, _ in cells} == {k: pool.count(k) for k in set(pool)}
    # the means times the counts add up to the pass, to their rounding
    wall = float(header.split()[-2])
    summed = sum(int(n) * float(mean) for _, n, mean, _ in cells)
    assert abs(summed - wall) <= 0.05 + len(pool) / 2000
    shares = [float(share) for *_, share in cells]
    assert shares == sorted(shares, reverse=True)
    assert abs(sum(shares) - 100) <= 0.05 * len(shares)  # each share is rounded to 0.1
