import json
import pathlib
import subprocess
import sys

import pytest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

DEMO_CASES = [
    ("two-origins.json", ["demo", "two-origins"], 0),
    ("branching-line.json", ["demo", "branching-line"], 0),
    ("feather-homogeneity.json", ["demo", "feather-homogeneity"], 0),
    ("feather-contraction.json", ["demo", "feather-contraction"], 0),
    ("feather-twins.json", ["demo", "feather-twins"], 0),
    ("doubled-line.json", ["demo", "doubled-line"], 0),
    ("involutorial.json", ["demo", "involutorial"], 0),
    ("fuks-rokhlin.json", ["demo", "fuks-rokhlin"], 0),
    ("lemma-zorn.json", ["demo", "lemma-zorn"], 0),
    ("theorem2-line.json", ["demo", "theorem2", "--space", "line"], 0),
    ("theorem2-doubled.json", ["demo", "theorem2", "--space", "doubled"], 3),
    ("theorem2-feather.json", ["demo", "theorem2", "--space", "feather"], 3),
    ("lindelof-failure.json", ["demo", "lindelof-failure"], 3),
    ("cofinite-not-baire.json", ["demo", "cofinite-not-baire"], 3),
    ("microcompact.json", ["demo", "microcompact"], 0),
]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "featherline"] + args,
                          capture_output=True, text=True)


@pytest.mark.parametrize("golden,args,code", DEMO_CASES,
                         ids=[c[0][:-5] for c in DEMO_CASES])
def test_demo_matches_golden_file(golden, args, code):
    proc = run_cli(args + ["--format", "json"])
    assert proc.returncode == code, proc.stderr
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert proc.stdout.encode() == expected


@pytest.mark.parametrize("golden,args,code", DEMO_CASES[:3],
                         ids=[c[0][:-5] for c in DEMO_CASES[:3]])
def test_demo_output_is_byte_stable(golden, args, code):
    a = run_cli(args + ["--format", "json"]).stdout
    b = run_cli(args + ["--format", "json"]).stdout
    assert a == b


def test_report_schema():
    proc = run_cli(["demo", "feather-twins", "--format", "json"])
    report = json.loads(proc.stdout)
    assert set(report) >= {"command", "verdict", "certificate", "citations"}
    assert isinstance(report["citations"], list)


def test_separate_twin_pair_exit_code():
    proc = run_cli(["separate", "F", "F(0)", "F(0,0)"])
    assert proc.returncode == 3
    assert "NOT separable: twin pair" in proc.stdout


def test_homotopy_example():
    proc = run_cli(["homotopy", "F", "F(0,2)", "--t", "1"])
    assert proc.returncode == 0
    assert "F(0,0)" in proc.stdout.splitlines()[0]


def test_parse_error_exit_code():
    proc = run_cli(["separate", "F", "F(0", "F(1)"])
    assert proc.returncode == 1
    assert "parse error" in proc.stderr


def test_precondition_error_exit_code():
    proc = run_cli(["separate", "F", "F(0)", "F(0)"])
    assert proc.returncode == 2
    assert "precondition error" in proc.stderr


def test_unknown_verb_rejected():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 1


def test_unknown_demo_rejected():
    proc = run_cli(["demo", "no-such-demo"])
    assert proc.returncode == 1


def test_invalid_point_in_valid_syntax():
    proc = run_cli(["twin", "F(0,0,0)"])
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ["chart", "F", "F(0)", "--eps", "inf"],
    ["homotopy", "F", "F(0)", "--t", "inf"],
    ["separate", "D", "D(inf)", "D(1)"],
    ["separate", "D", "D(0 @x)", "D(1)"],
    ["separate", "N", "N(a)", "N(1)"],
    ["converges", "F", "F(0,1)", "--limit=-inf", "--direction", "below", "F(0,1)"],
    ["separate", "branch", "B(0)", "B(1,L)"],
    ["chain", "doubled", "D(0)", "D(1)", "--window=1"],
    ["baire", "doubled", "W[(-inf,inf)-{}]"],
], ids=["eps-inf", "t-inf", "D-inf", "D-level", "N-text", "limit-inf", "B-side",
        "window", "no-probe"])
def test_malformed_scalar_is_a_parse_error(args):
    proc = run_cli(args)
    assert proc.returncode == 1, proc.stderr
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["separate", "N", "N(-3)", "N(1)"],
    ["meet", "N", "cofinite-excl{-1}", "cofinite-excl{2}"],
], ids=["point", "excluded"])
def test_integer_outside_the_naturals_rejected(args):
    proc = run_cli(args)
    assert proc.returncode == 1
    assert "is not a natural number" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args,shown", [
    (["subcover", "doubled", "W[(0,1)-{}]"], "chosen basic W[(0,1)-{}] is not in the cover"),
    (["microcompact", "feather", "F(0)", "W[(-1,1)-{0^1}]"],
     "not a feather basic: W[(-1,1)-{0^1}]"),
    (["microcompact", "doubled", "D(0)", "cofinite-excl{1}"], "not a wave: cofinite-excl{1}"),
], ids=["subcover", "feather-member", "wave-member"])
def test_precondition_message_shows_the_basic_in_input_syntax(args, shown):
    proc = run_cli(args)
    assert proc.returncode == 2
    assert shown in proc.stderr
    assert "Wave(" not in proc.stderr and "SpaceSpec(" not in proc.stderr


def test_chain_inconclusive_exit_code():
    proc = run_cli(["chain", "two-origins", "D(-1 @0)", "D(1 @0)",
                    "--remove", "D(0 @0);D(0 @1)", "--window=-5,5"])
    assert proc.returncode == 3
    assert "inconclusive" in proc.stdout


def test_every_printed_certificate_reverifies():
    # sample across verbs: each emitted certificate carries verified: true
    cases = [
        ["separate", "doubled", "D(0 @0)", "D(1 @1)"],
        ["move", "doubled", "D(0 @0)", "D(1 @1)", "--involutive"],
        ["chain", "tripled", "D(-1 @0)", "D(1 @0)",
         "--remove", "D(0 @0);D(0 @1)", "--window=-5,5"],
        ["maximal-hausdorff", "feather", "F(0,0)"],
        ["microcompact", "doubled", "D(0 @0)", "W[(-1,1)-{}]"],
    ]
    for args in cases:
        proc = run_cli(args + ["--format", "json"])
        report = json.loads(proc.stdout)
        assert report["verified"] is True, args
