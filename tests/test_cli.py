import contextlib
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from featherline import cli
from featherline import kernel as ke

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


def _strings(value):
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from _strings(v)
    elif isinstance(value, list):
        for v in value:
            yield from _strings(v)
    elif isinstance(value, str):
        yield value


def test_every_feather_point_in_the_goldens_parses_back():
    seen = 0
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        for text in _strings(json.loads(path.read_text())):
            if re.fullmatch(r"F\(.*\)", text):
                ke.FEATHER.parse_point(text)
                seen += 1
    assert seen > 50


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


def run_homotopy_trace(args):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "homotopy_trace.py"
    return subprocess.run([sys.executable, str(script)] + args, capture_output=True, text=True)


def test_homotopy_trace_script():
    proc = run_homotopy_trace(["F(0,1,3)", "--steps", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["t,point", '0,"F(0,1,3)"', '1/2,"F(0,1,1)"',
                                        '1,"F(0,0)"', "3/2,F(-1/2)", "2,F(-1)"]


# exit 2 for a point outside the feather, 1 for anything malformed
HOMOTOPY_TRACE_EXIT = {("D(0)",): 2, ("F(1,0)",): 1, ("G(0)",): 1, ("F(0)", "--steps", "0"): 1,
                       ("F(0)", "--steps", "x"): 1, (): 1, ("F(0)", "--frobnicate"): 1}


@pytest.mark.parametrize("args", [list(args) for args in HOMOTOPY_TRACE_EXIT])
def test_homotopy_trace_script_rejects_bad_input(args):
    proc = run_homotopy_trace(args)
    assert proc.returncode == HOMOTOPY_TRACE_EXIT[tuple(args)]
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr


def test_homotopy_trace_script_help_exits_0():
    proc = run_homotopy_trace(["--help"])
    assert proc.returncode == 0 and "usage" in proc.stdout


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


def main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("space", ["line", "doubled", "tripled", "two-origins", "feather"])
def test_theorem2_runs_on_every_space_with_a_pipeline(space):
    code, out, err = main_in_process(["demo", "theorem2", "--space", space, "--format", "json"])
    assert code in (0, 3), err
    stages = json.loads(out)["certificate"]["stages"]
    assert all(stage.get("verified", True) for stage in stages)
    assert all(r["verified"] for stage in stages for r in stage.get("results", ()))


@pytest.mark.parametrize("wave", ["W[(0,1)-{0^2^1}]", "W[(0,1)-{1/2^1^}]", "W[(0,1)-{^^}]"])
def test_lift_entry_with_two_carets_is_a_parse_error(wave):
    code, out, err = main_in_process(["meet", "D", wave, "W[(0,1)-{}]"])
    assert (code, out) == (1, "")
    assert err.startswith("parse error: lift entries look like x^level")


@pytest.mark.parametrize("handle", ["strict-skeleton*flip(0,1x", "strict-skeleton*flip(0,1]",
                                    "strict-skeleton*flip[0,1)"])
def test_skeleton_handle_without_its_closing_parenthesis_is_a_parse_error(handle):
    code, out, err = main_in_process(["microcompact", "F", "F(0,1,1)", handle])
    assert (code, out) == (1, "")
    assert err.startswith("parse error: cannot parse basic open")


@pytest.mark.parametrize("space", ["doubled", "tripled"])
def test_wave_lifting_one_abscissa_to_two_levels_is_rejected(space):
    code, out, err = main_in_process(["meet", space, "W[(0,1)-{1/2^2,1/2^1}]", "W[(0,1)-{}]"])
    assert (code, out) == (2, "")
    assert err == "precondition error: abscissa 1/2 lifted to two levels\n"
    # an identical repeat names one lift
    code, out, err = main_in_process(["meet", space, "W[(0,1)-{1/2^1,1/2^1}]", "W[(0,1)-{}]"])
    assert code == 0, err
    assert out == main_in_process(["meet", space, "W[(0,1)-{1/2^1}]", "W[(0,1)-{}]"])[1]


def test_demo_space_option_is_for_theorem2_only():
    code, out, err = main_in_process(["demo", "feather-twins", "--space", "cofinite"])
    assert (code, out) == (1, "")
    assert "takes no --space" in err


def test_subcover_of_the_line_with_two_origins_covers():
    cover = ["W[(-inf,inf)-{}]", "W[(-inf,inf)-{0^1}]"]
    code, out, _ = main_in_process(["subcover", "two-origins"] + cover + ["--format", "json"])
    report = json.loads(out)
    assert (code, report["verdict"], report["verified"]) == (0, "covers", True)
    assert {"D(0 @0)", "D(0 @1)"} <= set(report["certificate"]["payload"]["probes"])
    for kept in cover:
        code, out, _ = main_in_process(["subcover", "two-origins", kept])
        assert code == 3 and out.startswith("verdict: uncovered")


def test_subcover_of_the_tripled_line_admits_a_level_two_lift():
    code, out, err = main_in_process(["subcover", "tripled", "W[(-inf,inf)-{0^2}]",
                                      "--format", "json"])
    report = json.loads(out)
    assert (code, report["verdict"], report["verified"]) == (3, "uncovered", True), err


# One argv per verb form, and the command its report echoes.
COMMAND_CASES = [
    (["separate", "F", "F(0)", "F(0,0)"], "separate F F(0) F(0,0)"),
    (["twin", "F(0,1)"], "twin F(0,1)"),
    (["flip", "F(0,1)", "F(0,5)"], "flip F(0,1) F(0,5)"),
    (["normalize", "F(0,1,3)"], "normalize F(0,1,3)"),
    (["homotopy", "F", "F(0,2)", "--t", "1"], "homotopy F F(0,2) --t 1"),
    (["chart", "D", "D(0 @1)"], "chart D D(0 @1) --eps 1"),
    (["chart", "feather", "F(0,1)", "--eps=1/2"], "chart feather F(0,1) --eps 1/2"),
    (["meet", "doubled", "W[(-1,1)-{0^1}]", "W[(0,2)-{}]"],
     "meet doubled W[(-1,1)-{0^1}] W[(0,2)-{}]"),
    (["dense", "doubled", "W[(-inf,inf)-{0^1}]", "W[(0,1)-{}]"],
     "dense doubled W[(-inf,inf)-{0^1}] W[(0,1)-{}]"),
    (["converges", "F", "F(0,1)", "F(0,1,1)", "--direction", "below", "--limit", "1"],
     "converges F F(0,1) --limit 1 --direction below F(0,1,1)"),
    (["move", "doubled", "D(0 @0)", "D(1 @1)"], "move doubled D(0 @0) D(1 @1)"),
    (["move", "doubled", "D(0 @0)", "D(1 @1)", "--involutive"],
     "move doubled D(0 @0) D(1 @1) --involutive"),
    (["chain", "tripled", "D(-1 @0)", "D(1 @0)", "--remove", "D(0 @0);D(0 @1)",
      "--window=-5,5"],
     "chain tripled D(-1 @0) D(1 @0) --remove D(0 @0);D(0 @1) --window -5,5"),
    (["chain", "doubled", "D(-1)", "D(1)"], "chain doubled D(-1) D(1) --remove  --window -10,10"),
    (["maximal-hausdorff", "feather", "F(0,0)"], "maximal-hausdorff feather F(0,0)"),
    (["subcover", "doubled", "W[(-inf,inf)-{}]", "W[(-inf,inf)-{1^1}]"],
     "subcover doubled W[(-inf,inf)-{}] W[(-inf,inf)-{1^1}]"),
    (["baire", "cofinite", "--candidates", "5"], "baire cofinite --candidates 5"),
    (["baire", "doubled", "W[(-inf,inf)-{0^1}]", "W[(-inf,inf)-{}]", "--probe", "W[(-1,1)-{}]"],
     "baire doubled --probe W[(-1,1)-{}] W[(-inf,inf)-{0^1}] W[(-inf,inf)-{}]"),
    (["microcompact", "doubled", "D(0 @0)", "W[(-1,1)-{}]"],
     "microcompact doubled D(0 @0) W[(-1,1)-{}]"),
    (["microcompact", "doubled", "D(0 @0)", "W[(-1,1)-{}]", "--depth", "3"],
     "microcompact doubled D(0 @0) W[(-1,1)-{}] --depth 3"),
    (["demo", "two-origins"], "demo two-origins"),
    (["demo", "theorem2"], "demo theorem2 --space line"),
    (["demo", "theorem2", "--space", "doubled"], "demo theorem2 --space doubled"),
]


@pytest.mark.parametrize("argv,command", COMMAND_CASES, ids=[c[1] for c in COMMAND_CASES])
def test_report_echoes_the_command(argv, command):
    code, out, err = main_in_process(argv + ["--format", "json"])
    assert code in (0, 3), err
    assert json.loads(out)["command"] == command


def readme_examples():
    """(argv, verdict or None, exit code) for each line of README's example
    queries; a comment gives the verdict and, if not 0, the exit code."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Example queries:\n\n```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        query, _, comment = line.partition(" #")
        verdict, _, code = comment.strip().partition(" (exit ")
        yield shlex.split(query)[1:], verdict or None, int(code.rstrip(")") or 0)


README_EXAMPLES = list(readme_examples())


def test_readme_lists_nine_example_queries():
    assert len(README_EXAMPLES) == 9


@pytest.mark.parametrize("argv,verdict,code", README_EXAMPLES,
                         ids=[a[0] for a, _, _ in README_EXAMPLES])
def test_readme_example_query(argv, verdict, code):
    got, out, err = main_in_process(argv)
    assert got == code, err
    if verdict is not None:
        assert out.splitlines()[0] == "verdict: " + verdict


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


@pytest.mark.parametrize("args,shown", [
    (["separate", "D", "F(0)", "F(1)"], "not a line point: F(0)"),
    (["separate", "branch", "D(0)", "D(1)"], "not a branch point: D(0)"),
    (["separate", "branch", "N(0)", "N(1)"], "not a branch point: N(0)"),
    (["separate", "D", "B(0,L)", "B(0,R)"], "not a line point: B(0,L)"),
    (["separate", "N", "F(0)", "F(1)"], "not a natural number: F(0)"),
    (["chart", "F", "N(3)"], "not a feather point: N(3)"),
    (["meet", "F", "W[(0,1)-{}]", "W[(0,2)-{}]"], "not a feather basic: W[(0,1)-{}]"),
    (["dense", "N", "W[(0,1)-{}]"], "not a cofinite set: W[(0,1)-{}]"),
    (["move", "branch", "B(1,L)", "B(2,L)"], "move is not implemented for branch"),
    (["move", "N", "N(1)", "N(2)"], "move is not implemented for cofinite"),
    (["converges", "branch", "B(0,L)", "B(0,R)", "--limit", "0", "--direction", "below"],
     "descriptor is not implemented for branch"),
    (["converges", "N", "N(1)", "N(2)", "--limit", "0", "--direction", "below"],
     "descriptor is not implemented for cofinite"),
], ids=["D-feather", "branch-line", "branch-naturals", "D-branch", "N-feather", "chart",
        "meet", "dense", "move-branch", "move-N", "converges-branch", "converges-N"])
def test_wrong_space_input_is_a_precondition_error(args, shown):
    proc = run_cli(args)
    assert proc.returncode == 2, proc.stderr
    assert shown in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ["baire", "N", "--candidates", "0"],
    ["baire", "N", "--candidates=-5"],
    ["microcompact", "D", "D(0)", "W[(-1,1)-{}]", "--depth", "0"],
    ["microcompact", "D", "D(0)", "W[(-1,1)-{}]", "--depth=-3"],
], ids=["candidates-0", "candidates-neg", "depth-0", "depth-neg"])
def test_nonpositive_count_is_a_parse_error(args):
    proc = run_cli(args)
    assert proc.returncode == 1, proc.stderr
    assert "must be at least 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("handle", ["strict-skeleton", "strict-skeleton*flip(0,1)"])
@pytest.mark.parametrize("point", ["F(1,2,5)", "F(0,0)", "F(-1/2,3)"])
def test_microcompact_inside_a_handle_is_a_precondition_error(point, handle):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["microcompact", "F", point, handle])
    assert code == 2
    assert err.getvalue().startswith("precondition error: ")


@pytest.mark.parametrize("space,point", [
    ("D", "D(0)"), ("tripled", "D(1/2 @2)"), ("two-origins", "D(0 @1)"),
])
@pytest.mark.parametrize("eps", ["0", "-1"])
def test_nonpositive_chart_radius_on_the_line_family(space, point, eps):
    proc = run_cli(["chart", space, point, "--eps=" + eps])
    assert proc.returncode == 2, proc.stderr
    assert "chart radius must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("space,point", [
    ("feather", "F(0,1)"), ("branch", "B(0,R)"), ("branch", "B(-1,L)"), ("N", "N(3)"),
])
@pytest.mark.parametrize("eps", ["0", "-1"])
def test_nonpositive_chart_radius_in_every_other_space(space, point, eps):
    code, out, err = main_in_process(["chart", space, point, "--eps=" + eps])
    assert code == 2, err
    assert err == "precondition error: chart radius must be positive\n"
    assert out == ""


@pytest.mark.parametrize("window", ["-1,inf", "-inf,5", "-inf,inf"])
def test_infinite_chain_window_is_a_parse_error(window):
    code, out, err = main_in_process(["chain", "D", "D(0)", "D(3)", "--window=" + window])
    assert code == 1, err
    assert err.startswith("parse error: expected a finite rational, got ")
    assert out == ""


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


# ---------------------------------------------------------------------------
# Fuzzing the whole front end in-process: whatever the argv, `main` returns an
# exit code and lets no exception escape.

VERBS = ["separate", "twin", "flip", "normalize", "homotopy", "chart", "meet", "dense",
         "converges", "move", "chain", "maximal-hausdorff", "subcover", "baire",
         "microcompact", "demo", "frobnicate"]
SPACE_NAMES = ["feather", "F", "line", "doubled", "D", "tripled", "two-origins",
               "branch", "branching-line", "cofinite", "N", "klein-bottle"]
TOKENS = ["F(0)", "F(0,0)", "F(0,1)", "F(0,1,1)", "F(1,2,5)", "F(-1/2,3)",
          "D(0)", "D(0 @1)", "D(1/2 @1)", "D(-1 @2)", "N(0)", "N(3)",
          "B(0,L)", "B(0,R)", "B(1,L)", "B(-1,R)",
          "W[(-1,1)-{0^1}]", "W[(-inf,inf)-{}]", "W[(0,1)u(2,3)-{1/2^1}]", "W[empty-{}]",
          "FI[(0,0);(0,1)]", "FI[(0);(1)]", "BI[(0,2)@L]", "BI[(-1,1)@R]",
          "cofinite-excl{1,2}", "cofinite-excl{}", "cofinite-empty",
          "strict-skeleton", "strict-skeleton*flip(0,1)", "strict-skeleton*flip(0,1x",
          "strict-skeleton*flip(0,1]", "strict-skeleton*flip[0,1)", "0", "1/2", "inf"]
MUTATION_CHARS = "()[]{},;@^-/.u0123456789FDBNWLR "
small = st.integers(-3, 50).map(str)
window_end = small | st.sampled_from(["inf", "-inf"])


@st.composite
def tokens(draw):
    tok = draw(st.sampled_from(TOKENS))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tok)))
        c = draw(st.sampled_from(MUTATION_CHARS))
        tok = draw(st.sampled_from([tok[:i] + c + tok[i:], tok[:i] + c + tok[i + 1:],
                                    tok[:i] + tok[i + 1:]]))
    return tok


OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--candidates", "--depth", "--eps", "--t", "--limit",
                               "--index"]), small),
    st.tuples(st.just("--direction"), st.sampled_from(["below", "above", "sideways"])),
    st.tuples(st.sampled_from(["--probe", "--eps", "--limit"]), tokens()),
    st.tuples(st.just("--window"), st.tuples(window_end, window_end).map(",".join)),
    st.tuples(st.just("--remove"), st.lists(tokens(), min_size=1, max_size=2).map(";".join)),
    st.tuples(st.just("--space"), st.sampled_from(SPACE_NAMES)),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json"])),
).map("=".join) | st.just("--involutive")


ARGVS = st.one_of(
    st.builds(lambda verb, first, rest, options: [verb, first] + rest + options,
              st.sampled_from(VERBS),
              st.one_of(st.sampled_from(SPACE_NAMES),
                        st.sampled_from(list(cli.DEMOS) + ["nope"]), tokens()),
              st.lists(tokens(), max_size=3), st.lists(OPTIONS, max_size=3)),
    # microcompact F <point> <handle>: a handle as the enclosing basic
    st.builds(lambda point, handle, options: ["microcompact", "F", point, handle] + options,
              st.sampled_from([t for t in TOKENS if t.startswith("F(")]),
              st.sampled_from([t for t in TOKENS if t.startswith("strict-skeleton")]),
              st.lists(OPTIONS, max_size=1)),
    # meet <space> <wave with a lift entry of several carets> <wave>
    st.builds(lambda space, x, js, second: ["meet", space, "W[(0,1)-{%s^%s}]" % (x, "^".join(js)),
                                            second],
              st.sampled_from(SPACE_NAMES), st.sampled_from(["0", "1/2", ""]),
              st.lists(small, min_size=2, max_size=3), tokens()),
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(ARGVS)
def test_main_returns_an_exit_code_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
