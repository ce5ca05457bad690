"""Contracts that keep the engine's checks cheap and always on: points are
validated once at the boundary, a homeomorphism word stores each straightened
point once and replays exactly its flips, the refuter's strength is fixed,
formatting matches its reference, the wave algebra is near-linear with the
answers of its per-point references, a report builds each wave's text once,
each refuter probe is an overlap test with the verdict of the meet it
replaces, no check lives in an `assert` statement,
only the space classes ask which space they are, the slotted value types keep
the semantics of the frozen dataclasses they replaced, and importing the CLI
loads no dataclass or typing machinery."""

import ast
import collections
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import featherline
from featherline import certificates as cert
from featherline import cli
from featherline import feather as fe
from featherline import kernel as ke
from featherline import multiline as ml
from featherline import separation as sp
from featherline import syntax
from featherline.intervals import (CofiniteSet, FinSet, IntervalSet, iset_meet, iset_meets,
                                   iset_remove_points)
from featherline.rationals import NEG_INF, POS_INF, PreconditionError, eq, fmt_ext, lt, same

F = Fraction

PACKAGE_DIR = pathlib.Path(featherline.__file__).resolve().parent

rationals = st.fractions(min_value=-10, max_value=10)


@st.composite
def feather_points(draw, max_len=5, coords=rationals):
    n = draw(st.integers(1, max_len))
    coords = sorted(draw(st.lists(coords, min_size=n, max_size=n, unique=True)))
    p = tuple(coords)
    if draw(st.booleans()):
        p = p + (p[-1],)
    return p


@st.composite
def flip_pivots(draw):
    p = draw(feather_points())
    if len(p) < 2:
        p = p + (p[-1] + 1,)
    return p


# ---------------------------------------------------------------------------
# Checks survive `python -O`.


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements at lines %s" % (path.name, lines)


# ---------------------------------------------------------------------------
# No dead helpers: every function the package defines is named elsewhere in it.

# reached from outside the package: `bench/ops.py` formats with these
OUTSIDE_CALLERS = {"fmt_point", "fmt_basic"}


def _dead_helpers(trees):
    """The (module, name) of each function or method in `trees` (module
    name -> parsed source) that no node outside its own body names, other
    than dunders, the CLI's `cmd_*` verbs and the demos `@_demo` registers,
    which the CLI reaches by string."""
    named = collections.Counter()
    defs = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node))
            named.update(_named_in(node))
    dead = []
    for module, node in defs:
        name = node.name
        registered = any(getattr(getattr(d, "func", None), "id", None) == "_demo"
                         for d in node.decorator_list)
        if (name.startswith("__") or name.startswith("cmd_") or registered
                or name in OUTSIDE_CALLERS):
            continue
        own = sum(_named_in(n)[name] for n in ast.walk(node))
        if named[name] == own:
            dead.append((module, name))
    return dead


def _named_in(node) -> collections.Counter:
    """The names one node refers to: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return collections.Counter((node.id,))
    if isinstance(node, ast.Attribute):
        return collections.Counter((node.attr,))
    if isinstance(node, ast.alias):
        return collections.Counter((node.asname or node.name,))
    return collections.Counter()


def test_every_function_in_the_package_is_named_elsewhere_in_it():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _dead_helpers(trees) == []


def test_dead_helper_guard_sees_unnamed_and_self_named_functions():
    tree = ast.parse("def used():\n    return 1\n"
                     "def unused():\n    return used()\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class C:\n    def method(self):\n        pass\n"
                     "    def __str__(self):\n        return 'c'\n"
                     "def cmd_verb():\n    pass\n"
                     "@_demo('x')\ndef demo_x():\n    pass\n"
                     "def fmt_point():\n    pass\n")
    assert _dead_helpers({"m": tree}) == [("m", "unused"), ("m", "recursive"), ("m", "method")]


# ---------------------------------------------------------------------------
# Only the space classes know which space they are.

SPACE_CLASSES = {"FeatherSpace", "MultiLineSpace", "BranchSpace", "CofiniteSpace"}


def _names(node):
    """The bare names in an isinstance class argument: `X`, `m.X` or a tuple."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _strings(node):
    """Whether `node` is a string constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _space_branches(tree, allowed):
    """Lines outside the `allowed` class bodies that ask for a space class
    (`isinstance(x, MultiLineSpace)`) or branch on a space name
    (`args.space in (...)`, or any `x.space` compared with a string)."""
    lines = []

    def visit(node, inside):
        inside = inside or (isinstance(node, ast.ClassDef) and node.name in allowed)
        if (not inside and isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & SPACE_CLASSES):
            lines.append(node.lineno)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spaces = [x for x in operands if isinstance(x, ast.Attribute) and x.attr == "space"]
            if (any(getattr(x.value, "id", None) == "args" for x in spaces)
                    or spaces and any(map(_strings, operands))):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_space_type_branches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = SPACE_CLASSES if path.name == "kernel.py" else set()
    lines = _space_branches(tree, allowed)
    assert not lines, "%s asks which space it holds at lines %s" % (path.name, lines)


def test_space_branch_guard_sees_both_forms():
    tree = ast.parse("def f(args, space):\n"
                     "    if isinstance(space, (ke.FeatherSpace, int)):\n"
                     "        return args.space in ('N', 'cofinite')\n"
                     "class FeatherSpace:\n"
                     "    def g(self, s):\n"
                     "        return isinstance(s, FeatherSpace)\n"
                     "def h(descr, other):\n"
                     "    if descr.space != 'feather' or 'line' == other.space:\n"
                     "        return self.space == other.space\n")
    assert _space_branches(tree, set()) == [2, 3, 6, 8, 8]
    assert _space_branches(tree, SPACE_CLASSES) == [2, 3, 8, 8]


def test_only_kernel_builds_a_sequence_descriptor():
    # every other module goes through `space.descriptor`, which checks the sequence once
    here = pathlib.Path(__file__).resolve().parent
    paths = [*PACKAGE_DIR.glob("*.py"), *here.glob("*.py")]
    callers = sorted(path.name for path in paths if path.name != "kernel.py" and any(
        isinstance(node, ast.Call) and "SeqDescriptor" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))))
    assert not callers, callers


# The rows of the protocol table in `kernel`'s docstring, by the classes
# each row names.
PROTOCOL_ROWS = {
    "every space": SPACE_CLASSES,
    "all but branch": SPACE_CLASSES - {"BranchSpace"},
    "feather, multiline": {"FeatherSpace", "MultiLineSpace"},
    "feather only": {"FeatherSpace"},
    "multiline only": {"MultiLineSpace"},
}


def _protocol_table():
    """Row label -> method names, read from the indented table that follows
    "The space protocol." in `kernel`'s docstring."""
    doc = ke.__doc__.split("The space protocol.", 1)[1]
    lines = doc.split("\n\n", 2)[1].splitlines()
    rows, label = {}, None
    for line in lines:
        head, names = line[:25].strip(), line[25:].split()
        label = head or label
        rows.setdefault(label, []).extend(names)
    return rows


def test_protocol_table_names_the_methods_each_space_class_defines():
    rows = _protocol_table()
    assert set(rows) == set(PROTOCOL_ROWS)
    for cls_name in SPACE_CLASSES:
        cls = getattr(ke, cls_name)
        defined = {name for name, value in vars(cls).items()
                   if not name.startswith("_") and callable(value)}
        listed = [name for label, names in rows.items()
                  if cls_name in PROTOCOL_ROWS[label] for name in names]
        assert sorted(listed) == sorted(defined), cls_name
    # the base class answers the rest, and the prose says so
    for name in ("member", "covered_by", "density_witness", "is_baire"):
        assert hasattr(ke.Space, name) and "`%s`" % name in ke.__doc__


def test_an_operation_a_space_lacks_raises_and_an_unknown_name_is_missing():
    assert "__getattr__" not in vars(ke.Space)
    defined = {cls_name: {name for name, value in vars(getattr(ke, cls_name)).items()
                          if not name.startswith("_") and callable(value)}
               for cls_name in SPACE_CLASSES}
    defaults = {"member", "covered_by", "density_witness", "is_baire"}  # answered by Space
    for space in set(ke._SPACES.values()):
        lacking = set().union(*defined.values()) - defined[type(space).__name__] - defaults
        for name in lacking:
            with pytest.raises(PreconditionError) as info:
                getattr(space, name)()
            assert str(info.value) == "%s is not implemented for %s" % (name, space.tag)
        for name in ("no_such_operation", "_no_such_helper"):
            with pytest.raises(AttributeError):
                getattr(space, name)


# ---------------------------------------------------------------------------
# Every public feather entry rejects an invalid point, and every word
# generator a field of the wrong shape.

BAD = (F(0), F(0), F(0))
FALLING = (F(1), F(0))  # its twin (1,) and the flip through it are valid
GOOD = (F(0), F(1))
PIVOT = (F(0), F(1), F(2))

PUBLIC_ENTRIES = {
    "fp_validate": lambda: fe.fp_validate(BAD),
    "fp_validate-empty": lambda: fe.fp_validate(()),
    "flip_apply-point": lambda: fe.flip_apply(PIVOT, BAD),
    "flip_apply-pivot": lambda: fe.flip_apply(BAD, GOOD),
    "FlipGen": lambda: fe.FlipGen(BAD),
    "FlipGen-short": lambda: fe.FlipGen((F(0),)),
    "replay-empty-word": lambda: fe.replay((), BAD),
    "replay": lambda: fe.replay((fe.FlipGen(PIVOT),), BAD),
    "StraightenGen": lambda: fe.StraightenGen(BAD),
    "StraightenGen-inverse": lambda: fe.StraightenGen(BAD, inverse=True),
    "normalize_to_line": lambda: fe.normalize_to_line(BAD),
    "fp_move-src": lambda: fe.fp_move(BAD, GOOD),
    "fp_move-dst": lambda: fe.fp_move(GOOD, BAD),
    "fp_chart": lambda: fe.fp_chart(BAD, F(1)),
    "FeatherInterval-lower": lambda: fe.FeatherInterval(BAD, (F(1),)),
    "FeatherInterval-upper": lambda: fe.FeatherInterval((F(-1),), BAD),
    "homotopy_eval": lambda: fe.homotopy_eval(F(1, 2), BAD),
    "SkeletonHandle.contains": lambda: fe.strict_skeleton().contains(BAD),
    "SkeletonHandle.contains-flipped": lambda: fe.SkeletonHandle(fe.FlipGen(PIVOT)).contains(BAD),
    "FEATHER.canonical_neighborhood": lambda: ke.FEATHER.canonical_neighborhood(BAD, F(1)),
    "FEATHER.separable-p": lambda: ke.FEATHER.separable(BAD, GOOD),
    "FEATHER.separable-q": lambda: ke.FEATHER.separable(GOOD, BAD),
    "FEATHER.maximal_hausdorff": lambda: ke.FEATHER.maximal_hausdorff(BAD),
    "FEATHER.maximal_hausdorff-falling": lambda: ke.FEATHER.maximal_hausdorff(FALLING),
    "FEATHER.replay": lambda: ke.FEATHER.replay((fe.FlipGen(PIVOT),), BAD),
    "maximal_hausdorff_at": lambda: sp.maximal_hausdorff_at(ke.FEATHER, BAD),
    "maximal_hausdorff_at-falling": lambda: sp.maximal_hausdorff_at(ke.FEATHER, FALLING),
    "FeatherTranslateGen-text": lambda: fe.FeatherTranslateGen("x"),
    "ExchangeGen-one-level": lambda: ml.ExchangeGen(F(0), (1,)),
    "TranslateGen-text": lambda: ml.TranslateGen("x"),
    "ReflectGen-None": lambda: ml.ReflectGen(None),
    "ExchangeGen-equal-levels": lambda: ml.ExchangeGen(F(0), (1, 1)),
    "ExchangeGen-negative-level": lambda: ml.ExchangeGen(F(0), (0, -1)),
    "ExchangeGen-float": lambda: ml.ExchangeGen(0.5, (0, 1)),
}


@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
def test_public_entry_rejects_invalid_point(entry):
    with pytest.raises(PreconditionError):
        PUBLIC_ENTRIES[entry]()


def _reference_is_valid(seq):
    seq = tuple(Fraction(x) for x in seq)
    return (bool(seq) and all(seq[i] < seq[i + 1] for i in range(len(seq) - 2))
            and (len(seq) < 2 or seq[-2] <= seq[-1]))


@given(st.lists(st.one_of(rationals, st.integers(-3, 3)), max_size=6),
       st.sampled_from([tuple, list]))
def test_fp_validate_matches_reference(coords, container):
    seq = container(coords)
    valid = _reference_is_valid(seq)
    assert fe.fp_ordered(tuple(coords)) == valid
    if valid:
        assert fe.fp_validate(seq) == tuple(Fraction(x) for x in coords)
    else:
        with pytest.raises(PreconditionError):
            fe.fp_validate(seq)


def test_constructors_store_the_validated_point():
    gen = fe.FlipGen([0, 1])
    itv = fe.FeatherInterval([0], [1])
    for point in (gen.pivot, itv.lower, itv.upper):
        assert type(point) is fe.FeatherPoint and all(type(x) is Fraction for x in point)
    assert gen == fe.FlipGen((F(0), F(1)))
    assert hash(itv) == hash(fe.FeatherInterval((F(0),), (F(1),)))


def test_flip_checks_its_seam():
    # apply trusts its input; an invalid one is still caught where the flip
    # glues the pivot's prefix to the point's tail
    with pytest.raises(PreconditionError):
        fe.FlipGen(PIVOT).apply((F(0), F(1), F(-5)))


@given(flip_pivots(), feather_points())
def test_every_flip_output_is_valid(s, r):
    out = fe.FlipGen(s).apply(r)
    assert fe.fp_validate(out) == out


def _explicit(gen) -> list:
    """A word generator as the single flips it stands for: a straighten
    generator expands to its flips, any other generator is itself."""
    if type(gen) is not fe.StraightenGen:
        return [gen]
    flips = [fe.FlipGen(gen.point[:k]) for k in range(len(gen.point), 1, -1)]
    return flips[::-1] if gen.inverse else flips


@given(feather_points(), feather_points())
def test_every_point_along_a_move_is_valid(p, q):
    cur = p
    for gen in fe.fp_move(p, q):
        for step in _explicit(gen):
            cur = step.apply(cur)
            assert fe.fp_validate(cur) == cur
    assert cur == q


def _count_validations(monkeypatch):
    calls = []
    original = fe.fp_validate

    def counting(seq):
        calls.append(len(seq))
        return original(seq)

    monkeypatch.setattr(fe, "fp_validate", counting)
    return calls


@pytest.mark.parametrize("n", [10, 100])
def test_move_and_replay_validate_linearly(monkeypatch, n):
    p = tuple(F(i) for i in range(n))
    q = tuple(F(i, 2) for i in range(n - 1)) + (F(n), F(n))
    calls = _count_validations(monkeypatch)
    word = fe.fp_move(p, q)
    assert fe.replay(word, p) == q
    # one call per straighten generator (p's, q's and q's inverse, which gets
    # the checked point q's generator stored) and one for replay's input;
    # the flips check nothing
    assert calls == [len(p), len(q), len(q), len(p)]


@st.composite
def straighten_cases(draw):
    """A point s and a valid point r: anywhere, a twin of a truncation of s,
    or on a branch through a truncation of s (shorter or longer than s)."""
    s = draw(feather_points(max_len=6))
    kind = draw(st.sampled_from(["any", "twin", "branch"]))
    if kind == "any":
        return s, draw(feather_points())
    if kind == "twin":
        return s, fe.fp_twin(s[:draw(st.integers(1, len(s)))])
    head = s[:draw(st.integers(0, len(s) - 1))]
    lo = head[-1] if head else F(-10)
    tail = sorted(draw(st.lists(st.fractions(min_value=lo, max_value=lo + 10).filter(
        lambda x: x > lo), min_size=1, max_size=3, unique=True)))
    if draw(st.booleans()):
        tail.append(tail[-1])
    return s, fe.fp_validate(head + tuple(tail))


@given(straighten_cases())
def test_straighten_matches_its_explicit_flips(case):
    s, r = case
    forward, backward = fe.StraightenGen(s), fe.StraightenGen(s, inverse=True)
    flips = _explicit(forward)
    assert _explicit(backward) == flips[::-1]
    assert forward.apply(r) == fe.replay(flips, r)
    assert backward.apply(r) == fe.replay(flips[::-1], r)
    assert backward.apply(forward.apply(r)) == r


def _shift(gen, i):
    """gen with coordinate i of its point (not the last) moved down, staying
    valid: a different homeomorphism, since only the last coordinate of a
    flip's pivot does not matter."""
    s = gen.point
    x = s[0] - 1 if i == 0 else (s[i - 1] + s[i]) / 2
    return fe.StraightenGen(s[:i] + (x,) + s[i + 1:], gen.inverse)


def _invert(gen):
    return fe.StraightenGen(gen.point, not gen.inverse)


# points of length >= 3: on a length-2 point straighten and unstraighten are
# the same single flip, so flipping the inverse flag would change nothing
MOVE_PAIRS = [((F(0), F(1), F(3)), (F(2), F(5), F(6))),
              ((F(0), F(1), F(2), F(3)), (F(1, 2), F(2), F(2)))]
TAMPERS = {
    "shift-first-of-straighten": lambda w: [_shift(w[0], 0)] + w[1:],
    "shift-inner-of-straighten": lambda w: [_shift(w[0], len(w[0].point) - 2)] + w[1:],
    "shift-first-of-unstraighten": lambda w: w[:-1] + [_shift(w[-1], 0)],
    "shift-inner-of-unstraighten": lambda w: w[:-1] + [_shift(w[-1], len(w[-1].point) - 2)],
    "invert-straighten": lambda w: [_invert(w[0])] + w[1:],
    "invert-unstraighten": lambda w: w[:-1] + [_invert(w[-1])],
    "swap-first-two": lambda w: [w[1], w[0]] + w[2:],
    "swap-last-two": lambda w: w[:-2] + [w[-1], w[-2]],
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("p,q", MOVE_PAIRS)
def test_verifier_rejects_a_tampered_move(p, q, tamper):
    word = list(fe.fp_move(p, q))
    assert ke.verify_certificate(ke.FEATHER, cert.homeo_word(word, p, q))
    tampered = TAMPERS[tamper](word)
    assert tampered != word
    assert not ke.verify_certificate(ke.FEATHER, cert.homeo_word(tampered, p, q))


@given(feather_points(max_len=8), feather_points(max_len=8))
def test_a_move_renders_linearly_many_rationals(p, q):
    rendered = syntax.jsonable(fe.fp_move(p, q))
    count = sum(len(g["at"]) if "at" in g else 1 for g in rendered)
    assert count <= len(p) + len(q) + 1


@st.composite
def chart_cases(draw):
    """A strict or upper-twin centre and a radius below, at or above the
    gap that `fp_chart` clamps the radius to."""
    p = draw(feather_points())
    if fe.fp_is_strict(p):
        gap = p[-1] - p[-2] if len(p) >= 2 else F(1)
    else:
        gap = p[-1] - p[-3] if len(p) >= 3 else F(1)
    factor = draw(st.sampled_from([F(1, 3), F(1), F(3, 2)])
                  | st.fractions(min_value=0, max_value=3).filter(lambda x: x > 0))
    return p, gap * factor


@given(chart_cases())
def test_a_chart_interval_is_the_one_the_checking_constructor_builds(case):
    p, eps = case
    chart = fe.fp_chart(p, eps)
    itv = fe.FeatherInterval(chart.interval.lower, chart.interval.upper)
    assert chart.interval == itv and chart.arms() == itv.arms()
    assert 0 < chart.radius <= eps and chart.contains(p)


big_rationals = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))


@given(feather_points(max_len=8, coords=rationals | big_rationals))
def test_feather_text_reads_the_slots_as_fmt_ext_prints(p):
    # points, intervals and skeleton pivots all print through `_coords`
    text = ",".join(map(fmt_ext, p))
    assert fe._coords(p) == text and fe.fp_str(fe.fp_validate(p)) == "F(%s)" % text
    itv = fe.fp_chart(p, 1).interval
    ends = tuple(",".join(map(fmt_ext, e)) for e in (itv.lower, itv.upper))
    assert str(itv) == "FI[(%s);(%s)]" % ends
    if len(p) >= 2:
        assert str(fe.SkeletonHandle(fe.FlipGen(p))) == "strict-skeleton*flip(%s)" % text


@pytest.mark.parametrize("p", [(F(0),), (F(0), F(0)), (F(0), F(1)), (F(0), F(1), F(1)),
                               (F(0), F(1), F(3, 2))])
def test_a_chart_validates_its_centre_once(monkeypatch, p):
    calls = _count_validations(monkeypatch)
    fe.fp_chart(p, F(5))
    assert calls == [len(p)]


# ---------------------------------------------------------------------------
# A checked point is a `FeatherPoint`: checked in full once, where it is
# made, and O(1) at every later use.


@given(feather_points())
def test_a_checked_point_behaves_as_its_plain_tuple(p):
    checked = fe.fp_validate(p)
    assert type(p) is tuple and type(checked) is fe.FeatherPoint
    assert fe.fp_validate(checked) is checked and fe.FeatherPoint(checked) is checked
    assert checked == p and p == checked and hash(checked) == hash(p)
    assert same(checked, p) and same(p, checked)
    assert ke.FEATHER.is_point(checked) and ke.FEATHER.is_point(p)
    assert syntax.fmt_point(checked) == syntax.fmt_point(p) == fe.fp_str(p)
    assert syntax.jsonable(checked) == syntax.jsonable(p)
    assert syntax.jsonable({"p": checked, "pair": (checked, p)}) == \
        syntax.jsonable({"p": p, "pair": (p, p)})
    assert type(checked[:-1]) is tuple and type(checked + p) is tuple
    assert pickle.loads(pickle.dumps(checked)) == checked
    assert type(pickle.loads(pickle.dumps(checked))) is fe.FeatherPoint


@given(st.lists(st.one_of(rationals, st.integers(-3, 3)), max_size=6),
       st.sampled_from([tuple, list]))
def test_building_a_feather_point_runs_the_check(coords, container):
    if _reference_is_valid(coords):
        point = fe.FeatherPoint(container(coords))
        assert type(point) is fe.FeatherPoint and point == tuple(map(Fraction, coords))
    else:
        with pytest.raises(PreconditionError):
            fe.FeatherPoint(container(coords))


def _count_full_checks(monkeypatch):
    """The points `fp_validate` checks in full: those not yet a FeatherPoint."""
    full = []
    original = fe.fp_validate

    def counting(seq):
        if seq.__class__ is not fe.FeatherPoint:
            full.append(seq)
        return original(seq)

    monkeypatch.setattr(fe, "fp_validate", counting)
    return full


SEPARABLE_PAIRS = [("F(0,1)", "F(0,1,1)"), ("F(0,1,1)", "F(0,1)"), ("F(0)", "F(0,0)"),
                   ("F(0,1)", "F(0,2)"), ("F(0,1,2)", "F(0,1,1)"), ("F(5)", "F(0,1,2,3,3)")]


@pytest.mark.parametrize("p,q", SEPARABLE_PAIRS)
def test_separable_checks_only_the_twin_it_builds(monkeypatch, p, q):
    p, q = ke.FEATHER.parse_point(p), ke.FEATHER.parse_point(q)
    full = _count_full_checks(monkeypatch)
    ke.FEATHER.separable(p, q)
    # a twin pair's refuter probes fp_twin(p), which the twin of a checked p
    # is already: nothing is checked in full
    assert full == []


@pytest.mark.parametrize("x", ["F(0)", "F(0,1)", "F(0,1,1)", "F(0,1,2,2)"])
def test_maximal_hausdorff_checks_each_point_it_builds_once(monkeypatch, x):
    x = ke.FEATHER.parse_point(x)
    full = _count_full_checks(monkeypatch)
    _, handle, samples = ke.FEATHER.maximal_hausdorff(x)
    # the two candidates at x[0] ± 1 and the pivot of the flip that
    # conjugates the skeleton through an upper twin; the twin candidate and
    # each sample's partner are twins of checked points
    assert samples and len(full) == 2 + (handle.flip is not None)


def test_a_maximal_certificate_carries_the_point_its_space_checked(monkeypatch):
    x = (F(0), F(1), F(1))
    _, c = sp.maximal_hausdorff_at(ke.FEATHER, x)
    assert type(c.payload["x"]) is fe.FeatherPoint and c.payload["x"] == x
    full = _count_full_checks(monkeypatch)
    assert ke.verify_certificate(ke.FEATHER, c) is True
    # the walk checks the payload; nothing after it checks x again
    assert full == []


def _feather_certificates():
    """Certificates the engine builds from checked (parsed) points, one or
    more of each kind the feather issues with points in its payload."""
    pt = ke.FEATHER.parse_point
    p, twin, far, upper = pt("F(0,1)"), pt("F(0,1,1)"), pt("F(2,5/2)"), pt("F(0,1,2,2)")
    word = fe.fp_move(p, upper)
    chart = fe.fp_chart(p, F(1, 2))
    members = [fe.strict_skeleton(), fe.skeleton_through(upper)]
    return [ke.FEATHER.separable(p, twin)[1], ke.FEATHER.separable(p, far)[1],
            sp.maximal_hausdorff_at(ke.FEATHER, p)[1],
            sp.maximal_hausdorff_at(ke.FEATHER, upper)[1],
            cert.homeo_word(word, p, fe.replay(word, p)),
            cert.covered((p,), ke.FEATHER.meet(chart, fe.fp_chart(p, F(1, 4)))),
            sp.subcover_attempt(ke.FEATHER, ke.FEATHER.cover_admits, [chart])[1],
            sp.baire_intersect(ke.FEATHER, members, chart)[1],
            sp.microcompact_neighborhood(ke.FEATHER, p, chart)[0]]


_POINTS_IN = {"point": lambda x: 1, "points": len, "point set": len, "index map": len,
              "point pairs": lambda x: 2 * len(x)}


def _payload_points(c) -> int:
    return sum(_POINTS_IN[shape](c.payload[f]) for f, shape in cert.SCHEMA[c.kind]
               if shape in _POINTS_IN)


@pytest.mark.parametrize("index", range(len(_feather_certificates())))
def test_verifying_checks_each_payload_point_once_in_the_walk(monkeypatch, index):
    c = _feather_certificates()[index]
    full = _count_full_checks(monkeypatch)
    ordered = []
    original = fe.fp_ordered
    monkeypatch.setattr(fe, "fp_ordered", lambda seq: ordered.append(seq) or original(seq))
    assert ke.verify_certificate(ke.FEATHER, c) is True, c.kind
    # the walk checks every payload point in full, checked or not; nothing
    # after it checks a point again
    assert full == [], c.kind
    assert len(ordered) == _payload_points(c) > 0, c.kind


# ---------------------------------------------------------------------------
# The refuter: charts built once, every probe still made.


class CountingSpace:
    def __init__(self, inner):
        self.inner = inner
        self.charts = 0
        self.probes = 0

    def canonical_neighborhood(self, p, eps):
        self.charts += 1
        return self.inner.canonical_neighborhood(p, eps)

    def meet_is_empty(self, b1, b2):
        self.probes += 1
        return self.inner.meet_is_empty(b1, b2)


@pytest.mark.parametrize("space_name,p,q", [
    ("feather", (F(0), F(1)), (F(0), F(1), F(1))),
    ("doubled", "D(0 @0)", "D(0 @1)"),
    ("branch", "B(0,L)", "B(0,R)"),
])
def test_refuter_builds_eight_charts_and_makes_sixteen_probes(space_name, p, q):
    from featherline.syntax import parse_point
    inner = ke.space_of(space_name)
    spec = getattr(inner, "spec", None)
    if isinstance(p, str):
        p, q = parse_point(p, spec), parse_point(q, spec)
    space = CountingSpace(inner)
    assert ke.bounded_refuter(space, p, q) is None
    assert (space.charts, space.probes) == (8, 16)


def _reference_refuter(space, p, q):
    for e1 in ke.REFUTER_SCALES:
        for e2 in ke.REFUTER_SCALES:
            b1 = space.canonical_neighborhood(p, e1)
            b2 = space.canonical_neighborhood(q, e2)
            if space.meet_is_empty(b1, b2):
                return b1, b2
    return None


@given(feather_points(max_len=3), feather_points(max_len=3))
def test_refuter_answers_as_the_chart_per_probe_loop(p, q):
    assert ke.bounded_refuter(ke.FEATHER, p, q) == _reference_refuter(ke.FEATHER, p, q)


# ---------------------------------------------------------------------------
# Feather comparisons go through `rationals`: no `Fraction` operator or
# numerator/denominator property is called from featherline's own code.


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts, by (operator or property, calling function), the `Fraction`
    comparisons and numerator/denominator reads made directly by code in
    the featherline package."""
    calls = {}
    in_package = {}

    def counted(name, fn):
        def wrapper(*args):
            code = sys._getframe(1).f_code
            path = code.co_filename
            if path not in in_package:
                in_package[path] = pathlib.Path(path).resolve().parent == PACKAGE_DIR
            if in_package[path]:
                calls[name, code.co_name] = calls.get((name, code.co_name), 0) + 1
            return fn(*args)
        return wrapper

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(counted(name, getattr(Fraction, name).fget)))
    return calls


def test_the_fraction_call_counter_sees_calls_from_the_package(fraction_calls):
    assert Fraction(1) < Fraction(2) and not fraction_calls  # this file is not the package
    doubled = ke.space_of("doubled")  # compares abscissae with ==
    assert doubled.non_separable_pair(ml.MultiLinePoint(F(1), 0), ml.MultiLinePoint(F(1), 1))
    assert fraction_calls == {("__eq__", "non_separable_pair"): 1}


def _deep(n, last=None):
    """A strict feather point of n + 1 coordinates, built afresh each call;
    with `last`, the upper twin of the point ending in `last`."""
    p = tuple(F(k, 3) for k in range(n)) + (F(n, 3) if last is None else F(last),)
    return p if last is None else p + (F(last),)


def test_feather_queries_and_their_verification_compare_on_integers(fraction_calls):
    f, n = ke.FEATHER, 41
    p, twin = _deep(n), _deep(n, F(n, 3))
    pairs = [(p, twin),
             (p, _deep(n)[:-1] + (F(n, 3) + F(1, 1000),)),  # close on one arm
             (p, _deep(20) + (F(100),))]  # on another branch
    verdicts, certificates = [], []
    for a, b in pairs:
        ok, c = f.separable(a, b)
        verdicts.append(ok)
        certificates.append(c)
    assert verdicts == [False, True, True]
    for x in (p, twin):
        certificates.append(sp.maximal_hausdorff_at(f, x)[1])
    # lengths n - 2 to n + 1: an open arm, then closed arms glued on
    wide = fe.FeatherInterval(_deep(n - 3)[:-1] + (F(n - 3, 3) - F(1, 6),),
                              _deep(n)[:-1] + (F(2 * n),))
    upper = _deep(n - 1, F(n - 1, 3))
    for b1, center, probe in ((wide, p, p), (wide, upper, upper),
                              (fe.FeatherInterval((F(-1),), (F(1, 7),)), p, (F(0),))):
        chart = fe.fp_chart(center, F(1, 5))
        parts = f.meet(b1, chart)
        certificates.append(cert.covered((probe,), parts) if parts
                            else cert.separated_by(probe, center, b1, chart))
    for t in (F(0), F(1, n + 2), F(1, n), F(1, 3), F(3, 4), F(1), F(3, 2), F(2)):
        fe.homotopy_eval(t, twin)
    assert all(ke.verify_certificate(f, c) for c in certificates)
    assert fraction_calls == {}


# ---------------------------------------------------------------------------
# Formatting.


def _reference_fmt_ext(x):
    if x == POS_INF and isinstance(x, float):
        return "inf"
    if x == NEG_INF and isinstance(x, float):
        return "-inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


@given(st.one_of(st.integers(), st.fractions(),
                 st.floats(allow_nan=False, allow_infinity=True)))
def test_fmt_ext_matches_reference(x):
    assert fmt_ext(x) == _reference_fmt_ext(x)


# ---------------------------------------------------------------------------
# The wave algebra: bisected membership, one-sweep punching, disjointness
# decided downstairs, each wave's level map built once.

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def cut_sets(draw):
    """A canonical interval set cut from consecutive breakpoints, so kept
    neighbours touch at a shared, absent endpoint; ends may be infinite.
    Returns the set and its breakpoints."""
    cuts = sorted(draw(st.sets(small_rationals, max_size=7)))
    if draw(st.booleans()):
        cuts = [NEG_INF] + cuts
    if draw(st.booleans()):
        cuts = cuts + [POS_INF]
    pairs = list(zip(cuts, cuts[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return IntervalSet(tuple(pr for pr, k in zip(pairs, keep) if k)), cuts


def _probes(cuts):
    """Breakpoints (shared and infinite ends included) or other rationals."""
    return st.sampled_from(cuts) | small_rationals if cuts else small_rationals


@st.composite
def sets_and_points(draw):
    a, cuts = draw(cut_sets())
    return a, draw(_probes(cuts))


@st.composite
def sets_and_point_lists(draw):
    a, cuts = draw(cut_sets())
    return a, draw(st.lists(_probes(cuts), max_size=8))


def _reference_contains(a, x):
    return any(lo < x < hi for lo, hi in a.intervals)


def _reference_remove_point(a, x):
    out = []
    for lo, hi in a.intervals:
        out += [(lo, x), (x, hi)] if lo < x < hi else [(lo, hi)]
    return IntervalSet(tuple(out))


def test_contains_rejects_the_endpoint_of_touching_intervals():
    a = IntervalSet.of((F(3, 2), 3), (3, 7))
    assert not a.contains(F(3)) and not a.contains(F(3, 2)) and not a.contains(F(7))
    assert a.contains(F(5, 2)) and a.contains(F(4))


@given(sets_and_points())
def test_bisected_contains_matches_linear_reference(case):
    a, x = case
    assert a.contains(x) == _reference_contains(a, x)


@given(sets_and_point_lists())
def test_remove_points_matches_folded_single_point_reference(case):
    a, xs = case
    folded = a
    for x in xs:
        folded = _reference_remove_point(folded, x)
    assert iset_remove_points(a, xs) == folded
    assert iset_remove_points(a, reversed(xs)) == folded
    assert iset_remove_points(a, xs + xs) == folded


@st.composite
def waves(draw, spec):
    parts, _ = draw(cut_sets())
    xs = draw(st.lists(small_rationals, max_size=6, unique=True))
    lift = tuple((x, draw(st.integers(1, spec.k - 1))) for x in xs if parts.contains(x))
    return ml.Wave(spec, parts, lift)


@st.composite
def wave_pairs(draw):
    spec = draw(st.sampled_from([ml.DOUBLED, ml.TRIPLED]))
    return draw(waves(spec)), draw(waves(spec))


@given(wave_pairs())
def test_waves_disjoint_matches_empty_meet(pair):
    w1, w2 = pair
    expected = ml.wave_meet(w1, w2).is_empty()
    assert ml.waves_disjoint(w1, w2) == expected
    assert ke.MultiLineSpace(w1.spec).meet_is_empty(w1, w2) == expected


def test_disjointness_of_waves_from_different_spaces_is_refused():
    w1 = ml.full_wave(ml.DOUBLED)
    w2 = ml.full_wave(ml.TRIPLED)
    with pytest.raises(PreconditionError):
        ml.waves_disjoint(w1, w2)
    with pytest.raises(PreconditionError):
        ke.space_of("doubled").meet_is_empty(w1, w2)


def test_wave_equality_and_hash_ignore_the_stored_level_map():
    lift = ((F(2), 1), (F(-1), 2), (F(1, 2), 1))
    w1 = ml.full_wave(ml.TRIPLED, lift)
    w2 = ml.full_wave(ml.TRIPLED, tuple(reversed(lift)))
    assert w1 == w2 and hash(w1) == hash(w2)
    assert len({w1: "a", w2: "b"}) == 1
    assert "_levels" not in repr(w1)
    assert w1.lift_map() == dict(lift) and w1.lift_map() is not w1.lift_map()


def _count_punches(monkeypatch):
    calls = []
    original = ml.iset_remove_points

    def counting(a, xs):
        calls.append(a)
        return original(a, xs)

    monkeypatch.setattr(ml, "iset_remove_points", counting)
    return calls


@pytest.mark.parametrize("n", [0, 10, 100])
def test_meet_and_projection_punch_once(monkeypatch, n):
    w1 = ml.full_wave(ml.DOUBLED, tuple((F(i), 1) for i in range(n)))
    w2 = ml.full_wave(ml.DOUBLED, tuple((F(i), 1) for i in range(0, n, 2)))
    calls = _count_punches(monkeypatch)
    meet = ml.wave_meet(w1, w2)
    assert len(calls) == 1
    assert len(meet.parts.intervals) == n // 2 + 1
    down = w1.down_projection()
    assert len(calls) == 2
    assert len(down.intervals) == n + 1


def test_wave_contains_reads_the_stored_map(monkeypatch):
    w = ml.full_wave(ml.DOUBLED, ((F(0), 1),))

    def forbidden(self):
        raise AssertionError("lift_map called")

    monkeypatch.setattr(ml.Wave, "lift_map", forbidden)
    assert w.contains(ml.MultiLinePoint(F(0), 1))
    assert not w.contains(ml.MultiLinePoint(F(0), 0))
    assert w.contains(ml.MultiLinePoint(F(1), 0))
    assert ml.wave_member_levels(w, F(0)) == {1}


def _waves_in(value, found):
    """Every `Wave` object reachable from a report, keyed by id."""
    if type(value) is ml.Wave:
        found[id(value)] = value
    elif type(value) is cert.Certificate:
        _waves_in(value.payload, found)
    elif type(value) is dict:
        for item in value.items():
            _waves_in(item, found)
    elif type(value) in (list, tuple, frozenset):
        for item in value:
            _waves_in(item, found)
    return found


@pytest.mark.parametrize("space_name", ["line", "two-origins", "doubled"])
def test_a_report_builds_each_wave_text_once(monkeypatch, space_name):
    # each stage's handle is in the stage and in its certificate
    _, report, _ = cli.demo_theorem2(space_name)
    waves = _waves_in(report, {})
    builds = []
    original = IntervalSet.__str__

    def counting(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(IntervalSet, "__str__", counting)
    rendered = syntax.jsonable(report)
    assert waves and len(builds) <= len(waves)
    assert syntax.jsonable(report) == rendered and len(builds) <= len(waves)


# ---------------------------------------------------------------------------
# The lemma-zorn stage: the line family's maximal handle is built from the
# checked point with no wave check, and the verifier's chart-form checks
# settle shared objects by identity, with the answers of the checking
# constructor and of the comparisons alone.


@st.composite
def line_points(draw):
    """A point of a line-family space, its abscissa a Fraction or an int."""
    space = ke.space_of(draw(st.sampled_from(["line", "doubled", "tripled", "two-origins"])))
    x = draw(st.one_of(small_rationals, st.integers(-4, 4), st.sampled_from([F(0), 0])))
    level = draw(st.integers(0, space.spec.k - 1)) if space.spec.is_doubled(x) else 0
    return space, ml.MultiLinePoint(x, level)


@given(line_points())
def test_a_maximal_line_handle_is_the_checked_full_wave(case):
    space, x = case
    _, handle, _ = space.maximal_hausdorff(x)
    full = ml.full_wave(space.spec, ((x.x, x.level),) if x.level else ())
    assert handle == full and hash(handle) == hash(full)
    assert handle.lift == full.lift and handle._levels == full._levels
    assert all(type(a) is Fraction for a, _ in handle.lift)
    assert str(handle) == str(full)


@pytest.mark.parametrize("name", ["doubled", "tripled"])
def test_the_pipeline_builds_its_handles_with_no_wave_check(monkeypatch, name):
    space = ke.space_of(name)
    checked = []
    original = ml.Wave.__post_init__
    monkeypatch.setattr(ml.Wave, "__post_init__",
                        lambda self: checked.append(self) or original(self))
    samples = [ml.MultiLinePoint(F(n, 7), n % space.spec.k) for n in range(60)]
    report = sp.theorem_pipeline(space, samples)
    handles = [stage["handle"] for stage in report["stages"] if stage["id"] == "lemma-zorn"]
    assert len(handles) == 60 and all(stage["verified"] for stage in report["stages"])
    assert report["verdict"] == "subcover-stage-failure"
    assert checked == []


@pytest.mark.parametrize("name", ["doubled", "tripled", "two-origins"])
def test_the_line_twin_check_settles_a_shared_abscissa_by_identity(monkeypatch, name):
    space = ke.space_of(name)
    calls = []
    original = ke.eq
    monkeypatch.setattr(ke, "eq", lambda a, b: calls.append((a, b)) or original(a, b))
    for a in (F(0), F(-5, 3)) if space.spec.everywhere else (F(0),):
        for level in range(1, space.spec.k):
            p, q = ml.MultiLinePoint(a, level), ml.MultiLinePoint(a, 0)
            assert ke._non_separable_at_every_scale(space, p, q)
            assert ke._non_separable_at_every_scale(space, q, p)
            # a maximal certificate's adjoin samples share their abscissa too
            assert ke.verify_certificate(space, sp.maximal_hausdorff_at(space, p)[1])
    assert calls == []


def _copy(v):
    """A value equal to v, and another object unless v is a small int, None
    or a string."""
    if type(v) is Fraction:
        return Fraction(v.numerator, v.denominator)
    if type(v) is float:
        return float(repr(v))
    if type(v) is tuple:
        return tuple(map(_copy, v))
    if type(v) is fe.FeatherPoint:
        return fe.fp_validate(tuple(map(_copy, v)))
    if type(v) is ml.MultiLinePoint:
        return ml.MultiLinePoint(_copy(v.x), v.level)
    return v


@st.composite
def related(draw, values):
    """A pair (a, b): one object twice, a and an equal copy, or two draws."""
    a = draw(values)
    how = draw(st.sampled_from(["same", "copy", "other"]))
    return a, a if how == "same" else _copy(a) if how == "copy" else draw(values)


constants = st.one_of(small_rationals, st.integers(-3, 3), st.sampled_from([NEG_INF, POS_INF]))
slopes = st.one_of(small_rationals, st.sampled_from([-1, 0, 1, F(1, 2), F(-1, 2)]))
chart_keys = st.one_of(feather_points(), feather_points().map(fe.fp_validate),
                       st.builds(ml.MultiLinePoint, small_rationals, st.integers(0, 2)),
                       st.integers(0, 3), st.sampled_from(["L", "R", None]))


def _parent_above(hi, lo, r):
    (ha, hb), (la, lb) = hi, lo
    if eq(ha, la):
        return lt(lb, hb)
    if lt(ha, la):
        return False
    return not lt(hb, lb) or lt(la + lb * r, ha + hb * r)


def _parent_equal(a, b):
    ca, cb = a.__class__, b.__class__
    if (ca is tuple or ca is fe.FeatherPoint) and (cb is tuple or cb is fe.FeatherPoint):
        return same(a, b)
    return a == b


@given(related(constants), related(slopes), st.fractions(min_value=F(1, 100), max_value=1),
       related(chart_keys),
       st.lists(st.tuples(st.tuples(constants, slopes), st.tuples(constants, slopes)),
                max_size=3))
def test_the_identity_fast_paths_answer_as_the_comparisons(consts, slope_pair, r, keys, ends):
    (ha, la), (hb, lb) = consts, slope_pair
    for hi, lo in (((ha, hb), (la, lb)), ((la, lb), (ha, hb))):
        assert ke._above(hi, lo, r) == _parent_above(hi, lo, r)
    a, b = keys
    assert ke._equal(a, b) == _parent_equal(a, b) == ke._equal(b, a)
    arms = tuple((None, lo, hi, False) for lo, hi in ends)
    assert ke.ChartForm(arms).nested() == all(lo[1] <= 0 <= hi[1] for _, lo, hi, _ in arms)


# ---------------------------------------------------------------------------
# Refuter probes: early-exit overlap tests with the verdicts of the meets
# they replace, each chart decomposed once.


@given(cut_sets(), cut_sets())
def test_iset_meets_matches_the_meet(case1, case2):
    (a, _), (b, _) = case1, case2
    expected = not iset_meet(a, b).is_empty()
    assert iset_meets(a, b) == expected
    assert iset_meets(b, a) == expected


@pytest.mark.parametrize("a,b,expected", [
    (((F(0), F(1)),), ((F(1), F(2)),), False),
    (((NEG_INF, F(0)), (F(0), F(1))), ((F(1), POS_INF),), False),
    (((NEG_INF, F(0)),), ((F(-1), POS_INF),), True),
    (((NEG_INF, POS_INF),), ((F(5), F(6)),), True),
    (((F(0), F(1)), (F(2), F(3))), ((F(1), F(2)), (F(3), F(4))), False),
    ((), ((NEG_INF, POS_INF),), False),
], ids=["touching", "touching-inf", "inf-ends", "full-line", "interleaved", "empty"])
def test_iset_meets_at_touching_and_infinite_ends(a, b, expected):
    a, b = IntervalSet(a), IntervalSet(b)
    assert iset_meets(a, b) == expected == (not iset_meet(a, b).is_empty())


@st.composite
def feather_interval_pairs(draw):
    """Two order intervals below prefixes of one trunk point, so their arms
    often share prefixes.  The lower end cuts the upper one short at some
    length and lowers the last coordinate (never below the branch point)."""
    trunk = draw(feather_points(max_len=4, coords=small_rationals))

    def below():
        v = trunk[:draw(st.integers(1, len(trunk)))]
        n = draw(st.integers(0, len(v) - 1))
        if n and not v[n - 1] < v[n]:  # a slack last step leaves no room
            n -= 1
        floor = v[n - 1] if n else v[n] - 4
        t = draw(st.fractions(0, 1, max_denominator=4).filter(lambda t: t < 1))
        return fe.FeatherInterval(v[:n] + (floor + (v[n] - floor) * t,), v)

    return below(), below()


@given(feather_interval_pairs())
def test_arms_meet_matches_meet_arms_on_intervals(pair):
    x, y = pair
    assert fe.arms_meet(x.arms(), y.arms()) == bool(fe.meet_arms(x.arms(), y.arms()))


@given(feather_interval_pairs() | st.tuples(
    *[st.builds(fe.fp_chart, feather_points(max_len=3, coords=small_rationals),
                st.sampled_from(ke.REFUTER_SCALES))] * 2))
def test_feather_meet_builds_what_the_checking_constructor_builds(pair):
    # `arms_to_intervals` trusts the ends it reads off the arms of valid
    # intervals; the checking constructor accepts each of them unchanged
    meet = ke.FEATHER.meet(*pair)
    assert meet == [fe.FeatherInterval(m.lower, m.upper) for m in meet]


coarse_feather_points = feather_points(max_len=3, coords=small_rationals)


@given(coarse_feather_points, coarse_feather_points, st.booleans())
def test_arms_meet_matches_meet_arms_on_refuter_charts(p, q, twins):
    if twins:
        q = fe.fp_twin(p)
    for e1 in ke.REFUTER_SCALES:
        for e2 in ke.REFUTER_SCALES:
            x, y = fe.fp_chart(p, e1), fe.fp_chart(q, e2)
            assert fe.arms_meet(x.arms(), y.arms()) == bool(fe.meet_arms(x.arms(), y.arms()))


@st.composite
def line_points(draw, spec):
    x = draw(small_rationals)
    level = draw(st.integers(0, spec.k - 1)) if spec.is_doubled(x) else 0
    return ml.MultiLinePoint(x, level)


SPACE_POINTS = {
    "feather": coarse_feather_points,
    "doubled": line_points(ml.DOUBLED),
    "tripled": line_points(ml.TRIPLED),
    "two-origins": line_points(ml.TWO_ORIGINS) | st.sampled_from(
        [ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)]),
    "branch": st.builds(ml.branch_point, small_rationals, st.sampled_from("LR")),
    "cofinite": st.integers(0, 5),
}


@st.composite
def space_point_pairs(draw):
    name = draw(st.sampled_from(sorted(SPACE_POINTS)))
    points = SPACE_POINTS[name]
    return ke.space_of(name), draw(points), draw(points)


@given(space_point_pairs())
def test_meet_is_empty_gives_the_verdict_of_the_meet(case):
    space, p, q = case
    for e1 in ke.REFUTER_SCALES:
        for e2 in ke.REFUTER_SCALES:
            b1 = space.canonical_neighborhood(p, e1)
            b2 = space.canonical_neighborhood(q, e2)
            assert space.meet_is_empty(b1, b2) == (space.meet(b1, b2) == [])


def test_feather_refuter_decomposes_no_chart(monkeypatch):
    # a chart is built with its arms in closed form
    calls = []
    original = fe.interval_arms

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(fe, "interval_arms", counting)
    p = (F(0), F(1))
    assert ke.bounded_refuter(ke.FEATHER, p, fe.fp_twin(p)) is None
    assert calls == []


def test_interval_equality_hash_and_repr_ignore_the_stored_arms():
    x = fe.FeatherInterval((F(0), F(1, 2)), (F(0), F(1), F(3)))
    y = fe.FeatherInterval((F(0), F(1, 2)), (F(0), F(1), F(3)))
    before = repr(x)
    arms = x.arms()
    assert arms == fe.interval_arms(x.lower, x.upper) and x.arms() is arms
    assert x == y and hash(x) == hash(y) and len({x: "a", y: "b"}) == 1
    assert repr(x) == repr(y) == before and "_arms" not in before


@st.composite
def line_points_and_radii(draw):
    spec = draw(st.sampled_from([ml.LINE, ml.DOUBLED, ml.TRIPLED, ml.TWO_ORIGINS]))
    p = draw(line_points(spec))
    eps = draw(st.integers(1, 5) | st.fractions(min_value=0, max_value=4).filter(lambda e: e > 0))
    return spec, p, eps


@given(line_points_and_radii())
def test_line_chart_is_the_interval_of_its_radius(case):
    spec, p, eps = case
    lift = ((p.x, p.level),) if p.level > 0 else ()
    expected = ml.Wave(spec, IntervalSet.of((p.x - eps, p.x + eps)), lift)
    assert ke.MultiLineSpace(spec).canonical_neighborhood(p, eps) == expected


# ---------------------------------------------------------------------------
# Every value prints itself in the syntax its space parses back.


@st.composite
def spaces_and_points(draw):
    name = draw(st.sampled_from(sorted(SPACE_POINTS)))
    return ke.space_of(name), draw(SPACE_POINTS[name])


@given(spaces_and_points() | st.tuples(st.just(ke.FEATHER), feather_points()))
def test_points_print_in_the_syntax_their_space_parses(case):
    space, p = case
    assert space.parse_point(syntax.fmt_point(p)) == p


@st.composite
def branch_intervals(draw):
    lo, hi = sorted(draw(st.lists(small_rationals, min_size=2, max_size=2, unique=True)))
    lo = NEG_INF if draw(st.booleans()) else lo
    hi = POS_INF if draw(st.booleans()) else hi
    return ml.branch_interval(lo, hi, draw(st.sampled_from("LR")))


cofinite_sets = st.just(CofiniteSet.empty()) | st.sets(st.integers(0, 9), max_size=4).map(
    lambda ns: CofiniteSet.excl(*ns))
skeleton_handles = st.just(fe.strict_skeleton()) | flip_pivots().map(
    lambda s: fe.SkeletonHandle(fe.FlipGen(s)))


@st.composite
def spaces_and_basics(draw):
    name = draw(st.sampled_from(["doubled", "tripled", "branch", "cofinite", "feather"]))
    space = ke.space_of(name)
    if name == "branch":
        return space, draw(branch_intervals())
    if name == "cofinite":
        return space, draw(cofinite_sets)
    if name == "feather":
        return space, draw(skeleton_handles)
    return space, draw(waves(space.spec))


@given(spaces_and_basics())
def test_basics_print_in_the_syntax_their_space_parses(case):
    space, b = case
    assert space.parse_basic(syntax.fmt_basic(b)) == b


@given(feather_points(), st.fractions(min_value=0, max_value=2).filter(lambda e: e > 0))
def test_a_chart_prints_as_its_interval(p, eps):
    chart = fe.fp_chart(p, eps)
    assert ke.FEATHER.parse_basic(str(chart)) == chart.interval


# ---------------------------------------------------------------------------
# Value types: slotted classes with the semantics of the frozen dataclasses
# (and typing.NamedTuple points) they replaced.

# (factory, repr printed by the dataclass version)
VALUE_SAMPLES = {
    "IntervalSet": (
        lambda: IntervalSet.of((0, 1), (2, POS_INF)),
        "IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)), (Fraction(2, 1), inf)))"),
    "FinSet": (
        lambda: FinSet.of(0, F(1, 2)),
        "FinSet(elements=(Fraction(0, 1), Fraction(1, 2)))"),
    "CofiniteSet": (
        lambda: CofiniteSet.excl(1, 2),
        "CofiniteSet(excluded=(1, 2), empty_set=False)"),
    "SpaceSpec": (
        lambda: ml.SpaceSpec(2, FinSet.of(0)),
        "SpaceSpec(k=2, doubling=FinSet(elements=(Fraction(0, 1),)))"),
    "Wave": (
        lambda: ml.Wave(ml.TRIPLED, IntervalSet.of((-1, 1)), ((F(0), 2),)),
        "Wave(spec=SpaceSpec(k=3, doubling='all'), parts=IntervalSet(intervals="
        "((Fraction(-1, 1), Fraction(1, 1)),)), lift=((Fraction(0, 1), 2),))"),
    "TranslateGen": (
        lambda: ml.TranslateGen(F(1, 2)),
        "TranslateGen(shift=Fraction(1, 2))"),
    "ExchangeGen": (
        lambda: ml.ExchangeGen(F(0), (0, 1)),
        "ExchangeGen(at=Fraction(0, 1), levels=(0, 1))"),
    "ReflectGen": (
        lambda: ml.ReflectGen(F(-1)),
        "ReflectGen(about=Fraction(-1, 1))"),
    "BranchInterval": (
        lambda: ml.BranchInterval(F(-1), F(2), "R"),
        "BranchInterval(lo=Fraction(-1, 1), hi=Fraction(2, 1), side='R')"),
    "Arm": (
        lambda: fe.Arm((F(0),), F(0), F(1), True),
        "Arm(prefix=(Fraction(0, 1),), lo=Fraction(0, 1), hi=Fraction(1, 1), lo_closed=True)"),
    "FeatherInterval": (
        lambda: fe.FeatherInterval((F(0), F(1, 2)), (F(0), F(1), F(3))),
        "FeatherInterval(lower=(Fraction(0, 1), Fraction(1, 2)), "
        "upper=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 1)))"),
    "Chart": (
        lambda: fe.fp_chart((F(0), F(1), F(1)), F(1, 2)),
        "Chart(center=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)), radius=Fraction(1, 2), "
        "interval=FeatherInterval(lower=(Fraction(0, 1), Fraction(1, 2)), "
        "upper=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 2))))"),
    "FlipGen": (
        lambda: fe.FlipGen((F(0), F(1))),
        "FlipGen(pivot=(Fraction(0, 1), Fraction(1, 1)))"),
    "StraightenGen": (
        lambda: fe.StraightenGen((F(0), F(1)), inverse=True),
        "StraightenGen(point=(Fraction(0, 1), Fraction(1, 1)), inverse=True)"),
    "FeatherTranslateGen": (
        lambda: fe.FeatherTranslateGen(F(2)),
        "FeatherTranslateGen(shift=Fraction(2, 1))"),
    "SkeletonHandle": (
        lambda: fe.SkeletonHandle(fe.FlipGen((F(0), F(1)))),
        "SkeletonHandle(flip=FlipGen(pivot=(Fraction(0, 1), Fraction(1, 1))))"),
    "SeqDescriptor": (
        lambda: ke.FEATHER.descriptor((F(0), F(1)), None, F(1), "below"),
        "SeqDescriptor(base=(Fraction(0, 1), Fraction(1, 1)), coord_index=1, "
        "limit=Fraction(1, 1), direction='below', floor=Fraction(0, 1))"),
    "Certificate": (
        lambda: cert.twin_pair(ml.MultiLinePoint(F(0), 0), ml.MultiLinePoint(F(0), 1)),
        "Certificate(kind='twin-pair', payload={'p': MultiLinePoint(x=Fraction(0, 1), level=0), "
        "'q': MultiLinePoint(x=Fraction(0, 1), level=1)})"),
    "MultiLinePoint": (
        lambda: ml.MultiLinePoint(F(1, 2), 1),
        "MultiLinePoint(x=Fraction(1, 2), level=1)"),
    "BranchPoint": (
        lambda: ml.BranchPoint(F(0), "R"),
        "BranchPoint(x=Fraction(0, 1), side='R')"),
}


@pytest.mark.parametrize("name", sorted(VALUE_SAMPLES))
def test_value_type_semantics(name):
    make, expected_repr = VALUE_SAMPLES[name]
    x, y = make(), make()
    assert type(x).__name__ == name and x is not y
    assert x == y and not x != y
    assert repr(x) == repr(y) == expected_repr
    if name == "Certificate":  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(x)
        x.kind = "other"
        assert x != y
        return
    assert hash(x) == hash(y) and len({x: "a", y: "b"}) == 1
    field = expected_repr.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    assert x == y


@pytest.mark.parametrize("a,b", [
    (ml.TranslateGen(F(1)), fe.FeatherTranslateGen(F(1))),
    (ml.TranslateGen(F(1)), ml.ReflectGen(F(1))),
    (FinSet(()), IntervalSet(())),
    (cert.Certificate("k", {}), CofiniteSet("k", {})),
], ids=["translate", "reflect", "finset-iset", "certificate"])
def test_values_of_different_classes_with_the_same_fields_differ(a, b):
    assert a != b and b != a and not a == b


def test_points_stay_tuples():
    assert ml.MultiLinePoint(0, 1) == (0, 1) and isinstance(ml.MultiLinePoint(0, 1), tuple)
    assert ml.BranchPoint(F(1), "L") == (1, "L") and isinstance(ml.BranchPoint(1, "L"), tuple)
    assert hash(ml.MultiLinePoint(F(0), 1)) == hash((F(0), 1))


def test_importing_the_cli_loads_no_dataclass_or_typing_machinery():
    """`python -S` keeps this independent of what a machine's `site`
    preloads."""
    code = ("import sys; sys.path.insert(0, %r); import featherline.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis'} & set(sys.modules)))"
            % str(PACKAGE_DIR.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
