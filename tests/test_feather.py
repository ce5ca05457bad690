from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from featherline import certificates as cert
from featherline import feather as fe
from featherline import kernel as ke
from featherline.rationals import PreconditionError

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10)


@st.composite
def feather_points(draw, max_len=4):
    n = draw(st.integers(1, max_len))
    coords = sorted(draw(st.lists(rationals, min_size=n, max_size=n, unique=True)))
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
# Points and order.


def test_validate():
    assert fe.fp_validate((F(0), F(1), F(1))) == (F(0), F(1), F(1))
    assert fe.fp_validate((F(5),)) == (F(5),)
    with pytest.raises(PreconditionError):
        fe.fp_validate((F(0), F(0), F(0)))
    with pytest.raises(PreconditionError):
        fe.fp_validate(())


def test_order_examples():
    assert fe.fp_less((F(0),), (F(1, 2),))
    assert not fe.fp_less((F(0),), (F(0), F(1)))
    assert not fe.fp_less((F(0), F(1)), (F(0),))
    assert fe.fp_less((F(0), F(0)), (F(0), F(1)))


@given(feather_points())
def test_order_irreflexive(p):
    assert not fe.fp_less(p, p)


@given(feather_points(), feather_points(), feather_points())
def test_order_transitive(p, q, r):
    if fe.fp_less(p, q) and fe.fp_less(q, r):
        assert fe.fp_less(p, r)


def test_twin_examples():
    assert fe.fp_twin((F(0),)) == (F(0), F(0))
    assert fe.fp_twin((F(0), F(1), F(1))) == (F(0), F(1))
    assert fe.fp_twin((F(0), F(1))) == (F(0), F(1), F(1))


@given(feather_points())
def test_twin_involution_and_incomparability(p):
    q = fe.fp_twin(p)
    assert fe.fp_twin(q) == p
    assert not fe.fp_less(p, q) and not fe.fp_less(q, p)


@given(feather_points(), feather_points())
def test_twins_share_strict_predecessors(p, r):
    q = fe.fp_twin(p)
    if r not in (p, q):
        assert fe.fp_less(r, p) == fe.fp_less(r, q)


# ---------------------------------------------------------------------------
# Intervals, arms and meets.


def test_interval_membership():
    i = fe.FeatherInterval((F(0), F(0)), (F(0), F(1)))
    assert i.contains((F(0), F(1, 2)))
    assert not i.contains((F(0),))
    assert not i.contains((F(0), F(1)))


def test_meet_example_line_level():
    i1 = fe.FeatherInterval((F(-1),), (F(1),))
    i2 = fe.FeatherInterval((F(0),), (F(2),))
    [m] = ke.FEATHER.meet(i1, i2)
    assert m.lower == (F(0),) and m.upper == (F(1),)


def test_interval_endpoint_validation():
    # (0) and (0,5,7) are incomparable, so they bound no interval
    with pytest.raises(PreconditionError):
        fe.FeatherInterval((F(0),), (F(0), F(5), F(7)))
    i1 = fe.FeatherInterval((F(-1),), (F(0), F(5), F(7)))
    assert i1.contains((F(0), F(3)))
    i2 = fe.FeatherInterval((F(0), F(1)), (F(0), F(2)))
    assert not ke.FEATHER.meet(i2, fe.FeatherInterval((F(5),), (F(6),)))


@given(feather_points(), feather_points(), feather_points())
def test_interval_membership_is_order(u, v, w):
    if not fe.fp_less(u, v):
        return
    i = fe.FeatherInterval(u, v)
    assert i.contains(w) == (fe.fp_less(u, w) and fe.fp_less(v, w) is False
                             and fe.fp_less(w, v))


@given(feather_points(), feather_points(), feather_points(), feather_points(),
       feather_points())
def test_meet_pointwise(u1, v1, u2, v2, w):
    if not (fe.fp_less(u1, v1) and fe.fp_less(u2, v2)):
        return
    i1, i2 = fe.FeatherInterval(u1, v1), fe.FeatherInterval(u2, v2)
    parts = ke.FEATHER.meet(i1, i2)
    member = any(m.contains(w) for m in parts)
    assert member == (i1.contains(w) and i2.contains(w))


# ---------------------------------------------------------------------------
# Charts.


def _chart_point(center, c):
    """The point at offset c from a chart's center: on one arm for a strict
    center; for an upper twin, on the branch below it when c < 0 and on the
    arm above it otherwise."""
    a = center[-1]
    if fe.fp_is_strict(center) or c >= 0:
        return center[:-1] + (a + c,)
    return center[:-2] + (a + c,)


def test_pure_chart():
    c = fe.fp_chart((F(0), F(1)), F(1, 2))
    assert c.contains((F(0), F(5, 4)))
    assert not c.contains((F(0), F(1), F(5, 4)))
    assert _chart_point(c.center, c.radius / 2) == (F(0), F(5, 4))
    assert _chart_point(c.center, -c.radius / 2) == (F(0), F(3, 4))
    assert c.contains((F(0), F(3, 4)))


def test_glued_chart():
    c = fe.fp_chart((F(0), F(0)), F(1, 2))
    assert c.contains((F(-1, 4),))        # below the branch point
    assert c.contains((F(0), F(1, 4)))    # above, on the upper branch
    assert c.contains((F(0), F(0)))
    assert not c.contains((F(0),))        # the lower twin is outside
    assert _chart_point(c.center, -c.radius / 2) == (F(-1, 4),)
    assert _chart_point(c.center, c.radius / 2) == (F(0), F(1, 4))


def test_chart_auto_shrink():
    # eps must not reach past the previous coordinate
    c = fe.fp_chart((F(0), F(1)), F(5))
    assert not c.contains((F(0), F(0)))
    assert c.radius <= 1


@given(feather_points(), st.fractions(min_value="1/8", max_value=2))
def test_chart_coord_roundtrip(p, eps):
    # the chart holds its center and the points at offsets within its radius,
    # in its shape (a pure arm, or the branch below glued to the arm above)
    c = fe.fp_chart(p, eps)
    assert c.contains(p) and _chart_point(p, 0) == p
    for sign in (1, -1):
        assert c.contains(_chart_point(p, sign * c.radius / 2))
        assert not c.contains(_chart_point(p, sign * c.radius))


# ---------------------------------------------------------------------------
# Flips and homogeneity.


def test_flip_case_display():
    s = (F(0), F(1))
    assert fe.flip_apply(s, (F(0), F(5))) == (F(5),)
    assert fe.flip_apply(s, (F(5), F(7))) == (F(0), F(5), F(7))
    assert fe.flip_apply(s, (F(-3),)) == (F(-3),)
    assert fe.flip_apply(s, (F(0), F(0))) == (F(0),)
    assert fe.flip_apply(s, (F(0),)) == (F(0), F(0))


def test_flip_case_precedence():
    # r matching both cases resolves through the prefix case
    assert fe.flip_apply((F(0), F(1), F(1)), (F(0), F(1), F(1))) == (F(0), F(1))


@given(flip_pivots(), feather_points())
def test_flip_involution(s, r):
    out = fe.flip_apply(s, r)
    fe.fp_validate(out)
    assert fe.flip_apply(s, out) == r


def test_normalize_examples():
    s = (F(0), F(1), F(3))
    word, out = fe.normalize_to_line(s)
    assert out == (F(3),)
    assert word == (fe.StraightenGen(s),)
    # the one generator stands for the flips at s and s[:2], longest first
    assert fe.replay(word, s) == fe.replay((fe.FlipGen(s), fe.FlipGen(s[:2])), s) == out
    word, out = fe.normalize_to_line((F(7),))
    assert word == () and out == (F(7),)


@given(feather_points(), feather_points())
def test_move_exact(p, q):
    word = fe.fp_move(p, q)
    assert fe.replay(word, p) == q


@given(feather_points())
def test_twin_swap_flip(p):
    gen = fe.twin_swap_flip(p)
    assert gen.apply(p) == fe.fp_twin(p)
    assert gen.apply(fe.fp_twin(p)) == p


# ---------------------------------------------------------------------------
# One-pass straightening against the flip-by-flip loop it replaces.


def flip_by_flip(gen, p):
    """The reference `StraightenGen.apply`: `_flip` at each truncation of the
    generator's point in turn, rebuilding the point at every flip."""
    s = gen.point
    for n in (range(1, len(s)) if gen.inverse else range(len(s) - 1, 0, -1)):
        p = fe._flip(s, n, p)
    return p


def outcome(apply, p):
    try:
        return apply(p)
    except PreconditionError as exc:
        return ("raised", str(exc))


def assert_apply_matches(s, p):
    for inverse in (False, True):
        gen = fe.StraightenGen(s, inverse)
        assert outcome(gen.apply, p) == outcome(lambda q: flip_by_flip(gen, q), p)


# small integer coordinates, so points of up to ~50 coordinates share
# prefixes and meet each other's coordinates often
@st.composite
def long_points(draw, max_len=50):
    coords = draw(st.lists(st.integers(0, 80), min_size=1, max_size=max_len, unique=True))
    p = tuple(map(F, sorted(coords)))
    if draw(st.booleans()):
        p = p + (p[-1],)  # a slack last step
    return p


@st.composite
def tails(draw):
    """Positive steps up from a branch point, and whether the last is slack."""
    steps = draw(st.lists(st.integers(1, 3), max_size=5))
    return steps, draw(st.booleans())


def on_branch(head, steps, slack, start=F(-1)):
    """The point head + (a tail climbing `steps` from head's last coordinate)."""
    x, tail = (head[-1] if head else start), []
    for step in steps:
        x += step
        tail.append(x)
    if slack and tail:
        tail.append(tail[-1])
    return head + tuple(tail)


@example(s=(F(0),), branch=([1], False))
@example(s=(F(0), F(0)), branch=([], True))
@example(s=(F(0), F(1)), branch=([1, 1], True))
@given(long_points(), tails())
def test_straighten_matches_flip_by_flip_at_every_shared_prefix(s, branch):
    for k in range(len(s) + 1):
        head = s[:k]
        for p in (on_branch(head, *branch), head + head[-1:]):
            if p:  # the twin of each truncation, and a branch off it
                assert_apply_matches(s, p)


@example(s=(F(0),), p=(F(0), F(0)))
@example(s=(F(0), F(1)), p=(F(1),))
@example(s=(F(0), F(1), F(1)), p=(F(0), F(1)))
@given(long_points(), long_points())
def test_straighten_matches_flip_by_flip_on_any_point(s, p):
    assert_apply_matches(s, p)


@given(long_points())
def test_straighten_matches_flip_by_flip_on_the_point_and_its_twin(s):
    for p in (s, fe.fp_twin(s), s[-1:], s[:1]):
        assert_apply_matches(s, p)


@example(s=(F(0), F(1), F(2)), p=(F(0), F(1), F(0), F(0)))  # a seam breaks
@example(s=(F(0), F(1), F(2)), p=(F(1), F(0), F(0)))  # a seam breaks in the inverse
@example(s=(F(0), F(1), F(2)), p=(F(0), F(0), F(1)))  # a repeat keeps the prefix on s
@given(long_points(max_len=8), st.lists(st.integers(0, 12).map(F), min_size=1, max_size=10))
def test_straighten_raises_as_flip_by_flip_on_tuples_that_are_not_points(s, p):
    # outside the contract of `apply`, so the seam checks are what decide
    assert_apply_matches(s, tuple(p))


def test_the_examples_of_broken_seams_do_raise():
    s = (F(0), F(1), F(2))
    for gen, p in [(fe.StraightenGen(s), (F(0), F(1), F(0), F(0))),
                   (fe.StraightenGen(s, inverse=True), (F(1), F(0), F(0)))]:
        with pytest.raises(PreconditionError, match="flip seam breaks the order"):
            gen.apply(p)


@pytest.mark.parametrize("n", [50, 200, 800])
def test_straightening_makes_a_linear_number_of_comparisons(monkeypatch, n):
    # s strict with a slack last step, q on another branch off s[:n // 2]
    s = tuple(F(k, 3) for k in range(n - 1)) + (F(n - 2, 3),)
    q = on_branch(s[:n // 2], [1] * (n - n // 2 - 1), True)
    forward, backward = fe.StraightenGen(s), fe.StraightenGen(s, inverse=True)
    cases = [(forward, s), (backward, s[-1:]), (forward, q), (backward, q)]
    expected = [flip_by_flip(gen, p) for gen, p in cases]
    assert expected[:2] == [s[-1:], s]
    counts = [0]

    def counting(compare):
        def counted(a, b):
            counts[0] += 1
            return compare(a, b)
        return counted

    def counted_same(a, b):  # the element comparisons `same` would make
        counts[0] += min(len(a), len(b))
        return a == b

    for name in ("lt", "eq"):
        monkeypatch.setattr(fe, name, counting(getattr(fe, name)))
    monkeypatch.setattr(fe, "same", counted_same)
    for (gen, p), out in zip(cases, expected):
        counts[0] = 0
        assert gen.apply(p) == out
        assert counts[0] <= 4 * n, (gen.inverse, counts[0])


# ---------------------------------------------------------------------------
# The arm layer decides on `rationals.lt`/`eq`: differential against the
# operator versions it replaced.


def _ref_contains_coord(arm, r):
    if arm.lo_closed:
        return arm.lo <= r < arm.hi
    return arm.lo < r < arm.hi


def _ref_is_empty(arm):
    return not arm.lo < arm.hi


def _ref_normalize_arms(arms):
    keyed = sorted((a for a in arms if not _ref_is_empty(a)),
                   key=lambda a: (len(a.prefix), a.prefix, a.lo, not a.lo_closed))
    out = []
    for arm in keyed:
        if out and out[-1].prefix == arm.prefix:
            prev = out[-1]
            if arm.lo < prev.hi or (arm.lo == prev.hi and arm.lo_closed) or (
                    arm.lo == prev.lo):
                out[-1] = fe.Arm(prev.prefix, prev.lo, max(prev.hi, arm.hi), prev.lo_closed)
                continue
        out.append(arm)
    return tuple(out)


def _ref_meet_arms(arms1, arms2):
    out = []
    for a in arms1:
        for b in arms2:
            if a.prefix != b.prefix:
                continue
            if a.lo > b.lo:
                lo, closed = a.lo, a.lo_closed
            elif b.lo > a.lo:
                lo, closed = b.lo, b.lo_closed
            else:
                lo, closed = a.lo, a.lo_closed and b.lo_closed
            arm = fe.Arm(a.prefix, lo, min(a.hi, b.hi), closed)
            if not _ref_is_empty(arm):
                out.append(arm)
    return _ref_normalize_arms(out)


def _ref_arm_subset(a, b):
    if a.prefix != b.prefix or b.hi < a.hi:
        return False
    if a.lo > b.lo:
        return True
    if a.lo < b.lo:
        return False
    return b.lo_closed or not a.lo_closed


def _rebuilt(x):
    """An equal Fraction in a new object; an int as it is."""
    return F(x.numerator, x.denominator) if type(x) is F else x


# few values, so ends tie often; ints among them, as `lt`/`eq` take both
arm_values = st.sampled_from([F(-1), F(0), 0, F(1, 3), F(1, 2), F(1), 1, F(2)])


@st.composite
def arm_lists(draw, min_size=0, max_size=5):
    """Arms over two base prefixes, each arm holding a prefix either shared
    with the others or rebuilt coordinate by coordinate, and ends from a few
    values, each end shared or rebuilt: equal ends are often distinct
    objects, so a tie rule that keeps the wrong one shows."""
    bases = [(F(0),), (F(0), F(1, 2))]
    arms = []
    for _ in range(draw(st.integers(min_size, max_size))):
        prefix = draw(st.sampled_from(bases))
        if draw(st.booleans()):
            prefix = tuple(map(_rebuilt, prefix))
        lo, hi = draw(arm_values), draw(arm_values)
        lo, hi = [draw(st.sampled_from([x, _rebuilt(x)])) for x in (lo, hi)]
        arms.append(fe.Arm(prefix, lo, hi, draw(st.booleans())))
    return arms


def _same_arms(xs, ys):
    """Equal arms holding the very same prefix and end objects."""
    return len(xs) == len(ys) and all(
        x.prefix is y.prefix and x.lo is y.lo and x.hi is y.hi and x.lo_closed is y.lo_closed
        for x, y in zip(xs, ys))


@given(arm_lists(min_size=1, max_size=1), arm_values)
def test_arm_membership_and_emptiness_match_the_operators(arms, r):
    for arm in arms:
        assert arm.is_empty() == _ref_is_empty(arm)
        assert arm.contains_coord(r) == _ref_contains_coord(arm, r)
        assert arm.contains_coord(_rebuilt(arm.lo)) == _ref_contains_coord(arm, arm.lo)


@given(arm_lists())
def test_normalize_arms_matches_the_operators(arms):
    assert _same_arms(fe.normalize_arms(arms), _ref_normalize_arms(arms))


@given(arm_lists(), arm_lists())
def test_meet_arms_matches_the_operators(arms1, arms2):
    assert _same_arms(fe.meet_arms(arms1, arms2), _ref_meet_arms(arms1, arms2))


@given(arm_lists(max_size=3), arm_lists(max_size=3))
def test_arm_subset_matches_the_operators(arms1, arms2):
    for a in arms1:
        for b in arms2:
            assert ke._arm_subset(a, b) == _ref_arm_subset(a, b)


@given(feather_points())
def test_refuter_on_a_rebuilt_twin_answers_as_on_fp_twin(p):
    q = tuple(F(x.numerator, x.denominator) for x in fe.fp_twin(p))
    assert ke.bounded_refuter(ke.FEATHER, p, q) == ke.bounded_refuter(ke.FEATHER, p, fe.fp_twin(p))
    assert repr(ke.FEATHER.separable(p, q)) == repr((False, cert.twin_pair(p, q)))


def _ref_homotopy_tree(t, s):
    n = len(s) - 1
    if n == 0 or t <= F(1, n + 1):
        return s
    if t <= F(1, n):
        tp = n * (n + 1) * t - n
        x, y = s[n - 1], s[n]
        return s[:n] + ((1 - tp) * y + tp * x,)
    return _ref_homotopy_tree(t, s[:n])


@given(feather_points(max_len=6), st.integers(1, 8), st.sampled_from([F(0), F(1, 97), F(-1, 97)]))
def test_homotopy_tree_matches_the_operators_at_and_beside_the_seams(s, n, off):
    t = F(1, n) + off
    assert repr(fe._homotopy_tree(t, s)) == repr(_ref_homotopy_tree(t, s))


# ---------------------------------------------------------------------------
# The contraction homotopy.


def test_homotopy_examples():
    assert fe.homotopy_eval(F(1), (F(0), F(2))) == (F(0), F(0))
    assert fe.homotopy_eval(F(3, 4), (F(0), F(1), F(3))) == (F(0), F(1, 2))
    assert fe.homotopy_eval(F(1, 2), (F(0), F(1), F(3))) == (F(0), F(1), F(1))
    assert fe.homotopy_eval(F(2), (F(0), F(1), F(3))) == (F(-1),)


@given(feather_points())
def test_homotopy_endpoints(s):
    assert fe.homotopy_eval(F(0), s) == s
    h1 = fe.homotopy_eval(F(1), s)
    if len(s) > 1:
        assert h1 == (s[0], s[0])
    else:
        assert h1 == s
    assert len(fe.homotopy_eval(F(2), s)) == 1


def test_homotopy_domain():
    with pytest.raises(PreconditionError):
        fe.homotopy_eval(F(-1, 2), (F(0),))
    with pytest.raises(PreconditionError):
        fe.homotopy_eval(F(5, 2), (F(0),))


@given(feather_points(max_len=3))
def test_seam_limits_equal_or_twins(s):
    n = len(s) - 1
    seams = [F(1)] + [F(1, m) for m in range(2, n + 1)]
    for t0 in seams:
        left, right = fe.homotopy_seam_limits(t0, s)
        assert left == right or fe.fp_twin(left) == right


@pytest.mark.parametrize("t0", [F(0), F(2, 5), F(2), F(-1, 2)])
def test_seam_limits_reject_non_seam_times(t0):
    with pytest.raises(PreconditionError):
        fe.homotopy_seam_limits(t0, (F(0), F(1)))


# ---------------------------------------------------------------------------
# Skeleton and branch families.


def test_strict_skeleton():
    a = fe.strict_skeleton()
    assert a.contains((F(0), F(1)))
    assert not a.contains((F(0), F(0)))
    pair = a.adjoin_witness((F(0), F(0)))
    assert pair == ((F(0), F(0)), (F(0),))


def test_skeleton_through_upper_twin():
    h = fe.skeleton_through((F(0), F(0)))
    assert h.contains((F(0), F(0)))
    assert not h.contains((F(0),))


def test_disjoint_branch_family():
    # the level-one branch intervals {(x, r) : a < r < b}, one per x, are
    # pairwise disjoint: an uncountable disjoint open family
    i0 = fe.FeatherInterval((F(0), F(1)), (F(0), F(2)))
    i1 = fe.FeatherInterval((F(1), F(2)), (F(1), F(3)))
    assert i0.contains((F(0), F(3, 2)))
    assert not ke.FEATHER.meet(i0, i1)
    with pytest.raises(PreconditionError):
        fe.FeatherInterval((F(0), F(1)), (F(0), F(1)))
