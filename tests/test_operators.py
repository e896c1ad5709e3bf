import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phibvp import (
    check_corollary_singular,
    check_corollary_surjective,
    check_theorem1,
    constant_rhs,
    constant_weight,
    make_problem,
    operators,
    solver,
    zero_rhs,
)
from phibvp.errors import (
    BranchError,
    BranchNotFoundError,
    DomainError,
    ImageDomainError,
    InvalidInputError,
)
from phibvp.expressions import compile_expression
from phibvp.operators import (
    OPERATOR_CATALOG,
    PhiOperator,
    difference,
    find_branch,
    hint_branch,
    make_operator,
    mean_curvature,
    p_relativistic,
    partial_inverse,
    partial_inverse_array,
    perona_malik,
    r_laplacian,
    relativistic,
    sine,
)
from phibvp.problem import Rhs, require_box


def test_catalog_names_exist():
    assert set(OPERATOR_CATALOG) == {
        "r_laplacian",
        "mean_curvature",
        "relativistic",
        "p_relativistic",
        "perona_malik",
        "sine",
        "difference",
    }
    with pytest.raises(InvalidInputError):
        make_operator("nonexistent_operator")


def test_all_catalog_operators_are_odd():
    ops = _catalog_instances()
    for op in ops:
        assert op.odd
        s = np.linspace(-0.4, 0.4, 9)
        assert np.allclose(np.asarray(op(-s)), -np.asarray(op(s)), atol=1e-14)


def _catalog_instances():
    return [
        r_laplacian(3.0),
        mean_curvature(),
        relativistic(),
        p_relativistic(3.0),
        perona_malik(),
        sine(),
        difference(2.0, 0.0),
    ]


# -- branch selection ---------------------------------------------------------


def test_perona_malik_branch_with_hint():
    op = perona_malik()
    br = hint_branch(op, (-1.0, 1.0))
    assert br.increasing
    assert br.lo == -1.0 and br.hi == 1.0
    assert (br.image_lo, br.image_hi) == (-0.5, 0.5)


def test_perona_malik_branch_without_hint():
    op = perona_malik()
    br = find_branch(op, 0.3)
    assert (br.lo, br.hi) == (-1.0, 1.0)
    assert br.image_lo == -0.5 and br.image_hi == 0.5


def test_perona_malik_decreasing_tail_branch():
    op = perona_malik()
    br = find_branch(op, 3.0)
    assert not br.increasing
    assert br.lo == 1.0 and br.hi == math.inf
    assert (br.image_lo, br.image_hi) == (0.0, 0.5)


def test_sine_decreasing_branch():
    op = sine()
    br = hint_branch(op, (math.pi / 2, 3 * math.pi / 2))
    assert not br.increasing
    assert (br.image_lo, br.image_hi) == (-1.0, 1.0)
    s = partial_inverse(op, br, 0.5)
    assert s == pytest.approx(math.pi - math.asin(0.5), abs=1e-12)


def test_slope_outside_a_hinted_branch_is_a_failed_hypothesis():
    # a hint is the branch itself: s* = 0 outside it fails the check's
    # slope-in-branch item and require_box, and builds
    prob = make_problem(
        sine(), constant_weight(1.0), zero_rhs(), 0.0, 0.0, 1.0,
        branch_hint=(math.pi / 2, 3 * math.pi / 2), mesh_n=50,
    )
    assert (prob.branch.lo, prob.branch.hi) == (math.pi / 2, 3 * math.pi / 2)
    items = {item.name: item.verdict for item in check_theorem1(prob, (3, 3, 3)).items}
    assert items["slope-in-branch"] == "fail"
    with pytest.raises(BranchError, match="reference slope 0.0 outside branch"):
        require_box(prob)


def test_hint_with_monotonicity_violation():
    op = perona_malik()
    with pytest.raises(BranchNotFoundError):
        hint_branch(op, (-2.0, 2.0))


def test_domain_error_outside_operator_domain():
    op = relativistic()
    with pytest.raises(DomainError):
        find_branch(op, 1.5)
    with pytest.raises(DomainError):
        hint_branch(op, (-2.0, 2.0))


def test_sampled_branch_without_piece_metadata():
    # strip the metadata to force the sampling path
    base = difference(2.0, 0.0)  # s^3 - s, decreasing on (-1/sqrt3, 1/sqrt3)
    op = PhiOperator("anon", base.fn, odd=True)
    br = find_branch(op, 0.0)
    c = 1.0 / math.sqrt(3.0)
    assert not br.increasing
    assert br.lo == pytest.approx(-c, abs=2e-3)
    assert br.hi == pytest.approx(c, abs=2e-3)
    y = 0.2
    assert br.image_lo < y < br.image_hi
    s = partial_inverse(op, br, y)
    assert float(op(s)) == pytest.approx(y, abs=1e-12)


def test_sampled_branch_grows_to_window_for_monotone_operator():
    op = PhiOperator("cubic", lambda s: s**3 + s, odd=True)
    br = find_branch(op, 0.5)
    assert br.increasing
    assert br.hi >= 1e6


def test_sampled_branch_stops_short_of_the_turns():
    # s^3 - s turns at +-1/sqrt(3); each end is the turn located to
    # rounding, and hint_branch certifies the located window
    op = PhiOperator("anon", difference(2.0, 0.0).fn, odd=True)
    br = find_branch(op, 0.0)
    c = 1.0 / math.sqrt(3.0)
    assert abs(br.lo + c) <= 1e-10 and abs(br.hi - c) <= 1e-10
    assert hint_branch(op, (br.lo, br.hi)) == br


_C3 = 1.0 / math.sqrt(3.0)
_C2 = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    "fn, s, lo, hi, image",
    [
        (lambda s: s**3 - s, 0.3, -_C3, _C3, (-2.0 * _C3 / 3.0, 2.0 * _C3 / 3.0)),
        (lambda s: s**3 - s, 2.0, _C3, math.inf, (-2.0 * _C3 / 3.0, math.inf)),
        (lambda s: s * np.exp(-s * s), 2.0, _C2, math.inf, (0.0, _C2 * math.exp(-0.5))),
        (compile_expression("s/(1+s^2)", ("s",)), 0.2, -1.0, 1.0, (-0.5, 0.5)),
    ],
    ids=["cubic-middle", "cubic-outer", "gaussian-tail", "perona-expression"],
)
def test_sampled_branch_grows_each_side_to_its_own_end(fn, s, lo, hi, image):
    # each side of the window grows on its own, so a turn on one side does
    # not cut the other short: an end is a turn located to rounding, or the
    # domain's end where no turn lies
    br = find_branch(PhiOperator("anon", fn), s)
    for got, want in ((br.lo, lo), (br.hi, hi)):
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-10
    for got, want in zip((br.image_lo, br.image_hi), image):
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-12


# operators without piece metadata, monotone on their whole domain, onto R:
# Phi, domain, s*
_UNBOUNDED_IMAGES = {
    "cubic": (lambda s: s**3 + s, (-math.inf, math.inf), 0.5),
    "identity": (lambda s: s, (-math.inf, math.inf), 0.1),
    "singular": (lambda s: s / np.sqrt(1.0 - s * s), (-1.0, 1.0), 0.1),
    # s* closer to the domain's end than the step that senses Phi's slope
    "singular-near-end": (lambda s: s / np.sqrt(1.0 - s * s), (-1.0, 1.0), -0.9999999999),
    "log1p": (lambda s: np.sign(s) * np.log1p(np.abs(s)), (-math.inf, math.inf), 0.5),
}


def _without_metadata(name):
    fn, domain, _ = _UNBOUNDED_IMAGES[name]
    return PhiOperator("anon", fn, domain=domain, odd=True)


@pytest.mark.parametrize("name", _UNBOUNDED_IMAGES)
def test_sampled_branch_is_the_hinted_branch_over_the_domain(name):
    # one rule certifies both: a window monotone to the domain's ends is
    # the whole domain, and every image end is judged by _limit_at
    op = _without_metadata(name)
    domain, s_star = _UNBOUNDED_IMAGES[name][1:]
    br = find_branch(op, s_star)
    assert br == hint_branch(op, domain)
    assert (br.lo, br.hi) == domain
    assert (br.image_lo, br.image_hi) == (-math.inf, math.inf)


@pytest.mark.parametrize(
    "name, check",
    [
        ("cubic", check_corollary_surjective),
        ("identity", check_corollary_surjective),
        ("singular", check_corollary_singular),
    ],
    ids=["cubic", "identity", "singular"],
)
def test_sampled_branch_takes_its_corollary(name, check):
    prob = make_problem(
        _without_metadata(name), constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=50
    )
    assert check(prob, lattice=(3, 3, 3)).overall == "pass"


def test_theorem1_verdict_does_not_depend_on_a_whole_domain_hint():
    # Phi(s*) +- 2L = +-18000 lies inside the image only when the end
    # probes see that the image is all of R
    verdicts = [
        check_theorem1(
            make_problem(
                _without_metadata("singular"), constant_weight(1.0), constant_rhs(9000.0),
                0.0, 0.0, 1.0, branch_hint=hint, mesh_n=50,
            ),
            lattice=(3, 3, 3),
        ).overall
        for hint in (None, (-1.0, 1.0))
    ]
    assert verdicts == ["pass", "pass"]


@pytest.mark.parametrize(
    "fn, hint",
    [
        (lambda s: s, (-math.inf, math.inf)),
        (lambda s: np.sign(s) * np.abs(s) ** 0.5, (-math.inf, math.inf)),
        (lambda s: s / np.sqrt(1.0 - s * s), (-1.0, 1.0)),
    ],
    ids=["identity", "square-root", "singular"],
)
def test_hinted_branch_without_metadata_sees_an_unbounded_image(fn, hint):
    # growth across the probes marks an infinite end; a size cut-off of
    # 1e12 took these ends for +-1e8, +-1e4 and +-707114.6
    br = hint_branch(PhiOperator("anon", fn, odd=True), hint)
    assert (br.image_lo, br.image_hi) == (-math.inf, math.inf)


def test_hint_that_holds_a_turn_next_to_its_end_is_refused():
    # s^3 - s decreases on (0.5, 1/sqrt(3)); the samples over (0.5, 1e8)
    # lie 5e4 apart, so only the located-turn test at the end sees it
    cubic = PhiOperator("c", lambda s: s**3 - s)
    with pytest.raises(BranchNotFoundError):
        hint_branch(cubic, (0.5, math.inf))
    with pytest.raises(BranchNotFoundError):
        hint_branch(cubic, (-math.inf, -0.5))
    # a hint that ends at a turn is a branch: the turn is its end
    c = 1.0 / math.sqrt(3.0)
    assert hint_branch(cubic, (c, math.inf)).increasing
    assert not hint_branch(cubic, (-c, c)).increasing
    assert not hint_branch(sine(), (math.pi / 2, 3 * math.pi / 2)).increasing


@pytest.mark.parametrize("end", [1e6, 1e8, 1e20])
def test_hint_with_a_saturated_finite_end_still_certifies(end):
    # atan is pi/2 to rounding near 1e20 and nearly so at 1e6: Phi there
    # does not move, which is no step against the branch's direction
    arctan = PhiOperator("a", compile_expression("atan(s)", ("s",)))
    br = hint_branch(arctan, (0.0, end))
    assert br.increasing and (br.lo, br.hi) == (0.0, end)
    # find_branch certifies a window grown to the domain's ends the same way
    bounded = PhiOperator("a", arctan.fn, domain=(-end, end))
    br = find_branch(bounded, 0.5)
    assert (br.lo, br.hi) == (-end, end)
    assert hint_branch(mean_curvature(), (0.0, 1e6)).increasing


@pytest.mark.parametrize("floats_to_end", [1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_branch_next_to_a_singular_domain_end_reaches_it(floats_to_end, sign):
    # s* one to three floats from the end of (-1, 1), where Phi is
    # infinite: a side window with fewer than two floats toward that end
    # holds nothing that could turn
    op = _without_metadata("singular")
    s_star = sign * (1.0 - floats_to_end * 2.0**-53)
    br = find_branch(op, s_star)
    assert (br.lo, br.hi) == (-1.0, 1.0)
    assert (br.image_lo, br.image_hi) == (-math.inf, math.inf)


def test_identity_without_metadata_takes_the_surjective_shortcut():
    op = PhiOperator("anon", lambda s: s, odd=True)
    prob = make_problem(
        op, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0,
        branch_hint=(-math.inf, math.inf), mesh_n=50,
    )
    assert check_corollary_surjective(prob, lattice=(3, 3, 3)).overall == "pass"


def test_bounded_limits_stay_finite():
    sat = PhiOperator("anon", lambda s: s / np.sqrt(1.0 + s * s), odd=True)
    assert operators._limit_at(sat, math.inf, 0.0) == pytest.approx(1.0)
    assert operators._limit_at(sat, -math.inf, 0.0) == pytest.approx(-1.0)
    # perona's outer piece s / (1 + s^2) decreases to 0
    outer = PhiOperator("anon", perona_malik().fn, odd=True)
    br = hint_branch(outer, (1.0, math.inf))
    assert not br.increasing
    assert 0.0 <= br.image_lo < 1e-6 and br.image_hi == pytest.approx(0.5)


# -- inversion ----------------------------------------------------------------


def test_relativistic_inverse_value():
    op = relativistic()
    br = find_branch(op, 0.0)
    assert partial_inverse(op, br, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("y", [1e300, -1e300])
def test_relativistic_inverse_does_not_overflow(y):
    op = relativistic()
    br = find_branch(op, 0.0)
    with np.errstate(all="raise"):
        assert partial_inverse(op, br, y) == math.copysign(1.0, y)


def test_perona_malik_inverse_value():
    op = perona_malik()
    br = find_branch(op, 0.0)
    assert partial_inverse(op, br, 0.4) == pytest.approx(0.5, abs=1e-14)
    assert partial_inverse(op, br, 0.0) == 0.0


def test_r_laplacian_inverse_value():
    op = r_laplacian(3.0)
    br = find_branch(op, 0.0)
    assert partial_inverse(op, br, 4.0) == pytest.approx(2.0, abs=1e-12)
    assert partial_inverse(op, br, -4.0) == pytest.approx(-2.0, abs=1e-12)


def test_image_domain_error():
    op = mean_curvature()
    br = find_branch(op, 0.0)
    with pytest.raises(ImageDomainError):
        partial_inverse(op, br, 2.0)
    with pytest.raises(ImageDomainError):
        partial_inverse(op, br, 1.0)  # image is open
    with pytest.raises(ImageDomainError):
        partial_inverse_array(op, br, np.array([0.0, 0.5, -1.0]))


def test_bisection_inverse_on_difference_branch():
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)  # (1/sqrt3, inf), increasing, no analytic inverse
    assert br.increasing and br.inverse is None
    s = partial_inverse(op, br, 6.0)
    assert s == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("op", _catalog_instances(), ids=lambda o: o.name)
def test_round_trip_on_default_branch(op):
    rng = np.random.default_rng(1234)
    s_star = 0.25 if op.domain[1] <= 1.0 else 2.0
    if op.name == "sine":
        s_star = 0.25
    br = find_branch(op, s_star)
    lo = max(br.lo, -3.0)
    hi = min(br.hi, 3.0)
    ss = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=200)
    ys = np.asarray(op(ss))
    inside = (ys > br.image_lo) & (ys < br.image_hi)
    ss, ys = ss[inside], ys[inside]
    back = partial_inverse_array(op, br, ys)
    assert np.all(np.abs(back - ss) <= 1e-10 * np.maximum(1.0, np.abs(ss)))
    again = np.asarray(op(back))
    assert np.all(np.abs(again - ys) <= 1e-12 * np.maximum(1.0, np.abs(ys)))


def test_vectorized_inverse_matches_scalar():
    op = sine()
    br = hint_branch(op, (math.pi / 2, 3 * math.pi / 2))
    ys = np.linspace(-0.95, 0.95, 21)
    vec = partial_inverse_array(op, br, ys)
    scal = np.array([partial_inverse(op, br, float(y)) for y in ys])
    assert np.allclose(vec, scal, atol=1e-12)


def test_monotone_inverse_property():
    op = difference(0.0, 2.0)  # s - s^3 style: increasing mid piece
    br = find_branch(op, 0.0)
    assert br.increasing
    ys = np.linspace(br.image_lo + 1e-6, br.image_hi - 1e-6, 64)
    ss = partial_inverse_array(op, br, ys)
    assert np.all(np.diff(ss) > 0)


@pytest.mark.parametrize("name", sorted(OPERATOR_CATALOG))
def test_find_branch_returns_the_catalog_piece(name):
    params = {"difference": {"alpha": 2.0, "beta": 0.0}}.get(name, {})
    op = make_operator(name, **params)
    found = 0
    for s in (-2.0, -0.5, 0.0, 0.3, 2.0, 4.0):
        if not op.domain[0] < s < op.domain[1]:
            continue
        piece = op.piece_at(s)
        if not piece.contains(s):
            continue
        br = find_branch(op, s)
        assert type(br) is type(piece) and br == piece
        if piece.inverse is None:
            assert br.inverse is None
        else:
            lo, hi = max(piece.image_lo, -5.0), min(piece.image_hi, 5.0)
            ys = lo + (hi - lo) * np.linspace(0.05, 0.95, 9)
            assert np.array_equal(br.inverse(ys), piece.inverse(ys))
        found += 1
    assert found >= 3


def test_difference_piece_layout():
    op = difference(2.0, 0.0)
    c = 1.0 / math.sqrt(3.0)
    mid = op.piece_at(0.0)
    assert not mid.increasing
    assert mid.lo == pytest.approx(-c) and mid.hi == pytest.approx(c)
    right = op.piece_at(2.0)
    assert right.increasing and math.isinf(right.image_hi)


# -- generic inversion: cost, agreement, certified brackets -------------------


def _counting(base):
    """base with every Phi evaluation's element count logged."""
    sizes = []

    def fn(s):
        sizes.append(int(np.size(s)))
        return base.fn(s)

    op = PhiOperator(
        base.name, fn, domain=base.domain, odd=base.odd,
        piece_at=base.piece_at, params=base.params,
    )
    return op, sizes


def test_generic_inverse_costs_one_step_of_three_vector_evaluations(monkeypatch):
    # the solve-bisect problem shape: difference (no closed-form inverse),
    # constant weight, f = 0.05 cos(x) sin(y), n = 2000
    op, sizes = _counting(difference(2.0, 0.0))
    rhs = Rhs(
        fn=lambda t, x, y: 0.05 * np.cos(x) * np.sin(y),
        psi=lambda t: np.full_like(t, 0.05),
        name="bisect-shape",
    )
    prob = make_problem(op, constant_weight(1.0), rhs, 0.0, 1.5, 1.0, mesh_n=2000)
    assert prob.branch.inverse is None
    per_call = []

    def counted(phi, branch, y, start=None):
        sizes.clear()
        out = partial_inverse_array(phi, branch, y, start)
        # vector evaluations run over the elements; table samples and
        # scalar probes (at most INVERSE_TABLE_SIZE points) are not counted
        vector = [k for k in sizes if k > operators.INVERSE_TABLE_SIZE]
        per_call.append((len(vector), sum(vector), np.size(y)))
        return out

    monkeypatch.setattr(solver, "partial_inverse_array", counted)
    # the beta solve takes one inversion per sweep once it predicts its
    # root, so a solve that converges takes too few to count: a tolerance
    # below rounding runs all of max_outer's sweeps, most of them past
    # convergence (damped, so that no step lands on the fixed point
    # exactly and ends the loop)
    config = solver.IterationConfig(omega=0.5, tol_fp=1e-300, max_outer=12)
    report = solver.solve(prob, config)
    assert report.status == "max-iters" and report.iterations == 12
    assert len(per_call) > 10
    # the step: one at the Newton points and one on each side of the
    # secant points; the seeded first call adds one at its table cells'
    # falsi points
    n = prob.mesh.nodes.size
    assert per_call[0] == (4, 4 * n, n)
    assert per_call[1:] == [(3, 3 * n, n)] * (len(per_call) - 1)


class _BracketLog:
    """Replays the brackets of bracketed_root from the points it evaluates.

    Installed in place of operators.bracketed_root, it follows every
    element's bracket: a takes the points where g < 0, b the others.
    """

    def __init__(self, real):
        self.real = real
        self.runs = []
        self.midpoint_steps = 0

    def __call__(self, g, a, b, ga, gb, *args, **kwargs):
        a = np.array(a, dtype=float).reshape(-1)
        b = np.array(b, dtype=float).reshape(-1)
        ga = np.asarray(ga, dtype=float).reshape(-1)
        gb = np.asarray(gb, dtype=float).reshape(-1)
        assert np.all(ga <= 0.0) and np.all(gb >= 0.0) and np.all(a <= b)
        exact = (ga == 0.0) | (gb == 0.0)

        def logged(x, idx):
            gx = np.asarray(g(x, idx), dtype=float)
            sel = np.arange(a.size)[idx]
            assert np.all((a[sel] < x) & (x < b[sel]))
            self.midpoint_steps += int(np.count_nonzero(x == 0.5 * (a[sel] + b[sel])))
            low = gx < 0.0
            a[sel] = np.where(low, x, a[sel])
            b[sel] = np.where(low, b[sel], x)
            exact[sel[gx == 0.0]] = True
            return gx

        s = self.real(logged, a.copy(), b.copy(), ga, gb, *args, **kwargs)
        self.runs.append((s, a, b, exact))
        return s

    def assert_certified(self, tol):
        for s, a, b, exact in self.runs:
            assert np.all((a <= s) & (s <= b))
            mid = 0.5 * (a + b)
            closed = (b - a <= tol) | (mid <= a) | (mid >= b)
            assert np.all(closed | exact)


def _targets(op, br, s_max, end_offsets):
    """Values of Phi across the branch, |s| <= s_max, and next to its ends.

    Each image endpoint that the branch attains at a finite slope (Phi'
    -> 0 at the perona and sine turning points and at the flat ends of
    the difference pieces) gets the values end_offsets inside it.
    """
    lo, hi = max(br.lo, -s_max), min(br.hi, s_max)
    ss = lo + (hi - lo) * np.linspace(0.0, 1.0, 401)[1:-1]
    ys = list(np.asarray(op(ss)))
    ends = [(br.lo, br.image_lo if br.increasing else br.image_hi),
            (br.hi, br.image_hi if br.increasing else br.image_lo)]
    for s_end, y_end in ends:
        if math.isfinite(s_end) and math.isfinite(y_end):
            inward = 1.0 if y_end == br.image_lo else -1.0
            ys += [y_end + inward * d for d in end_offsets]
    return np.array([y for y in ys if br.image_lo < y < br.image_hi])


# (id, operator, slope on the branch, hint, largest |s| sampled); mean
# curvature stops at |s| = 10, where Phi' = 1e-3: beyond, one ulp of Phi
# moves s by more than the tolerance (see the test after this one)
_CLOSED_FORM_BRANCHES = [
    ("r_laplacian", r_laplacian(3.0), 0.5, None, 1e3),
    ("r_laplacian_sublinear", r_laplacian(1.5), 0.5, None, 1e3),
    ("mean_curvature", mean_curvature(), 0.5, None, 10.0),
    ("relativistic", relativistic(), 0.5, None, 1e3),
    ("p_relativistic", p_relativistic(3.0), 0.5, None, 1e3),
    ("perona_mid", perona_malik(), 0.5, None, 1e3),
    ("perona_outer", perona_malik(), 3.0, None, 1e3),
    ("sine_shifted", sine(), 3.0, (math.pi / 2, 3 * math.pi / 2), 1e3),
]


@pytest.mark.parametrize(
    "op,s0,hint,s_max", [c[1:] for c in _CLOSED_FORM_BRANCHES],
    ids=[c[0] for c in _CLOSED_FORM_BRANCHES],
)
def test_generic_inverse_agrees_with_closed_form(op, s0, hint, s_max, monkeypatch):
    br = find_branch(op, s0) if hint is None else hint_branch(op, hint)
    assert br.inverse is not None
    generic = dataclasses.replace(br, inverse=None)
    ys = _targets(op, br, s_max, (1e-9, 1e-7, 1e-5))
    log = _BracketLog(operators.bracketed_root)
    monkeypatch.setattr(operators, "bracketed_root", log)
    s = partial_inverse_array(op, generic, ys)
    s_closed = partial_inverse_array(op, br, ys)
    assert np.all(np.abs(s - s_closed) <= 1e-12 * (1.0 + np.abs(s)))
    log.assert_certified(operators.BISECT_TOL)


def test_generic_inverse_toward_an_end_at_infinite_slope():
    # mean curvature reaches its image end 1 only as s -> inf, where
    # Phi' ~ s^-3: at y = 1 - 1e-9 (s ~ 2.2e4) one ulp of Phi moves s by
    # about 1e-3, so forward errors of both inverses are set by rounding;
    # the backward error stays at rounding level
    op = mean_curvature()
    br = find_branch(op, 0.5)
    generic = dataclasses.replace(br, inverse=None)
    ys = np.array([1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-7])
    s = partial_inverse_array(op, generic, ys)
    assert np.all(np.abs(np.asarray(op(s)) - ys) <= 4 * np.finfo(float).eps)
    # perona's outer piece reaches 0 only as s -> inf; y = 1e-9 needs
    # s ~ 1e9, beyond the work window, and is refused
    pm = perona_malik()
    outer = dataclasses.replace(find_branch(pm, 3.0), inverse=None)
    with pytest.raises(ImageDomainError, match="no bisection bracket"):
        partial_inverse_array(pm, outer, np.array([1e-9, 0.25]))


def test_difference_flat_end_keeps_certified_brackets(monkeypatch):
    # next to s_c = 1/sqrt(3) the right branch flattens (Phi' -> 0), so
    # regula falsi stalls and the bisection safeguard has to step in
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    assert br.inverse is None and br.lo == pytest.approx(1.0 / math.sqrt(3.0))
    ys = br.image_lo + np.geomspace(1e-12, 1e-2, 200)
    log = _BracketLog(operators.bracketed_root)
    monkeypatch.setattr(operators, "bracketed_root", log)
    s = partial_inverse_array(op, br, ys)
    log.assert_certified(operators.BISECT_TOL)
    assert log.midpoint_steps > 0
    assert np.all(s > br.lo)
    assert np.all(np.abs(np.asarray(op(s)) - ys) <= 1e-15)
    assert np.all(np.diff(s) > 0)


def _generic_branches():
    """Every catalog branch with a closed form, rebuilt without it, and the
    difference pieces, increasing and decreasing: (id, operator, branch,
    largest |s| sampled)."""
    cases = []
    for name, op, s0, hint, s_max in _CLOSED_FORM_BRANCHES:
        br = find_branch(op, s0) if hint is None else hint_branch(op, hint)
        br = dataclasses.replace(br, inverse=None)
        cases.append((name, op, br, s_max))
    for alpha, beta in ((2.0, 0.0), (0.0, 2.0)):
        op = difference(alpha, beta)
        for s0 in (-2.0, 0.0, 2.0):
            cases.append((f"difference_{alpha:g}_{beta:g}_at_{s0:g}", op, op.piece_at(s0), 1e3))
    return cases


@pytest.mark.parametrize(
    "op,br,s_max", [c[1:] for c in _generic_branches()],
    ids=[c[0] for c in _generic_branches()],
)
def test_generic_inverse_results_are_certified(op, br, s_max):
    # read from the results alone, whichever step closed each bracket:
    # the oriented Phi - y changes sign within BISECT_TOL (or one ulp) of
    # s, or vanishes at s.  Where Phi is flat to rounding (the perona
    # turning point), its computed values wobble by an ulp, so the sign
    # change is asserted up to two ulps of y
    assert br.inverse is None
    ys = _targets(op, br, s_max, np.geomspace(1e-12, 1e-2, 21))
    s = partial_inverse_array(op, br, ys)
    orient = 1.0 if br.increasing else -1.0

    def f(v):
        return orient * np.asarray(op(np.clip(v, br.lo, br.hi)))

    t = orient * ys
    h = np.maximum(operators.BISECT_TOL, np.spacing(np.abs(s)))
    ulps = 2.0 * np.spacing(np.abs(t))
    assert np.all((br.lo <= s) & (s <= br.hi))
    assert np.all(((f(s - h) <= t + ulps) & (t - ulps <= f(s + h))) | (f(s) == t))


@pytest.mark.parametrize("s_lo,s_hi", [(1.499, 1.501), (1.0, 2.0)])
def test_generic_inverse_memory_is_a_few_arrays(s_lo, s_hi):
    # 1e5 elements of the difference branch: a narrow range, certified
    # by the first step, and a wide one, where nearly every element takes
    # the second step on its own part of the record; about 8 and 12
    # arrays of the input's size are live at the peak
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    ys = np.asarray(op(np.linspace(s_lo, s_hi, 100_001)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        partial_inverse_array(op, br, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 14 * ys.nbytes


def test_scalar_inverse_is_the_array_inverse():
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    ys = np.array([-0.3, 0.0, 6.0, 1e4])
    vec = partial_inverse_array(op, br, ys)
    for y, s in zip(ys, vec):
        one = partial_inverse(op, br, float(y))
        assert one == float(partial_inverse_array(op, br, np.array([y]))[0])
        assert one == pytest.approx(s, rel=0.0, abs=operators.BISECT_TOL * (1.0 + abs(s)))


# -- the warm start of a generic inversion -------------------------------------

_CUBIC = PhiOperator("cubic", lambda s: s**3 - s)
_PERONA_EXPRESSION = PhiOperator("expression", compile_expression("s/(1+s^2)", ("s",)))


@st.composite
def _warm_branches(draw):
    """A generic branch, increasing or decreasing: a difference piece with
    drawn exponents, a sampled branch of s^3 - s, or one of the
    expression s/(1+s^2)."""
    kind = draw(st.sampled_from(["difference", "cubic", "expression"]))
    side = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    if kind == "difference":
        alpha = draw(st.floats(0.0, 3.0))
        beta = draw(st.floats(0.0, 3.0).filter(lambda b: abs(b - alpha) >= 0.25))
        op = difference(alpha, beta)
        s_c = ((beta + 1.0) / (alpha + 1.0)) ** (1.0 / (alpha - beta))
        return op, op.piece_at(2.0 * s_c * side)
    if kind == "cubic":
        return _CUBIC, find_branch(_CUBIC, 2.0 * side)
    return _PERONA_EXPRESSION, find_branch(_PERONA_EXPRESSION, 3.0 * side)


def _assert_certified(op, br, ys, s):
    # as test_generic_inverse_results_are_certified: Phi - y changes sign
    # within BISECT_TOL (or one ulp) of s, up to two ulps of y, or vanishes
    orient = 1.0 if br.increasing else -1.0

    def f(v):
        return orient * np.asarray(op(np.clip(v, br.lo, br.hi)))

    t = orient * ys
    h = np.maximum(operators.BISECT_TOL, np.spacing(np.abs(s)))
    ulps = 2.0 * np.spacing(np.abs(t))
    assert np.all((br.lo <= s) & (s <= br.hi))
    assert np.all(((f(s - h) <= t + ulps) & (t - ulps <= f(s + h))) | (f(s) == t))


@given(
    case=_warm_branches(),
    exponent=st.floats(-14.0, -1.0),
    alternate=st.booleans(),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_warm_inverse_is_certified_and_agrees_with_cold(case, exponent, alternate):
    # targets of Phi over the inner 90% of the branch (|s| <= 4) move by
    # 1e-14 to 1e-1 of 1 + |y|, all one way or alternating; an element
    # whose step from its anchor misses takes the step again, and
    # bracketed_root closes what is still open on its table cell, so
    # every result is certified either way
    op, br = case
    assert br.inverse is None
    lo, hi = max(br.lo, -4.0), min(br.hi, 4.0)
    ss = lo + (hi - lo) * np.linspace(0.05, 0.95, 301)
    y0 = np.asarray(op(ss), dtype=float)
    signs = np.where(np.arange(y0.size) % 2, -1.0, 1.0) if alternate else 1.0
    y1 = y0 + signs * 10.0**exponent * (1.0 + np.abs(y0))
    # away from the image ends, where Phi flattens to rounding
    keep = (y1 >= y0.min()) & (y1 <= y0.max())
    assume(keep.any())
    y0, y1 = y0[keep], y1[keep]
    start = operators.InverseStart()
    partial_inverse_array(op, br, y0, start)
    warm = partial_inverse_array(op, br, y1, start)
    cold = partial_inverse_array(op, br, y1)
    _assert_certified(op, br, y1, warm)
    assert np.all(np.abs(warm - cold) <= operators.BISECT_TOL * (1.0 + np.abs(cold)))
    # the record moved to the new brackets, on the branch
    assert np.all((br.lo <= start.s) & (start.s <= br.hi))


def _log_steps(monkeypatch):
    """Every step of the generic inverse, as (elements, missed), and the
    number of targets of every table it zooms."""
    steps, tables = [], []
    real_step, real_table = operators._warm_inverse, operators._zoomed_table

    def step(phi, branch, window, y, start, k=None):
        s, missed = real_step(phi, branch, window, y, start, k)
        steps.append((y.size if k is None else k.size, missed.size))
        return s, missed

    def table(phi, branch, window, y):
        tables.append(y.size)
        return real_table(phi, branch, window, y)

    monkeypatch.setattr(operators, "_warm_inverse", step)
    monkeypatch.setattr(operators, "_zoomed_table", table)
    return steps, tables


def test_warm_inverse_falls_back_on_a_large_shift(monkeypatch):
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    y0 = np.asarray(op(np.linspace(1.5, 2.5, 500)))
    start = operators.InverseStart()
    partial_inverse_array(op, br, y0, start)
    steps, tables = _log_steps(monkeypatch)
    # a small shift certifies in one step; after a shift of 1e-1 (s moves
    # by up to 1e-2) the first step misses everywhere, and the second,
    # from the anchors the first refreshed, certifies most elements with
    # no table.  Next to s = 1.5 the secant slope over the whole shift
    # leaves the second step's estimates a few 1e-14 out, and a table
    # zoomed onto those targets alone closes them
    near = partial_inverse_array(op, br, y0 + 1e-9, start)
    assert steps == [(y0.size, 0)]
    far = partial_inverse_array(op, br, y0 + 0.1, start)
    assert steps[1] == (y0.size, y0.size)
    assert steps[2][0] == y0.size and 0 < steps[2][1] < y0.size // 4
    assert tables == [steps[2][1]]
    _assert_certified(op, br, y0 + 1e-9, near)
    _assert_certified(op, br, y0 + 0.1, far)
    tables.clear()
    # the second step refreshed the record: the next small shift
    # certifies in one step again
    again = partial_inverse_array(op, br, y0 + 0.1 + 1e-9, start)
    assert steps[3:] == [(y0.size, 0)]
    assert tables == []
    _assert_certified(op, br, y0 + 0.1 + 1e-9, again)


def test_warm_inverse_closes_ulp_wide_brackets_at_large_slopes(monkeypatch):
    # beyond |s| = 256 one ulp exceeds BISECT_TOL / 2, so the two sides of
    # a warm estimate bracket it two ulps wide; bracketed_root closes
    # those inside the step, with no second step and no table
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    y0 = np.asarray(op(np.linspace(300.0, 310.0, 200)))
    start = operators.InverseStart()
    partial_inverse_array(op, br, y0, start)
    log = _BracketLog(operators.bracketed_root)
    monkeypatch.setattr(operators, "bracketed_root", log)
    steps, tables = _log_steps(monkeypatch)
    ys = y0 * (1.0 + 1e-12)
    warm = partial_inverse_array(op, br, ys, start)
    assert log.runs and steps == [(y0.size, 0)] and tables == []
    monkeypatch.undo()
    log.assert_certified(operators.BISECT_TOL)
    _assert_certified(op, br, ys, warm)
    cold = partial_inverse_array(op, br, ys)
    assert np.all(np.abs(warm - cold) <= 2.0 * np.spacing(np.abs(cold)))


def test_cold_call_anchors_elements_that_bracketed_root_closes(monkeypatch):
    # over s in [300, 1000] the table cells are wide, so the seeded step
    # and its retry leave elements open, and bracketed_root closes them on
    # their table cells; the record keeps every element's last step, and
    # the next call at a relative shift of 1e-12 certifies all in one step
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    y0 = np.asarray(op(np.linspace(300.0, 1000.0, 200)))
    start = operators.InverseStart()
    log = _BracketLog(operators.bracketed_root)
    monkeypatch.setattr(operators, "bracketed_root", log)
    cold = partial_inverse_array(op, br, y0, start)
    assert log.runs
    monkeypatch.undo()
    assert np.all((br.lo <= start.s) & (start.s <= br.hi))
    missed = []
    real_warm = operators._warm_inverse

    def warm(*args):
        s, miss = real_warm(*args)
        missed.append(miss.size)
        return s, miss

    monkeypatch.setattr(operators, "_warm_inverse", warm)
    ys = y0 * (1.0 + 1e-12)
    shifted = partial_inverse_array(op, br, ys, start)
    assert missed == [0]
    _assert_certified(op, br, ys, shifted)
    assert np.all(np.abs(shifted - cold) <= 1e-9 * np.abs(cold))


def test_warm_inverse_with_a_record_of_another_size_runs_cold(monkeypatch):
    op = difference(2.0, 0.0)
    br = find_branch(op, 2.0)
    start = operators.InverseStart()
    partial_inverse_array(op, br, np.asarray(op(np.linspace(1.0, 3.0, 7))), start)
    ys = np.asarray(op(np.linspace(1.0, 3.0, 11)))
    s = partial_inverse_array(op, br, ys, start)
    assert start.s.size == ys.size
    assert np.array_equal(s, partial_inverse_array(op, br, ys))


def test_closed_form_branch_leaves_the_record_empty():
    op = perona_malik()
    br = find_branch(op, 0.0)
    start = operators.InverseStart()
    partial_inverse_array(op, br, np.array([0.1, 0.2]), start)
    assert start.s is None and start.phi is None and start.slope is None


@pytest.mark.parametrize("n", [2000, 10_000])
def test_solve_bisect_shape_inverts_warm_with_three_evaluations(monkeypatch, n):
    # the solve-bisect workload's problem: 3 outer iterations, 4 map
    # evaluations and 4 inversions, one in each sweep after the first,
    # where the beta solve predicts its root from the record; the first
    # inversion seeds the record from its table with one vector
    # evaluation of Phi and certifies every element in one step of 3
    # more, and each later one certifies every element from the record
    # with that step and nothing else
    op, sizes = _counting(difference(2.0, 0.0))
    rhs = Rhs(
        fn=lambda t, x, y: 0.05 * np.cos(x) * np.sin(y),
        psi=lambda t: np.full_like(t, 0.05),
        name="bisect-shape",
    )
    prob = make_problem(op, constant_weight(1.0), rhs, 0.0, 1.5, 1.0, mesh_n=n)
    calls = []
    evals = []
    real_value = solver.BetaEquation.value

    def counted(phi, branch, y, start=None):
        warm = start is not None and start.s is not None and start.s.size == np.size(y)
        sizes.clear()
        out = partial_inverse_array(phi, branch, y, start)
        calls.append((warm, list(sizes)))
        return out

    monkeypatch.setattr(solver, "partial_inverse_array", counted)
    monkeypatch.setattr(
        solver.BetaEquation, "value", lambda self, xi: evals.append(xi) or real_value(self, xi)
    )
    report = solver.solve(prob)
    assert report.status == "converged"
    assert report.iterations == 3
    assert len(evals) == 4 and len(calls) == 4
    assert [warm for warm, _ in calls] == [False] + [True] * 3
    nodes = prob.mesh.nodes.size
    seeded = [k for k in calls[0][1] if k > operators.INVERSE_TABLE_SIZE]
    assert seeded == [nodes] * 4
    for _, evaluated in calls[1:]:
        assert evaluated == [nodes] * 3


def test_far_warm_targets_certify_in_a_second_step(monkeypatch):
    # difference(2, 0), f = cos(x) sin(y), nu2 = 1.5, n = 2000: some warm
    # inversions of this solve move s by up to 1e-3, too far for one step
    # to certify.  The second step, from the anchors the first refreshed,
    # certifies them: bracketed_root closes nothing, and no inversion but
    # the first zooms a table
    rhs = Rhs(
        fn=lambda t, x, y: np.cos(x) * np.sin(y),
        psi=lambda t: np.full_like(t, 1.0),
        name="far-targets",
    )
    prob = make_problem(difference(2.0, 0.0), constant_weight(1.0), rhs, 0.0, 1.5, 1.0, mesh_n=2000)
    closed = []
    real_root = operators.bracketed_root

    def root(g, a, *args, **kwargs):
        closed.append(np.size(a))
        return real_root(g, a, *args, **kwargs)

    monkeypatch.setattr(operators, "bracketed_root", root)
    steps, tables = _log_steps(monkeypatch)
    per_call = []

    def counted(phi, branch, y, start=None):
        before = (len(steps), len(tables))
        out = partial_inverse_array(phi, branch, y, start)
        per_call.append((len(steps) - before[0], len(tables) - before[1]))
        return out

    monkeypatch.setattr(solver, "partial_inverse_array", counted)
    report = solver.solve(prob)
    assert report.status == "converged" and report.iterations == 5
    assert sum(closed) == 0
    assert per_call[0][1] == 1 and all(built == 0 for _, built in per_call[1:])
    assert any(taken == 2 for taken, _ in per_call[1:])
