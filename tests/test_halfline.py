"""Half-line exhaustion: interval schedule, gaps, and uniform bounds.

The workhorse oracle is the weight k(t) = 1 + t^2 with f = 0: each
interval [0, n] has the closed-form solution
    x_n(t) = lam * arctan(t) / arctan(n),
so the gap between consecutive extensions is lam * (1 - arctan(n)/arctan(m))
and the limit profile is the heteroclinic x(t) = (2 lam / pi) arctan(t).
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phibvp import (
    DEFAULT_SCHEDULE,
    DomainError,
    GridFunction,
    HalflineProblem,
    InvalidInputError,
    IterationConfig,
    Mesh,
    Rhs,
    Weight,
    constant_weight,
    extend_by_nu2,
    find_branch,
    halfline_integral,
    k_mass_upto,
    load_problem_config,
    make_operator,
    one_plus_t_squared_weight,
    parse_config,
    solve,
    solve_halfline,
    sqrt_t_weight,
    zero_rhs,
)
from phibvp.halfline import _gap, _interval_problem

LAM = 0.2


def arctan_problem(lam=LAM, psi_l1=0.0, **kwargs):
    phi = make_operator("r_laplacian", r=2.0)
    branch = find_branch(phi, 0.1)
    return HalflineProblem(
        phi,
        branch,
        one_plus_t_squared_weight(),
        zero_rhs(),
        0.0,
        lam,
        psi_l1=psi_l1,
        **kwargs,
    )


def closed_form_gap(lam, n, m):
    return lam * (1.0 - math.atan(n) / math.atan(m))


class TestExtension:
    def make_grid(self):
        mesh = Mesh.uniform(2.0, 8)
        return GridFunction(mesh, mesh.nodes**2)

    def test_exact_at_nodes_and_constant_beyond(self):
        g = self.make_grid()
        assert extend_by_nu2(g, g.mesh.nodes) == pytest.approx(g.values)
        out = extend_by_nu2(g, [0.0, 2.0, 5.0, 1e9])
        assert out[0] == 0.0
        assert out[1] == 4.0
        assert out[2] == 4.0 and out[3] == 4.0

    def test_linear_between_nodes(self):
        g = self.make_grid()
        # midpoint of the cell [0.25, 0.5] on the chord, not the parabola
        val = extend_by_nu2(g, [0.375])[0]
        assert val == pytest.approx(0.5 * (0.25**2 + 0.5**2))

    def test_negative_points_rejected(self):
        with pytest.raises(DomainError):
            extend_by_nu2(self.make_grid(), [-0.1, 1.0])


@st.composite
def interval_solution(draw, T: float) -> GridFunction:
    """A piecewise-linear function on a random mesh of [0, T]."""
    inner = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=30, unique=True))
    nodes = np.concatenate(([0.0], np.sort(inner) * T, [T]))
    assume(np.all(np.diff(nodes) > 0.0))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=nodes.size, max_size=nodes.size))
    return GridFunction(Mesh(nodes), np.array(values))


@given(data=st.data(), n=st.sampled_from((1.0, 2.5, 5.0)))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_gap_is_the_sup_over_the_union_of_the_meshes(data, n):
    # each extension is linear between its own nodes, so the sup over the
    # sorted union of both meshes is the larger of the sups over each one
    prev = data.draw(interval_solution(n))
    cur = data.draw(interval_solution(2.0 * n))
    assume(not np.isin(prev.mesh.nodes, cur.mesh.nodes).all())
    pts = np.union1d(prev.mesh.nodes, cur.mesh.nodes)
    union_sup = float(np.max(np.abs(extend_by_nu2(prev, pts) - extend_by_nu2(cur, pts))))
    assert _gap(prev, cur) == union_sup


class TestHalflineIntegral:
    def test_decaying_tail_mass(self):
        r = 0.05

        def psi_r(t):
            t = np.asarray(t, dtype=float)
            return r * np.minimum(1.0, 1.0 / t**2)

        total, tail = halfline_integral(psi_r)
        assert total == pytest.approx(2.0 * r, rel=1e-3)
        assert tail <= 1e-3 * total

    def test_fat_tail_is_visible(self):
        total, tail = halfline_integral(lambda t: np.ones_like(np.asarray(t, float)))
        assert total == pytest.approx(1e6, rel=1e-6)
        assert tail > 1e-3 * total


class TestKMass:
    def test_exact_antiderivatives(self):
        assert k_mass_upto(one_plus_t_squared_weight(), 5.0) == math.atan(5.0)
        assert k_mass_upto(sqrt_t_weight(), 4.0) == pytest.approx(4.0, abs=1e-14)
        assert k_mass_upto(constant_weight(2.0), 3.0) == pytest.approx(1.5)

    def test_numeric_fallback(self):
        w = Weight(fn=lambda t: 1.0 + np.asarray(t, float) ** 2, name="no-K")
        assert k_mass_upto(w, 5.0) == pytest.approx(math.atan(5.0), abs=1e-6)

    def test_argument_validation(self):
        w = one_plus_t_squared_weight()
        with pytest.raises(InvalidInputError):
            k_mass_upto(w, 0.0)
        with pytest.raises(InvalidInputError):
            k_mass_upto(w, math.inf)


class TestProblemValidation:
    def test_schedule_rules(self):
        with pytest.raises(InvalidInputError):
            arctan_problem(schedule=(5.0,))
        with pytest.raises(InvalidInputError):
            arctan_problem(schedule=(5.0, 5.0))
        with pytest.raises(InvalidInputError):
            arctan_problem(schedule=(10.0, 5.0))
        with pytest.raises(InvalidInputError):
            arctan_problem(schedule=(0.0, 5.0))

    def test_scalar_rules(self):
        with pytest.raises(InvalidInputError):
            arctan_problem(tol_h=0.0)
        with pytest.raises(InvalidInputError):
            arctan_problem(cells_per_unit=0)
        with pytest.raises(InvalidInputError):
            arctan_problem(lam=math.nan)
        with pytest.raises(InvalidInputError):
            arctan_problem(p=0.5)
        with pytest.raises(InvalidInputError):
            arctan_problem(k_infinity=0.0)
        with pytest.raises(InvalidInputError):
            arctan_problem(psi_l1=-1.0)


class TestArctanFamily:
    def test_schedule_converges_with_closed_form_profiles(self):
        rep = solve_halfline(arctan_problem())
        assert rep.status == "converged"
        assert [r.n for r in rep.runs] == [5.0, 10.0, 20.0, 40.0, 80.0, 160.0]
        assert [label for label, _ in rep.gaps] == [5.0, 10.0, 20.0, 40.0, 80.0]

        for run in rep.runs:
            assert run.k_n == math.atan(run.n)
            assert run.s_star_n == pytest.approx(LAM / math.atan(run.n), rel=1e-12)
            assert run.report.status == "converged"
            nodes = run.report.x.mesh.nodes
            exact = LAM * np.arctan(nodes) / math.atan(run.n)
            assert np.max(np.abs(run.report.x.values - exact)) <= 1e-6

        gap_vals = [g for _, g in rep.gaps]
        assert all(a > b for a, b in zip(gap_vals, gap_vals[1:]))
        for (label, got), m in zip(rep.gaps, [10.0, 20.0, 40.0, 80.0, 160.0]):
            assert got == pytest.approx(closed_form_gap(LAM, label, m), rel=1e-4)
        assert gap_vals[-1] <= 1e-3

    def test_limit_quantities(self):
        rep = solve_halfline(arctan_problem())
        assert rep.scalars.k_inf == math.pi / 2.0
        assert rep.scalars.k_tail == 0.0
        assert rep.scalars.s_inf == pytest.approx(2.0 * LAM / math.pi, rel=1e-12)
        assert rep.scalars.ell_inf == 0.0
        assert rep.tail_value == pytest.approx(LAM, abs=1e-12)
        assert rep.tail_defect <= 1e-12
        assert rep.offset_bound == pytest.approx(2.0 * LAM, rel=1e-12)

    def test_degenerate_slope_box_is_reported_honestly(self):
        # psi = 0 collapses the limit slope box to the single point s*_inf,
        # while each finite interval runs at the strictly larger s*_n; the
        # uniform envelope flag must come out False, not be fudged to True.
        rep = solve_halfline(arctan_problem())
        assert rep.scalars.slope_lo == rep.scalars.slope_hi
        assert not rep.uniform_envelope_ok
        first = rep.runs[0]
        expected_excess = LAM / math.atan(5.0) - 2.0 * LAM / math.pi
        assert first.envelope_excess == pytest.approx(expected_excess, rel=1e-6)
        # the offset bound C = 2 lam is respected by every interval
        assert rep.uniform_offset_ok
        assert all(r.offset_excess == 0.0 for r in rep.runs)

    def test_constant_solution_converges_immediately(self):
        phi = make_operator("r_laplacian", r=2.0)
        branch = find_branch(phi, 0.0)
        hetero = HalflineProblem(
            phi,
            branch,
            one_plus_t_squared_weight(),
            zero_rhs(),
            0.3,
            0.3,
            psi_l1=0.0,
        )
        rep = solve_halfline(hetero)
        assert rep.status == "converged"
        assert len(rep.runs) == 2
        assert rep.gaps == ((5.0, 0.0),)
        assert np.all(rep.runs[-1].report.x.values == 0.3)
        # s*_inf = 0 lies in the slope box, so both uniform flags hold
        assert rep.uniform_envelope_ok
        assert rep.uniform_offset_ok

    def test_schedule_exhausted(self):
        rep = solve_halfline(arctan_problem(schedule=(5.0, 10.0), tol_h=1e-9))
        assert rep.status == "schedule-exhausted"
        assert len(rep.runs) == 2
        assert len(rep.gaps) == 1
        assert rep.gaps[0][1] == pytest.approx(closed_form_gap(LAM, 5.0, 10.0), rel=1e-4)


# the half-line benchmark workload's config at its unjittered nu2
HALFLINE1 = """[problem]
nu1 = 0.0
nu2 = 0.2
halfline = true

[operator]
name = r_laplacian
r = 2

[weight]
name = one_plus_t_squared

[rhs]
example = halfline1

[check]
kind = halfline
l_lip = 1
delta = 0.5
"""


class TestWarmStart:
    """Each interval starts from the previous solution moved by the change
    of the affine-in-K profile from [0, n_prev] to [0, n]."""

    def test_zero_forcing_warm_intervals_take_one_sweep(self):
        # the profile solves every interval when f = 0, so the moved start
        # is already the fixed point
        rep = solve_halfline(arctan_problem())
        assert len(rep.runs) == 6
        assert [run.report.iterations for run in rep.runs[1:]] == [1] * 5

    def test_halfline1_takes_few_sweeps_and_agrees_with_tight_solves(self):
        cfg = load_problem_config(parse_config(HALFLINE1))
        hp = cfg.build_halfline()
        rep = solve_halfline(hp, cfg.iteration)
        assert rep.status == "converged" and len(rep.runs) == 6
        # 27 sweeps from the extension by nu2 alone
        assert sum(run.report.iterations for run in rep.runs) <= 22
        tight = dataclasses.replace(cfg.iteration, tol_fp=1e-14)
        for run in rep.runs:
            ref = solve(_interval_problem(hp, run.n), tight)
            assert ref.status == "converged"
            for column in ("x", "x_prime", "u"):
                got = getattr(run.report, column).values
                want = getattr(ref, column).values
                assert np.max(np.abs(got - want)) <= 1e-11, (run.n, column)


def test_a_held_report_keeps_no_interval_problem_alive(monkeypatch):
    # a report holds its solution columns, not the problem each interval
    # solved: the 1/k and psi samples of an interval die with its solve
    from phibvp import halfline

    real, problems = halfline.solve, []

    def tracked(problem, *args, **kwargs):
        problems.append(weakref.ref(problem))
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(halfline, "solve", tracked)
    cfg = load_problem_config(parse_config(HALFLINE1))
    rep = solve_halfline(cfg.build_halfline(), cfg.iteration)
    assert rep.status == "converged" and len(problems) == len(rep.runs) == 6
    gc.collect()
    assert [ref() for ref in problems] == [None] * 6


class TestAbortPaths:
    def test_margin_failure_aborts_with_detail(self):
        phi = make_operator("perona_malik")
        branch = find_branch(phi, 0.1)
        rhs = Rhs(
            fn=lambda t, x, y: 0.0 * (t + x + y),
            psi=lambda t: 0.2 * np.exp(-np.asarray(t, dtype=float)),
            name="fat-psi",
        )
        hetero = HalflineProblem(
            phi,
            branch,
            one_plus_t_squared_weight(),
            rhs,
            0.0,
            0.15,
            psi_l1=0.2,
            cells_per_unit=100,
        )
        rep = solve_halfline(hetero)
        assert rep.status == "aborted"
        assert rep.runs == ()
        assert "interval [0, 5]" in rep.detail
        assert rep.x_final is None
        assert math.isnan(rep.tail_value)

    def test_nonconverged_interval_aborts(self):
        phi = make_operator("r_laplacian", r=2.0)
        branch = find_branch(phi, 0.1)
        rhs = Rhs(
            fn=lambda t, x, y: t**2 * np.cos(x) * y**3,
            psi=lambda t: 0.05
            * np.minimum(1.0, 1.0 / np.asarray(t, dtype=float) ** 2),
            name="cubic-tail",
        )
        hetero = HalflineProblem(
            phi,
            branch,
            one_plus_t_squared_weight(),
            rhs,
            0.0,
            0.2,
            psi_l1=0.1,
            cells_per_unit=50,
        )
        rep = solve_halfline(hetero, IterationConfig(max_outer=2))
        assert rep.status == "aborted"
        assert len(rep.runs) == 1
        assert "solver status" in rep.detail
        assert rep.runs[0].report.status == "max-iters"


def test_default_schedule_is_the_doubling_ladder():
    assert DEFAULT_SCHEDULE == (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
