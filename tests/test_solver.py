"""Beta-equation oracles, g-map identities, and end-to-end solves."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp import (
    BetaBracketError,
    InvalidInputError,
    MeshMismatchError,
    MonotoneBranch,
    PhiOperator,
    RhsEvaluationError,
    Weight,
    constant_rhs,
    constant_weight,
    derive_scalars,
    envelopes,
    make_operator,
    make_problem,
    one_plus_t_squared_weight,
    sqrt_t_weight,
    zero_rhs,
)
from phibvp import parse_config
from phibvp import solver as solver_mod
from phibvp.config import load_problem_config
from phibvp.grid import Mesh, lp_norm
from phibvp.problem import Rhs
from phibvp.solver import (
    BETA_MAX_ITER,
    MIN_OMEGA,
    BetaEquation,
    IterationConfig,
    SolverKernel,
    g_map,
    solve,
    truncated_rhs,
    verify,
)


WEAVE = Rhs(
    fn=lambda t, x, y: 0.2 * np.sin(3.0 * t + x) - 0.1 * np.cos(y),
    psi=lambda t: np.full_like(np.asarray(t, dtype=float), 0.3),
    name="weave",
)


def _identity_problem(rhs, nu1=0.0, nu2=0.0, T=1.0, n=1000):
    phi = make_operator("r_laplacian", r=2.0)
    return make_problem(phi, constant_weight(1.0), rhs, nu1, nu2, T, mesh_n=n)


def _beta(prob, Fcum):
    return BetaEquation.build(SolverKernel(prob), Fcum).solve(1e-12)


def _target(eq):
    return eq.kernel.problem.nu2 - eq.kernel.problem.nu1


class TestBetaSolve:
    def test_zero_forcing_recovers_reference_slope(self):
        phi = make_operator("perona_malik")
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=500
        )
        Fcum = np.zeros(prob.mesh.nodes.size)
        beta = _beta(prob, Fcum)
        assert beta == pytest.approx(0.2752293577981651, abs=1e-11)

    def test_linear_forcing_oracle(self):
        # integral of (beta + t) over [0,1] equals 1 forces beta = 1/2
        prob = _identity_problem(zero_rhs(), nu1=0.0, nu2=1.0)
        Fcum = prob.mesh.nodes.copy()
        beta = _beta(prob, Fcum)
        assert beta == pytest.approx(0.5, abs=1e-11)

    def test_zero_mean_forcing(self):
        prob = _identity_problem(zero_rhs(), nu1=0.0, nu2=0.0)
        Fcum = prob.mesh.nodes - 0.5
        beta = _beta(prob, Fcum)
        assert beta == pytest.approx(0.0, abs=1e-11)

    def test_decreasing_branch_bisection(self):
        phi = make_operator("sine")
        prob = make_problem(
            phi,
            constant_weight(1.0),
            zero_rhs(),
            0.0,
            3.0,
            1.0,
            branch_hint=(math.pi / 2, 3 * math.pi / 2),
        )
        Fcum = np.zeros(prob.mesh.nodes.size)
        beta = _beta(prob, Fcum)
        assert beta == pytest.approx(math.sin(3.0), abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(-0.2, 0.2),
        st.floats(-0.2, 0.2),
        st.floats(0.5, 3.0),
    )
    def test_scalar_map_is_monotone(self, xi1, xi2, freq):
        if abs(xi1 - xi2) < 1e-9:
            return
        phi = make_operator("perona_malik")
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.1, 1.0, mesh_n=100
        )
        kern = SolverKernel(prob)
        F = 0.2 * np.sin(freq * prob.mesh.nodes)
        eq = BetaEquation.build(kern, F)
        lo, hi = sorted((xi1, xi2))
        assert eq.value(lo) < eq.value(hi)

    def test_build_rejects_a_wrong_length_or_non_finite_forcing(self):
        prob = _identity_problem(zero_rhs(), nu2=0.3, n=100)
        kern = SolverKernel(prob)
        with pytest.raises(InvalidInputError, match="cumulative grid lives on a different mesh"):
            BetaEquation.build(kern, np.zeros(100))
        F = np.zeros(101)
        F[7] = np.nan
        with pytest.raises(InvalidInputError, match="grid function values must be finite"):
            BetaEquation.build(kern, F)

    @staticmethod
    def _bisect_shape(n=2000):
        # the solve-bisect workload's problem: difference alpha=2 beta=0
        # (no closed-form inverse), constant weight, f = 0.05 cos(x) sin(y)
        rhs = Rhs(
            fn=lambda t, x, y: 0.05 * np.cos(x) * np.sin(y),
            psi=lambda t: np.full_like(t, 0.05),
            name="bisect-shape",
        )
        phi = make_operator("difference", alpha=2.0, beta=0.0)
        return make_problem(phi, constant_weight(1.0), rhs, 0.0, 1.5, 1.0, mesh_n=n)

    def test_at_most_eight_map_evaluations_per_sweep(self, monkeypatch):
        prob = self._bisect_shape()
        assert prob.branch.inverse is None
        evals, inversions = [], []
        real_value = BetaEquation.value
        real_g_map = solver_mod.g_map
        real_inverse = solver_mod.partial_inverse_array

        def value(self, xi):
            evals[-1] += 1
            return real_value(self, xi)

        def inverse(*args):
            inversions[-1] += 1
            return real_inverse(*args)

        def g_map_counted(*args, **kwargs):
            evals.append(0)
            inversions.append(0)
            return real_g_map(*args, **kwargs)

        monkeypatch.setattr(BetaEquation, "value", value)
        monkeypatch.setattr(solver_mod, "partial_inverse_array", inverse)
        monkeypatch.setattr(solver_mod, "g_map", g_map_counted)
        report = solve(prob)
        assert report.status == "converged"
        assert len(evals) == report.iterations
        # the walk from the warm start certifies a local bracket; the
        # theoretical bracket's ends are never evaluated here
        assert max(evals) <= 4
        assert sum(evals) <= 3 * report.iterations
        # g_map builds the new iterate from the solve's last evaluation,
        # so Phi is inverted once per map evaluation
        assert inversions == evals

    def _sweep_equation(self):
        prob = self._bisect_shape(n=500)
        kern = SolverKernel(prob)
        F = 0.05 * np.sin(3.0 * prob.mesh.nodes)
        Fcum = np.cumsum(F) / F.size
        return BetaEquation.build(kern, Fcum)

    def test_the_anchor_places_the_first_trial_point(self, monkeypatch):
        eq = self._sweep_equation()
        root = eq.solve(1e-12)
        assert abs(eq.value(root) - _target(eq)) <= 1e-12
        calls = []
        real_value = BetaEquation.value
        monkeypatch.setattr(
            BetaEquation, "value", lambda self, xi: calls.append(xi) or real_value(self, xi)
        )
        # an output whose u has the mean root + Fbar: the model's root is
        # the root, and that one evaluation meets tol_beta
        anchored = BetaEquation.build(eq.kernel, eq.F_n, ubar=root + eq.F_mean)
        assert anchored.solve(1e-12) == calls[0] == pytest.approx(root, rel=1e-15)
        assert len(calls) == 1
        # a model root outside [lo, hi]: the midpoint is the first trial
        calls.clear()
        far = BetaEquation.build(eq.kernel, eq.F_n, ubar=1e6)
        assert abs(far.solve(1e-12) - root) <= 1e-9
        lo, hi = self._theoretical_bracket(eq)
        assert calls[0] == pytest.approx(0.5 * (lo + hi), abs=1e-12 * (hi - lo))

    @staticmethod
    def _theoretical_bracket(eq):
        # [lo, hi] of BetaEquation.solve: Phi(s*_d) minus the range of F,
        # padded, and kept inside the branch image at every sample
        problem = eq.kernel.problem
        s_star_d = _target(eq) / eq.kernel.disc.k1
        phi_sd = float(problem.phi(s_star_d))
        m_F, M_F = float(eq.F_n.min()), float(eq.F_n.max())
        pad = 1e-12 * (1.0 + abs(phi_sd) + abs(m_F) + abs(M_F))
        lo, hi = phi_sd - M_F - pad, phi_sd - m_F + pad
        b1, b2 = problem.branch.image_lo, problem.branch.image_hi
        if math.isfinite(b1):
            lo = max(lo, b1 - m_F + 1e-14 * (1.0 + abs(b1)))
        if math.isfinite(b2):
            hi = min(hi, b2 - M_F - 1e-14 * (1.0 + abs(b2)))
        return lo, hi

    def test_replay_every_beta_is_certified(self, monkeypatch):
        # one [eq, tol, beta, [(xi, value - target), ...]] per solve call
        solves = []
        real_value = BetaEquation.value
        real_solve = BetaEquation.solve

        def value(self, xi):
            v = real_value(self, xi)
            solves[-1][3].append((xi, v - _target(self)))
            return v

        def solve_logged(self, tol_beta):
            solves.append([self, tol_beta, None, []])
            solves[-1][2] = real_solve(self, tol_beta)
            return solves[-1][2]

        monkeypatch.setattr(BetaEquation, "value", value)
        monkeypatch.setattr(BetaEquation, "solve", solve_logged)
        problems = [
            self._bisect_shape(),
            make_problem(
                make_operator("relativistic"), one_plus_t_squared_weight(),
                WEAVE, 0.0, 0.5, 1.0, mesh_n=400,
            ),
        ]
        # damped, so that the solves run enough sweeps to replay
        for prob in problems:
            assert solve(prob, IterationConfig(omega=0.5)).status == "converged"
        # a decreasing branch keeps its orientation outside solve()
        sine = make_problem(
            make_operator("sine"), constant_weight(1.0), zero_rhs(), 0.0, 3.0, 1.0,
            branch_hint=(math.pi / 2, 3 * math.pi / 2),
        )
        eq = BetaEquation.build(
            SolverKernel(sine),
            0.05 * np.sin(5.0 * sine.mesh.nodes),
        )
        cold = eq.solve(1e-12)
        BetaEquation.build(eq.kernel, eq.F_n, ubar=cold + eq.F_mean + 1e-3).solve(1e-12)
        eq.solve(1e-300)
        assert len(solves) > 10
        # each beta is an evaluated point with |r| <= tol, or lies between
        # two evaluated points of opposite sign inside [lo, hi]
        for eq, tol, beta, log in solves:
            lo, hi = self._theoretical_bracket(eq)
            sgn = 1.0 if eq.kernel.problem.branch.increasing else -1.0
            points = [(xi, sgn * r) for xi, r in log]
            if any(xi == beta and abs(r) <= tol for xi, r in points):
                continue
            assert any(
                lo <= a <= beta <= b <= hi
                for a, r_a in points
                for b, r_b in points
                if r_a < 0.0 < r_b
            ), (beta, points, lo, hi)

    @pytest.mark.parametrize(
        "weight, nu2, a, w, b",
        [
            (constant_weight(1.0), -0.5, 0.5, 4.0, -0.2),
            (constant_weight(1.0), 1.5, -0.25, 10.0, -0.1),
            (one_plus_t_squared_weight(), 1.2, -0.15, 5.5, -0.3),
        ],
    )
    def test_no_point_is_evaluated_twice(self, monkeypatch, weight, nu2, a, w, b):
        # at an unreachable tolerance the bracket closes down to adjacent
        # floats; a regula falsi point that rounds onto a bracket end must
        # not be evaluated again (these equations repeated 42-69 points)
        prob = make_problem(
            make_operator("mean_curvature"), weight, zero_rhs(), 0.0, nu2, 1.0,
            mesh_n=200,
        )
        t = prob.mesh.nodes
        eq = BetaEquation.build(SolverKernel(prob), a * np.sin(w * t) + b * t)
        calls = []
        real_value = BetaEquation.value
        monkeypatch.setattr(
            BetaEquation, "value", lambda self, xi: calls.append(xi) or real_value(self, xi)
        )
        beta = eq.solve(1e-300)
        assert beta in calls
        assert len(calls) == len(set(calls))

    def test_affine_phi_cold_start_takes_one_evaluation(self, monkeypatch):
        # Phi(s) = s: Phi(s*_d) minus the 1/k-weighted mean of F is the root
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, one_plus_t_squared_weight(), zero_rhs(), 0.0, 0.4, 2.0, mesh_n=300
        )
        F = 0.3 * np.sin(3.0 * prob.mesh.nodes)
        eq = BetaEquation.build(SolverKernel(prob), F)
        calls = []
        real_value = BetaEquation.value
        monkeypatch.setattr(
            BetaEquation, "value", lambda self, xi: calls.append(xi) or real_value(self, xi)
        )
        beta = eq.solve(1e-12)
        assert len(calls) == 1 and calls[0] == beta
        assert abs(real_value(eq, beta) - _target(eq)) <= 1e-12

    def test_empty_bracket_message(self):
        # the image (-1, 1) of mean curvature is narrower than F = 2.5 t spans
        prob = make_problem(
            make_operator("mean_curvature"), constant_weight(1.0), zero_rhs(),
            0.0, 0.5, 1.0, mesh_n=200,
        )
        eq = BetaEquation.build(SolverKernel(prob), 2.5 * prob.mesh.nodes)
        with pytest.raises(BetaBracketError) as info:
            eq.solve(1e-12)
        assert str(info.value) == (
            "empty bisection bracket [-0.99999999999998, -1.50000000000002]; "
            "the compatibility margin is thinner than quadrature accuracy"
        )

    def test_bracket_that_never_straddles_message(self, monkeypatch):
        # the relativistic inverse is bounded by 1, so value + 10 never
        # reaches the target however far the bracket expands
        prob = make_problem(
            make_operator("relativistic"), constant_weight(1.0), zero_rhs(),
            0.0, 0.5, 1.0, mesh_n=200,
        )
        eq = BetaEquation.build(
            SolverKernel(prob),
            np.zeros(prob.mesh.nodes.size),
        )
        real_value = BetaEquation.value
        monkeypatch.setattr(BetaEquation, "value", lambda self, xi: real_value(self, xi) + 10.0)
        with pytest.raises(BetaBracketError) as info:
            eq.solve(1e-12)
        assert str(info.value) == (
            "bisection bracket does not straddle the boundary target: "
            "residuals (8.50000000000004, 10.000000000001023) "
            "at (-3637247.422649732, 0.5773502691912032)"
        )

    def test_unreachable_tolerance_returns_best_point(self, monkeypatch):
        eq = self._sweep_equation()
        calls = []
        real_value = BetaEquation.value

        def value(self, xi):
            r = real_value(self, xi)
            calls.append((abs(r - _target(self)), xi))
            return r

        monkeypatch.setattr(BetaEquation, "value", value)
        beta = eq.solve(1e-300)
        # the loop ends when no float is left inside the bracket, and the
        # answer is the evaluated point of least residual
        assert beta == min(calls)[1]
        assert min(calls)[0] <= 1e-12
        assert len(calls) <= BETA_MAX_ITER + 2


class TestTruncatedRhs:
    def _setup(self, rhs, nu2=0.0):
        prob = _identity_problem(rhs, nu2=nu2, n=100)
        sc = derive_scalars(prob)
        env = envelopes(prob)
        return prob, sc, env

    def test_zero_rhs_gives_zero_grid(self):
        prob, sc, env = self._setup(zero_rhs())
        x = np.zeros(101)
        F = truncated_rhs(prob, env, x, x)
        assert np.all(F == 0.0)

    def test_inactive_truncation_matches_raw_f(self):
        rhs = Rhs(
            fn=lambda t, x, y: np.sin(x) + 0.1 * y,
            psi=lambda t: np.full_like(t, 10.0),
            name="smooth",
        )
        prob, sc, env = self._setup(rhs, nu2=0.3)
        x = np.full(101, 0.15)
        xp = np.full(101, 0.3)
        stats = {}
        F = truncated_rhs(prob, env, x, xp, stats=stats)
        expect = np.sin(0.15) + 0.03
        assert np.allclose(F, expect, atol=1e-14)
        assert stats["truncated_nodes"] == 0
        assert stats["psi_clips"] == 0

    def test_x_above_box_is_clamped(self):
        rhs = Rhs(
            fn=lambda t, x, y: 0.001 * x,
            psi=lambda t: np.full_like(t, 1.0),
            name="linear_x",
        )
        prob, sc, env = self._setup(rhs, nu2=0.3)
        box_hi = max(prob.nu1, sc.N2)
        x = np.full(101, box_hi + 5.0)
        xp = np.full(101, sc.s_star)
        stats = {}
        F = truncated_rhs(prob, env, x, xp, stats=stats)
        assert np.allclose(F, 0.001 * box_hi, atol=1e-12)
        assert stats["truncated_nodes"] == prob.mesh.nodes.size
        assert stats["psi_clips"] == 0

    def test_psi_violation_is_clipped_and_counted(self, caplog):
        rhs = Rhs(
            fn=lambda t, x, y: np.full_like(t, 3.0),
            psi=lambda t: np.full_like(t, 1.0),
            name="liar",
        )
        prob, sc, env = self._setup(rhs)
        x = np.zeros(101)
        stats = {}
        with caplog.at_level("WARNING", logger="phibvp.solver"):
            F = truncated_rhs(prob, env, x, x, stats=stats)
        assert np.all(F == 1.0)
        assert stats["psi_clips"] == 101
        assert any("psi domination" in r.message for r in caplog.records)

    def test_nonfinite_f_raises_with_node(self):
        rhs = Rhs(
            fn=lambda t, x, y: np.where(t > 0.5, np.nan, 0.0),
            psi=lambda t: np.ones_like(t),
            name="nan_tail",
        )
        prob, sc, env = self._setup(rhs)
        x = np.zeros(101)
        with pytest.raises(RhsEvaluationError) as exc:
            truncated_rhs(prob, env, x, x)
        assert "node" in str(exc.value)
        # the first non-finite node is named
        assert exc.value.node_index == 51

    @pytest.mark.parametrize("weight", [constant_weight(1.0), sqrt_t_weight()])
    def test_a_constant_f_fills_the_nodes(self, weight):
        # with and without a singular node, where F holds 0
        rhs = Rhs(fn=lambda t, x, y: 0.25, psi=lambda t: np.ones_like(t), name="const")
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, weight, rhs, 0.0, 0.0, 1.0, mesh_n=100)
        x = np.zeros(101)
        F = truncated_rhs(prob, envelopes(prob), x, x)
        expect = np.where(prob.mesh.singular_mask(), 0.0, 0.25)
        assert F.shape == (101,) and np.array_equal(F, expect)


class TestGMap:
    def test_non_finite_output_is_rejected(self, monkeypatch):
        prob = _identity_problem(zero_rhs(), nu2=0.7)
        zeros = np.zeros(prob.mesh.nodes.size)
        monkeypatch.setattr(BetaEquation, "solve", lambda self, tol: 0.0)
        monkeypatch.setattr(
            BetaEquation, "cumulative", lambda self, xi: (np.full(zeros.size, np.inf), zeros)
        )
        with pytest.raises(InvalidInputError, match="grid function values must be finite"):
            g_map(prob, zeros, zeros)

    def test_single_sweep_solves_constant_forcing(self):
        # x'' = 2 with zero boundary data: beta = -1, x = t^2 - t
        prob = _identity_problem(constant_rhs(2.0))
        zeros = np.zeros(prob.mesh.nodes.size)
        step = g_map(prob, zeros, zeros)
        t = prob.mesh.nodes
        assert step.beta == pytest.approx(-1.0, abs=1e-12)
        assert np.max(np.abs(step.x - (t * t - t))) <= 1e-12
        assert np.max(np.abs(step.x_prime - (2 * t - 1))) <= 1e-12
        assert np.max(np.abs(step.u - (2 * t - 1))) <= 1e-12
        assert abs(float(step.x[-1]) - prob.nu2) <= 1e-12

    def test_affine_output_for_zero_forcing(self):
        prob = _identity_problem(zero_rhs(), nu2=0.7)
        zeros = np.zeros(prob.mesh.nodes.size)
        step = g_map(prob, zeros, zeros)
        t = prob.mesh.nodes
        assert np.max(np.abs(step.x - 0.7 * t)) <= 1e-12


class TestSolve:
    def test_initial_guess_is_checked_before_the_first_sweep(self, monkeypatch):
        prob = _identity_problem(constant_rhs(0.5), nu2=0.4, n=100)
        sweeps = []
        real_g_map = solver_mod.g_map
        monkeypatch.setattr(
            solver_mod, "g_map", lambda *a, **k: sweeps.append(1) or real_g_map(*a, **k)
        )
        x0 = 0.4 * prob.mesh.nodes
        bad = x0.copy()
        bad[50] = np.nan
        with pytest.raises(InvalidInputError, match="grid function values must be finite"):
            solve(prob, initial=(bad, np.full(101, 0.4)))
        with pytest.raises(InvalidInputError, match="grid function values must be finite"):
            solve(prob, initial=(x0, np.where(x0 > 0.2, np.nan, 0.4)))
        with pytest.raises(MeshMismatchError):
            solve(prob, initial=(x0[:-1], np.full(100, 0.4)))
        assert sweeps == []
        assert solve(prob, initial=(x0, np.full(101, 0.4))).status == "converged"
        assert sweeps

    def test_initial_guess_is_only_read(self):
        # a warm start from another report's columns, scaled out of the
        # box so that the projection moves it
        prob = _identity_problem(constant_rhs(0.5), nu2=0.4, n=100)
        cold = solve(prob)
        start = (5.0 * cold.x.values, -2.0 * cold.x_prime.values)
        kept = tuple(a.copy() for a in start)
        warm = solve(prob, initial=start)
        assert warm.status == "converged"
        for a, b in zip(start, kept):
            assert np.array_equal(a, b)
        for col in (warm.x.values, warm.x_prime.values, warm.u.values):
            assert not any(np.shares_memory(col, a) for a in start)

    def test_table_nan_at_singular_nodes_is_accepted_as_initial(self):
        # a solution table writes dx = nan at the singular nodes: a warm
        # start from it reads them as the placeholder 0
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, sqrt_t_weight(), constant_rhs(0.05), 0.0, 0.3, 1.0, mesh_n=256
        )
        cold = solve(prob)
        singular = prob.mesh.singular_mask()
        assert cold.status == "converged" and singular.any()
        dx = np.where(singular, np.nan, cold.x_prime.values)
        warm = solve(prob, initial=(cold.x.values, dx))
        assert warm.status == "converged"
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.x.values, cold.x.values, rtol=0.0, atol=1e-9)
        zero = solve(prob, initial=(cold.x.values, np.where(singular, 0.0, dx)))
        for a, b in zip((warm.x, warm.x_prime, warm.u), (zero.x, zero.x_prime, zero.u)):
            assert np.array_equal(a.values, b.values)

    def test_zero_forcing_converges_immediately(self):
        report = solve(_identity_problem(zero_rhs(), nu2=0.4))
        t = report.x.mesh.nodes
        assert report.status == "converged"
        assert report.iterations == 1
        assert np.max(np.abs(report.x.values - 0.4 * t)) <= 1e-12
        assert report.residual <= 1e-14
        assert report.truncation_count == 0

    def test_constant_forcing_quadratic_solution(self):
        prob = _identity_problem(constant_rhs(2.0))
        report = solve(prob)
        t = report.x.mesh.nodes
        assert report.status == "converged"
        assert report.iterations <= 3
        assert np.max(np.abs(report.x.values - (t * t - t))) <= 1e-10
        assert report.beta == pytest.approx(-1.0, abs=1e-10)
        assert report.boundary_defect <= 1e-12
        assert report.max_envelope_excess <= 1e-12
        v = verify(prob, report.x.values, report.x_prime.values, report.u.values)
        assert v.ok
        assert v.boundary_defect <= 1e-12
        assert v.operator_defect <= 1e-12
        assert v.integral_defect <= 1e-10
        assert v.slope_defect <= 1e-10
        assert v.residual_defect <= 1e-14

    def test_weighted_zero_forcing_matches_arctan(self):
        phi = make_operator("relativistic")
        prob = make_problem(
            phi, one_plus_t_squared_weight(), zero_rhs(), 0.0, 0.5, 1.0
        )
        report = solve(prob)
        t = prob.mesh.nodes
        closed = 0.5 * np.arctan(t) / math.atan(1.0)
        assert report.status == "converged"
        assert report.iterations == 1
        assert np.max(np.abs(report.x.values - closed)) <= 1e-5
        assert report.max_envelope_excess <= 1e-12

    def test_velocity_coupled_forcing_against_shooting(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rhs = Rhs(
            fn=lambda t, x, y: np.cos(x) * y**4,
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), 0.1),
            name="cos_quartic",
        )
        prob = _identity_problem(rhs, nu2=0.3)
        report = solve(prob)
        assert report.status == "converged"
        assert report.truncation_count == 0
        assert report.psi_clip_count == 0
        assert report.max_envelope_excess <= 1e-10

        def ode(t, z):
            return [z[1], math.cos(z[0]) * z[1] ** 4]

        def endpoint(slope):
            sol = scipy_integrate.solve_ivp(
                ode, (0.0, 1.0), [0.0, slope], rtol=1e-11, atol=1e-13
            )
            return sol.y[0, -1] - 0.3

        slope0 = scipy_optimize.brentq(endpoint, 0.05, 0.55, xtol=1e-13)
        sol = scipy_integrate.solve_ivp(
            ode,
            (0.0, 1.0),
            [0.0, slope0],
            rtol=1e-11,
            atol=1e-13,
            t_eval=prob.mesh.nodes,
        )
        assert np.max(np.abs(report.x.values - sol.y[0])) <= 1e-5

    def test_fixed_point_consistency(self):
        rhs = Rhs(
            fn=lambda t, x, y: np.cos(x) * y**4,
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), 0.1),
            name="cos_quartic",
        )
        prob = _identity_problem(rhs, nu2=0.3)
        cfg = IterationConfig()
        report = solve(prob, cfg)
        assert report.status == "converged"
        again = g_map(prob, report.x.values, report.x_prime.values)
        from phibvp.solver import _w1p_distance

        dist = _w1p_distance(
            prob.mesh,
            again.x - report.x.values,
            again.x_prime - report.x_prime.values,
            prob.p,
        )
        assert dist <= 2.0 * cfg.tol_fp

    def test_decreasing_branch_solve(self):
        phi = make_operator("sine")
        rhs = Rhs(
            fn=lambda t, x, y: 0.05 * np.cos(np.pi * t),
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), 0.05),
            name="small_wave",
        )
        prob = make_problem(
            phi,
            constant_weight(1.0),
            rhs,
            0.0,
            3.0,
            1.0,
            branch_hint=(math.pi / 2, 3 * math.pi / 2),
        )
        report = solve(prob)
        assert report.status == "converged"
        assert report.boundary_defect <= 1e-10
        # u must be Phi(k x') = sin(x'), with the branch's own sign
        pointwise = np.sin(report.x_prime.values)
        assert np.max(np.abs(report.u.values - pointwise)) <= 1e-9
        assert report.max_envelope_excess <= 1e-8

    @staticmethod
    def _negated_mirror(prob):
        # the increasing problem with -Phi, its branch and -f: the same x,
        # with u and beta negated
        phi, br, rhs = prob.phi, prob.branch, prob.rhs
        inv = br.inverse
        return replace(
            prob,
            phi=PhiOperator(
                name=f"neg_{phi.name}",
                fn=lambda s: -np.asarray(phi.fn(s), dtype=float),
                odd=phi.odd,
            ),
            branch=MonotoneBranch(
                br.lo, br.hi, True, -br.image_hi, -br.image_lo,
                inverse=None if inv is None else (lambda y: inv(-np.asarray(y, dtype=float))),
            ),
            rhs=Rhs(
                fn=lambda t, x, y: -np.asarray(rhs.fn(t, x, y), dtype=float),
                psi=rhs.psi,
            ),
        )

    @pytest.mark.parametrize(
        "operator, weight, f, psi, nu2, hint",
        [
            ("sine", constant_weight(1.0), "cos(pi t)", 0.05, 3.0, (math.pi / 2, 3 * math.pi / 2)),
            ("sine", sqrt_t_weight(), "cos(x) sin(y)", 0.05, 6.0, (math.pi / 2, 3 * math.pi / 2)),
            ("perona_malik", constant_weight(1.0), "cos(x) sin(y)", 0.02, 2.0, None),
            ("difference", one_plus_t_squared_weight(), "cos(x) sin(y)", 0.015, 0.3, None),
        ],
    )
    def test_decreasing_branch_mirrors_negated_problem(
        self, monkeypatch, operator, weight, f, psi, nu2, hint
    ):
        params = {"alpha": 2.0, "beta": 0.0} if operator == "difference" else {}
        shape = {
            "cos(pi t)": lambda t, x, y: np.cos(np.pi * t) + 0.0 * x,
            "cos(x) sin(y)": lambda t, x, y: np.cos(x) * np.sin(y) + 0.0 * t,
        }[f]
        rhs = Rhs(
            fn=lambda t, x, y: psi * shape(t, x, y),
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), psi),
        )
        prob = make_problem(
            make_operator(operator, **params), weight, rhs, 0.0, nu2, 1.0,
            branch_hint=hint, mesh_n=300,
        )
        assert not prob.branch.increasing
        mirror = self._negated_mirror(prob)
        expected = solve(mirror)
        assert expected.status == "converged"

        calls = []
        real = solver_mod.derive_scalars
        monkeypatch.setattr(
            solver_mod, "derive_scalars", lambda problem: calls.append(problem) or real(problem)
        )
        report = solve(prob)
        # the problem is solved as it is given: no second, flipped copy
        assert len(calls) == 1 and calls[0] is prob
        assert report.status == "converged"
        assert np.array_equal(report.x.values, expected.x.values)
        assert np.array_equal(report.x_prime.values, expected.x_prime.values)
        assert np.array_equal(report.u.values, -expected.u.values)
        assert report.beta == -expected.beta
        assert report.iterations == expected.iterations

    def test_singular_weight_square_root_profile(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, sqrt_t_weight(), zero_rhs(), 0.0, 1.0, 1.0, mesh_n=256
        )
        report = solve(prob)
        assert report.status == "converged"
        assert report.x_prime.values[0] == 0.0
        t = prob.mesh.nodes
        keep = t >= 0.01
        assert np.max(np.abs(report.x.values[keep] - np.sqrt(t[keep]))) <= 5e-3
        assert report.boundary_defect <= 1e-10

    def test_max_iters_status(self):
        cfg = IterationConfig(max_outer=1)
        report = solve(_identity_problem(constant_rhs(2.0)), cfg)
        assert report.status == "max-iters"
        assert report.iterations == 1

    def test_psi_violation_surfaces_in_status(self):
        rhs = Rhs(
            fn=lambda t, x, y: np.full_like(t, 0.5),
            psi=lambda t: np.full_like(t, 0.2),
            name="liar",
        )
        report = solve(_identity_problem(rhs, nu2=0.1))
        assert report.status == "hypothesis-violation"
        assert report.psi_clip_count > 0


PERONA_ROW = """
[operator]
name = perona_malik

[weight]
name = constant
value = 1.0

[rhs]
example = perona
alpha = 4
M = 1
N = 1

[problem]
nu1 = 0.0
nu2 = 0.07
T = 1.0

[mesh]
n = 2000
"""

DIFFERENCE_DECREASING = """
[operator]
name = difference
alpha = 2
beta = 0

[weight]
name = {weight}

[rhs]
f = 0.01*cos(x)*sin(y) + 0.005*cos(3*t)
psi = 0.015

[problem]
nu1 = 0.0
nu2 = 0.3
T = 1.0

[mesh]
n = 2000
"""


def _config_problem(text):
    config = load_problem_config(parse_config(text))
    return config.build_finite()


class TestPredictedRoot:
    """Every beta solve starts at the root of the linear model of its
    scalar map (the inversion record's, or the uniform one about the last
    output); the counts are deterministic."""

    @staticmethod
    def _counted_solve(monkeypatch, prob):
        """solve(prob), and per beta solve: its map evaluations, its
        inversions, and |value - target| at the beta it returned."""
        solves = []
        real_value = BetaEquation.value
        real_solve = BetaEquation.solve
        real_inverse = solver_mod.partial_inverse_array

        def value(self, xi):
            solves[-1]["evals"] += 1
            return real_value(self, xi)

        def inverse(*args):
            solves[-1]["inversions"] += 1
            return real_inverse(*args)

        def solve_logged(self, tol_beta):
            solves.append(dict(evals=0, inversions=0))
            beta = real_solve(self, tol_beta)
            # g_map integrates this point next, so this costs nothing more
            cum = self.cumulative(beta)[0]
            solves[-1]["residual"] = abs(float(cum[-1]) - _target(self))
            solves[-1]["tol"] = tol_beta
            return beta

        monkeypatch.setattr(BetaEquation, "value", value)
        monkeypatch.setattr(BetaEquation, "solve", solve_logged)
        monkeypatch.setattr(solver_mod, "partial_inverse_array", inverse)
        report = solve(prob)
        assert report.status == "converged"
        return report, solves

    @pytest.mark.parametrize(
        "build, iterations, before, after",
        [
            (lambda: _config_problem(PERONA_ROW), 6, 16, 13),
            (
                lambda: make_problem(
                    make_operator("r_laplacian", r=2.0), one_plus_t_squared_weight(),
                    WEAVE, 0.0, 0.4, 1.0, mesh_n=400,
                ),
                5, 9, 5,
            ),
        ],
        ids=["perona", "r_laplacian-2"],
    )
    def test_a_closed_form_solve_predicts_too(
        self, monkeypatch, build, iterations, before, after
    ):
        # `before` is the count of the solver that started a closed-form
        # solve at the previous sweep's beta; the uniform model predicts
        # beta + Fbar - Fbar_new instead
        prob = build()
        assert prob.branch.inverse is not None
        report, solves = self._counted_solve(monkeypatch, prob)
        assert report.iterations == iterations
        assert sum(s["evals"] for s in solves) == after < before
        for s in solves:
            assert s["residual"] <= s["tol"], s

    @pytest.mark.parametrize(
        "build, iterations, before, after",
        [
            (lambda: _config_problem(DIFFERENCE_DECREASING.format(weight="one_plus_t_squared")),
             4, 10, 7),
            (lambda: _config_problem(DIFFERENCE_DECREASING.format(weight="sqrt_t")), 4, 10, 6),
            (
                lambda: make_problem(
                    make_operator("difference", alpha=2.0, beta=0.0), constant_weight(1.0),
                    Rhs(
                        fn=lambda t, x, y: np.cos(x) * np.sin(y),
                        psi=lambda t: np.full_like(t, 1.0),
                        name="far-targets",
                    ),
                    0.0, 1.5, 1.0, mesh_n=2000,
                ),
                5, 18, 11,
            ),
        ],
        ids=["difference-decreasing", "difference-decreasing-sqrt-t", "far-targets"],
    )
    def test_a_generic_solve_evaluates_less_in_as_many_sweeps(
        self, monkeypatch, build, iterations, before, after
    ):
        # `before` is the count of the solver without the prediction
        prob = build()
        assert prob.branch.inverse is None
        report, solves = self._counted_solve(monkeypatch, prob)
        assert report.iterations == iterations
        evaluations = sum(s["evals"] for s in solves)
        assert evaluations == after < before
        assert sum(s["inversions"] for s in solves) == evaluations
        for s in solves:
            assert s["residual"] <= s["tol"], s

    def test_an_affine_generic_phi_inverts_once_per_later_sweep(self, monkeypatch):
        # Phi(s) = 2s + 0.5 without a closed-form inverse: the record's
        # line is the scalar map itself, so its root needs no walk
        phi = PhiOperator("affine", lambda s: 2.0 * s + 0.5)
        prob = make_problem(
            phi, one_plus_t_squared_weight(), WEAVE, 0.0, 0.4, 1.0, mesh_n=400
        )
        assert prob.branch.inverse is None
        report, solves = self._counted_solve(monkeypatch, prob)
        assert report.iterations == len(solves) > 2
        assert all(s["inversions"] == 1 for s in solves[1:])

    def test_an_affine_closed_form_phi_evaluates_once_per_sweep(self, monkeypatch):
        # an interval of the half-line schedule: Phi(s) = s, so the uniform
        # model is the scalar map itself on every sweep, the first included
        prob = _config_problem(
            "[operator]\nname = r_laplacian\nr = 2\n\n"
            "[weight]\nname = one_plus_t_squared\n\n"
            "[rhs]\nexample = halfline1\n\n"
            "[problem]\nnu1 = 0.0\nnu2 = 0.2\nT = 5\n\n"
            "[mesh]\nn = 1000\n"
        )
        report, solves = self._counted_solve(monkeypatch, prob)
        assert report.iterations == len(solves) > 2
        assert [s["evals"] for s in solves] == [1] * len(solves)

    def test_a_first_step_near_the_root_is_not_doubled(self, monkeypatch):
        # the first sweep of solve-bisect variant 1: the first step, with
        # the slope of the record the first evaluation left, lands within a
        # few tol_beta (r = -4.5e-12); a secant step from there meets
        # tol_beta, where a doubled one crossed the root and closed the
        # bracket in a fourth evaluation
        prob = _config_problem(
            "[operator]\nname = difference\nalpha = 2\nbeta = 0\n\n"
            "[weight]\nname = constant\nvalue = 1.0\n\n"
            "[rhs]\nf = 0.049919340183478891 * cos(x) * sin(y)\n"
            "psi = 0.049919340183478891\n\n"
            "[problem]\nnu1 = 0.0\nnu2 = 1.4804388028080981\nT = 1.0\n\n"
            "[mesh]\nn = 10000\n"
        )
        report, solves = self._counted_solve(monkeypatch, prob)
        assert report.iterations == 3
        assert solves[0]["evals"] == solves[0]["inversions"] == 3
        for s in solves:
            assert s["residual"] <= s["tol"], s


class TestMixing:
    """Iteration counts are deterministic, so they may gate the mixing."""

    def test_difference_shape_converges_in_three_sweeps(self):
        report = solve(TestBetaSolve._bisect_shape())
        assert report.status == "converged"
        assert report.iterations <= 3  # 5 with omega = 0.5

    def test_perona_sweep_row_converges_in_six_sweeps(self):
        config = load_problem_config(parse_config(PERONA_ROW))
        problem = config.build_finite()
        assert config.run_check(problem).overall == "pass"
        report = solve(problem)
        assert report.status == "converged"
        assert report.iterations <= 6  # 9 with omega = 0.5
        assert report.omega_halvings == report.secant_rejections == 0

    def test_stagnation_halves_omega(self, monkeypatch):
        # the stagnation counter reads the step norms: the first
        # `stagnation` + 1 are reported as one stalled value, so omega
        # halves once whatever the rounding; the real steps then contract,
        # and the damped loop converges in some 20 more sweeps (undamped
        # and unstalled, this problem never halves omega)
        rhs = Rhs(
            fn=lambda t, x, y: 0.8 * np.cos(x) * np.sin(y),
            psi=lambda t: np.full_like(t, 0.8),
            name="oscillating",
        )
        prob = make_problem(
            make_operator("r_laplacian", r=3.0), constant_weight(1.0), rhs,
            0.0, 0.2, 1.0, mesh_n=200,
        )
        cfg = IterationConfig(stagnation=3)
        real, steps = solver_mod._w1p_distance, []

        def stalled(*args):
            steps.append(real(*args))
            return 1.0 if len(steps) <= cfg.stagnation + 1 else steps[-1]

        monkeypatch.setattr(solver_mod, "_w1p_distance", stalled)
        report = solve(prob, cfg)
        assert report.omega_halvings == 1
        assert report.iterations > cfg.stagnation + 10
        assert report.status == "converged"
        assert verify(prob, report.x.values, report.x_prime.values, report.u.values).ok

    def test_skipped_secant_steps_are_counted(self, monkeypatch):
        # non-finite coefficients: every secant step is skipped, which
        # leaves the plain undamped Picard step
        def no_fit(d_res, res):
            return np.full(d_res.shape[0], np.nan)

        monkeypatch.setattr(solver_mod, "_secant_coefficients", no_fit)
        report = solve(TestBetaSolve._bisect_shape())
        assert report.status == "converged"
        assert report.omega_halvings == 0
        # the first sweep has no history and the last one stops the loop
        assert report.secant_rejections == report.iterations - 2 > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ring_step_is_the_least_squares_step(self, m):
        # the mixed point from consecutive differences, in any ring order,
        # is the one a (2n, m) least-squares fit of the differences against
        # the current iterate gives
        rng = np.random.default_rng(m)
        zs = rng.standard_normal((m + 1, 600))  # oldest first, current last
        hs = zs + rng.standard_normal((m + 1, 600))
        rs = hs - zs
        cols_r = np.stack([rs[-1] - rs[-1 - j] for j in range(1, m + 1)], axis=1)
        cols_h = np.stack([hs[-1] - hs[-1 - j] for j in range(1, m + 1)], axis=1)
        gamma_ref = np.linalg.lstsq(cols_r, rs[-1], rcond=None)[0]
        expected = hs[-1] - cols_h @ gamma_ref

        ring = np.roll(np.arange(m), 1)
        d_res, d_mixed = np.diff(rs, axis=0)[ring], np.diff(hs, axis=0)[ring]
        gamma = solver_mod._secant_coefficients(d_res, rs[-1])
        mixed = hs[-1] - gamma @ d_mixed
        assert np.linalg.norm(mixed - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rank_deficient_history_gives_min_norm_coefficients(self):
        rng = np.random.default_rng(5)
        row, other, res = rng.standard_normal((3, 600))
        for d_res in (np.stack([row, other, row]), np.stack([row, row])):
            gamma = solver_mod._secant_coefficients(d_res, res)
            assert np.all(np.isfinite(gamma)) and np.max(np.abs(gamma)) <= 1e4
            min_norm = np.linalg.lstsq(d_res.T, res, rcond=None)[0]
            assert np.allclose(gamma, min_norm, rtol=1e-6, atol=1e-12)
        # equal residuals: every difference is zero, and so is gamma
        gamma = solver_mod._secant_coefficients(np.zeros((3, 600)), res)
        assert np.array_equal(gamma, np.zeros(3))


class TestVerify:
    def test_corrupted_solution_is_flagged(self):
        phi = make_operator("relativistic")
        prob = make_problem(
            phi, one_plus_t_squared_weight(), zero_rhs(), 0.0, 0.5, 1.0
        )
        report = solve(prob)
        record = verify(
            prob, 1.1 * report.x.values, report.x_prime.values, report.u.values
        )
        assert record.boundary_defect == pytest.approx(0.05, abs=1e-6)
        assert not record.ok

    def test_refined_check_passes_clean_solution(self):
        prob = _identity_problem(constant_rhs(2.0))
        report = solve(prob)
        record = verify(prob, report.x.values, report.x_prime.values, report.u.values)
        assert record.ok
        assert record.integral_defect <= 1e-10
        assert record.boundary_defect <= 1e-12

    def test_f_is_evaluated_at_the_nodes_only(self):
        # 1/k and psi are the only functions sampled at the midpoints of
        # the cells next to a singular node: solve and verify call f on
        # node arrays, never on those midpoints
        text = (
            PERONA_ROW.replace("name = constant\nvalue = 1.0", "name = sqrt_t")
            .replace("M = 1\nN = 1", "M = 0.5\nN = 0.1")
            .replace("nu2 = 0.07", "nu2 = 0.05")
            .replace("n = 2000", "n = 1000")
        )
        prob = load_problem_config(parse_config(text)).build_finite()
        assert prob.mesh.mid_cells.size
        sizes = []
        fn = prob.rhs.fn

        def recorded(t, x, y):
            sizes.append((np.size(t), np.size(x), np.size(y)))
            return fn(t, x, y)

        prob = replace(prob, rhs=replace(prob.rhs, fn=recorded))
        report = solve(prob)
        assert report.status == "converged"
        assert verify(prob, report.x.values, report.x_prime.values, report.u.values).ok
        n_nodes = prob.mesh.nodes.size
        assert sizes and set(sizes) == {(n_nodes, n_nodes, n_nodes)}

    # r = 2, the weave right-hand side, nu2 = 0.3 on [0, 1]; [mesh] n and
    # the weight per problem
    WEAVE = """
[operator]
name = r_laplacian
r = 2.0

[weight]
{weight}

[rhs]
f = 0.2*sin(3*t + x) - 0.1*cos(y)
psi = 0.3

[problem]
nu1 = 0.0
nu2 = 0.3
T = 1.0

[mesh]
n = {n}
"""
    VERIFY_PROBLEMS = {
        "uniform": ("name = constant\nvalue = 1.0", 50),
        "one_plus_t_squared": ("name = one_plus_t_squared", 500),
        # graded toward the singular node t = 0, a midpoint-rule cell
        "sqrt_t": ("name = sqrt_t", 80),
        # an interior singular node, graded toward from both sides
        "interior_singular": ("name = constant\nvalue = 1.0", 60),
    }

    @pytest.mark.parametrize("name", list(VERIFY_PROBLEMS))
    def test_record_verification_is_what_verify_prints(
        self, tmp_path, monkeypatch, capsys, printed_verification, name
    ):
        from phibvp import cli
        from phibvp import config as config_mod

        if name == "interior_singular":
            monkeypatch.setattr(
                config_mod, "default_mesh", lambda weight, T, n: Mesh.graded(T, n, [0.5])
            )
        weight, n = self.VERIFY_PROBLEMS[name]
        cfg = tmp_path / "weave.cfg"
        cfg.write_text(self.WEAVE.format(weight=weight, n=n))
        out = tmp_path / "run"
        assert cli.main(["solve", str(cfg), "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", str(out / "solution.txt"), str(cfg)]) == 0
        printed = printed_verification(capsys.readouterr().out)
        record = parse_config((out / "record.txt").read_text())
        assert record.section("solve.verification") == printed
        assert printed["ok"] == "true"

    def test_verify_memory_is_a_few_arrays_of_the_mesh(self):
        # 32000 cells: each node array is 0.25 MiB; the defects take a
        # dozen of them, no refined mesh
        prob = _identity_problem(constant_rhs(2.0), n=32000)
        report = solve(prob)
        columns = (report.x.values, report.x_prime.values, report.u.values)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            verify(prob, *columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * 2**20


def _masked_envelope_excess(mesh, x_vals, xp_vals, box, envs):
    # the excess as it was computed with the singular nodes masked out
    lo, hi = box
    ns = ~mesh.singular_mask()
    ex_x = float(max(np.max(lo - x_vals), np.max(x_vals - hi), 0.0))
    ex_y = float(
        max(
            np.max(envs.eta1[ns] - xp_vals[ns]),
            np.max(xp_vals[ns] - envs.eta2[ns]),
            0.0,
        )
    )
    return ex_x, ex_y


class TestEnvelopeExcess:
    @pytest.mark.parametrize("where", ["sqrt_t", "interior"])
    def test_mask_free_excess_is_the_masked_one(self, monkeypatch, where):
        weave = Rhs(
            fn=lambda t, x, y: 0.2 * np.sin(3.0 * t + x) - 0.1 * np.cos(y),
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), 0.3),
            name="weave",
        )
        if where == "sqrt_t":
            weight = sqrt_t_weight()
        else:
            weight = Weight(
                fn=lambda t: np.sqrt(np.abs(np.asarray(t) - 0.5)), singular_points=(0.5,)
            )
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, weight, weave, 0.0, 0.3, 1.0, mesh_n=200)
        assert prob.mesh.singular_indices
        calls = []
        original = solver_mod._envelope_excess

        def checked(x_vals, xp_vals, box, envs):
            got = original(x_vals, xp_vals, box, envs)
            assert got == _masked_envelope_excess(prob.mesh, x_vals, xp_vals, box, envs)
            calls.append(got)
            return got

        monkeypatch.setattr(solver_mod, "_envelope_excess", checked)
        report = solve(prob)
        assert report.status == "converged"
        cold = len(calls)
        # a start outside the box and the envelopes is clipped into them
        solve(prob, initial=(2.0 * report.x.values, -3.0 * report.x_prime.values))
        # measured: the start, each sweep's g output and the final report;
        # a mixed iterate is clipped into the box and envelopes (excess 0)
        assert cold == report.iterations + 2 and len(calls) > cold + 2


def _lp_norm_distance(mesh, dx, dxp, p):
    # the step norm as it was taken: two lp_norm calls
    return float((lp_norm(mesh, dx, p) ** p + lp_norm(mesh, dxp, p) ** p) ** (1.0 / p))


def _step_mesh(kind: str, n: int) -> Mesh:
    if kind == "uniform":
        return Mesh.uniform(1.0, n)
    return Mesh.graded(1.0, n, [0.0] if kind == "graded" else [0.0, 0.5])


class TestStepNorm:
    # Measured: over 3000 random draws with up to 4000 cells, the one-pass
    # distance and the lp_norm form differ by at most 21 eps relative (the
    # running sum against the pairwise one); the bound is three times that
    REL_BOUND = 64 * np.finfo(float).eps

    @given(
        kind=st.sampled_from(["uniform", "graded", "singular"]),
        n=st.integers(4, 4000),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-12.0, 3.0),
        p=st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_one_pass_distance_agrees_with_lp_norm(self, kind, n, seed, exponent, p):
        # graded: one singular end; singular: an interior singular point too
        mesh = _step_mesh(kind, n)
        rng = np.random.default_rng(seed)
        size = mesh.nodes.size
        scale = 10.0**exponent
        dx = rng.normal(0.0, scale, size) * (rng.random(size) < 0.5)
        dxp = rng.normal(0.0, scale * 10.0 ** rng.uniform(-3.0, 3.0), size)
        new = solver_mod._w1p_distance(mesh, dx, dxp, p)
        old = _lp_norm_distance(mesh, dx, dxp, p)
        assert abs(new - old) <= self.REL_BOUND * old

    @pytest.mark.parametrize("kind", ["uniform", "graded", "singular"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_a_non_finite_entry_raises_as_before(self, kind, bad, p):
        mesh = _step_mesh(kind, 64)
        for where in (0, 1, mesh.nodes.size - 1, *mesh.singular_indices):
            for column in (0, 1):
                pair = [np.ones(mesh.nodes.size), np.ones(mesh.nodes.size)]
                pair[column][where] = bad
                for distance in (_lp_norm_distance, solver_mod._w1p_distance):
                    with pytest.raises(InvalidInputError, match="grid function values must be finite"):
                        distance(mesh, *pair, p)


class TestIterationConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            IterationConfig(omega=0.0)
        with pytest.raises(InvalidInputError):
            IterationConfig(omega=1.5)
        with pytest.raises(InvalidInputError):
            IterationConfig(tol_fp=-1.0)
        # omega halves down to MIN_OMEGA, so it may not start below it
        with pytest.raises(InvalidInputError):
            IterationConfig(omega=0.5 * MIN_OMEGA)
        assert IterationConfig(omega=MIN_OMEGA).omega == MIN_OMEGA
