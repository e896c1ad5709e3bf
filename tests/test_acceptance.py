"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single verdict line and enforces its own wall-clock
budget, so a pytest -v run reads as the acceptance checklist.  Oracle
constants are frozen from closed forms derived by hand; nothing here is
tuned to the solver's output.
"""

import math
import time

import numpy as np
import pytest

from phibvp import (
    BetaEquation,
    HalflineProblem,
    IterationConfig,
    Mesh,
    Rhs,
    SolverKernel,
    Weight,
    beta_solve,
    check_corollary_singular,
    check_halfline,
    check_theorem1,
    constant_weight,
    cumulative_integral,
    derive_scalars,
    envelopes,
    example_condition,
    find_branch,
    load_problem_config,
    make_operator,
    make_problem,
    make_weight,
    one_plus_t_squared_weight,
    parse_config,
    partial_inverse_array,
    plaplacian_bound,
    plaplacian_maximizer,
    solve,
    solve_halfline,
    sqrt_t_weight,
    zero_rhs,
)
from phibvp.cli import main, read_solution_table

R0 = (math.pi + 4.0) ** -1.5  # decay scale of the cubic half-line family


class _Clock:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"budget {self.budget}s exceeded: {self.elapsed:.2f}s"
            )
        return False


def _verdict(n, label, clock):
    print(f"criterion {n:02d} [{label}]: PASS ({clock.elapsed:.2f}s)")


def test_01_plaplacian_bound_and_sweep(tmp_path):
    with _Clock(5.0) as clock:
        bound, z_solver = plaplacian_bound(2.0, 4.0, 1.0)
        assert bound == pytest.approx(0.375, abs=1e-9)
        z_star, _ = plaplacian_maximizer(2.0, 4.0, 1.0)
        assert z_star == pytest.approx(0.0625, abs=1e-8)
        # at the bound a certificate still exists; beyond it none does
        assert z_solver(0.375) is not None
        assert z_solver(0.3751) is None

        cfg = tmp_path / "plap.cfg"
        cfg.write_text(
            "[operator]\nname = r_laplacian\nr = 2.0\n\n"
            "[weight]\nname = constant\nvalue = 1.0\n\n"
            "[rhs]\nexample = plaplacian\np = 2.0\nbeta = 4.0\nN = 1.0\n\n"
            "[problem]\nnu1 = 0.0\nnu2 = 0.3\nT = 1.0\n\n"
            "[mesh]\nn = 200\n\n"
            "[sweep]\nlambda_min = 0.30\nlambda_max = 0.45\ncount = 31\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "-o", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "sweep.txt").read_text().splitlines()[1:]
        ]
        passes = [float(r[0]) for r in rows if r[1] == "pass"]
        fails = [float(r[0]) for r in rows if r[1] != "pass"]
        assert passes and fails
        flip = 0.5 * (max(passes) + min(fails))
        assert max(passes) < min(fails)
        assert abs(flip - 0.375) <= 0.005
    _verdict(1, "p-laplacian growth bound 0.375 + sweep flip", clock)


def test_02_perona_threshold(tmp_path):
    with _Clock(1.0) as clock:
        cond = example_condition("perona", 0.05, alpha=4.0)
        threshold = 5.0 - 2.0 * math.sqrt(6.0)
        assert cond.bound == pytest.approx(threshold, abs=1e-6)
        assert cond.admissible
        assert not example_condition("perona", 0.15, alpha=4.0).admissible

        base = (
            "[operator]\nname = perona_malik\n\n"
            "[weight]\nname = constant\nvalue = 1.0\n\n"
            "[rhs]\nexample = perona\nalpha = 4.0\nM = 1.0\nN = 1.0\n\n"
            "[problem]\nnu1 = 0.0\nnu2 = {lam}\nT = 1.0\n"
        )
        ok = load_problem_config(parse_config(base.format(lam=0.05)))
        assert ok.run_check(ok.build_finite()).overall == "pass"
        bad = load_problem_config(parse_config(base.format(lam=0.15)))
        assert bad.run_check(bad.build_finite()).overall == "fail"
    _verdict(2, "perona threshold 5 - 2 sqrt(6)", clock)


def test_03_sine_bound_and_decreasing_branch():
    with _Clock(5.0) as clock:
        cond = example_condition("sine", 0.4, alpha=3.0)
        assert cond.bound == pytest.approx(math.pi / 6.0, abs=1e-9)

        phi = make_operator("sine")
        rhs = Rhs(
            fn=lambda t, x, y: 0.1 * t**3 * np.cos(x) * np.sin(y),
            psi=lambda t: 0.1 * np.asarray(t, dtype=float) ** 3,
            name="sine-family(alpha=3)",
        )
        problem = make_problem(
            phi,
            constant_weight(1.0),
            rhs,
            0.0,
            3.0,
            1.0,
            branch_hint=(math.pi / 2.0, 3.0 * math.pi / 2.0),
            mesh_n=400,
        )
        assert not problem.branch.increasing
        assert check_theorem1(problem).overall == "pass"
        report = solve(problem)
        assert report.status == "converged"
        # the solution climbs from 0 to 3 staying near the chord
        assert np.max(np.abs(report.x.values - 3.0 * problem.mesh.nodes)) < 0.15
    _verdict(3, "sine bound pi/6 + decreasing-branch solve", clock)


def test_04_manufactured_quadratic_and_order():
    with _Clock(5.0) as clock:
        phi = make_operator("r_laplacian", r=2.0)
        rhs2 = Rhs(
            fn=lambda t, x, y: 2.0 + 0.0 * t,
            psi=lambda t: 2.0 + 0.0 * np.asarray(t, dtype=float),
            name="constant-2",
        )
        problem = make_problem(
            phi, constant_weight(1.0), rhs2, 0.0, 0.0, 1.0, mesh_n=1000
        )
        report = solve(problem)
        assert report.status == "converged"
        t = problem.mesh.nodes
        assert np.max(np.abs(report.x.values - (t**2 - t))) <= 1e-7

        # order study on a curvature-bearing forcing term
        omega = 3.0 * math.pi
        rhs_sin = Rhs(
            fn=lambda t, x, y: np.sin(omega * t) + 0.0 * x,
            psi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            name="sin-forcing",
        )
        errors = {}
        for n in (250, 500, 1000, 2000):
            prob = make_problem(
                phi, constant_weight(1.0), rhs_sin, 0.0, 0.0, 1.0, mesh_n=n
            )
            rep = solve(prob)
            assert rep.status == "converged"
            tt = prob.mesh.nodes
            exact = -np.sin(omega * tt) / omega**2
            errors[n] = float(np.max(np.abs(rep.x.values - exact)))
        orders = [
            math.log2(errors[n] / errors[2 * n]) for n in (250, 500, 1000)
        ]
        assert min(orders) >= 1.9
    _verdict(4, "manufactured quadratic 1e-7 + order >= 1.9", clock)


def test_05_random_beta_equations():
    with _Clock(10.0) as clock:
        rng = np.random.default_rng(91)
        mesh = Mesh.uniform(1.0, 64)
        t = mesh.nodes
        identity = make_operator("r_laplacian", r=2.0)
        relativistic = make_operator("relativistic")
        checked_monotone = 0
        for trial in range(1000):
            phi = identity if trial % 2 == 0 else relativistic
            amp = rng.uniform(0.005, 0.05)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            target = rng.uniform(-0.25, 0.25)
            k0 = rng.uniform(0.8, 1.5)
            weight = constant_weight(k0)
            problem = make_problem(
                phi,
                weight,
                zero_rhs(),
                0.0,
                target,
                1.0,
                mesh=mesh,
            )
            f_vals = amp * np.sin(2.0 * math.pi * t + phase)
            Fcum = cumulative_integral(mesh, f_vals)
            L = amp  # |f| <= amp pointwise, so the mass over [0,1] is below amp
            beta = beta_solve(problem, Fcum, L=L)
            eq = BetaEquation.build(SolverKernel(problem), Fcum)
            assert abs(eq.value(beta) - target) <= 1e-10
            # bracket ends straddle the target
            s_star_d = target / eq.kernel.disc.k1
            center = float(phi.fn(s_star_d))
            assert eq.value(center - L) <= target + 1e-10
            assert eq.value(center + L) >= target - 1e-10
            if trial % 40 == 0:
                xs = np.linspace(center - L, center + L, 9)
                vals = [eq.value(x) for x in xs]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                checked_monotone += 1
        assert checked_monotone == 25
    _verdict(5, "1000 random beta equations to 1e-10", clock)


def test_06_random_certified_problems_stay_in_envelopes():
    with _Clock(60.0) as clock:
        rng = np.random.default_rng(417)
        solved = 0
        attempts = 0
        while solved < 100:
            attempts += 1
            assert attempts < 400, "generator failed to hit 100 certified problems"
            pick = rng.integers(0, 3)
            if pick == 0:
                phi = make_operator("r_laplacian", r=2.0)
                span = 0.8
            elif pick == 1:
                phi = make_operator("relativistic")
                span = 0.35
            else:
                phi = make_operator("perona_malik")
                span = 0.25
            T = rng.uniform(0.5, 2.0)
            nu1 = rng.uniform(-0.3, 0.3)
            nu2 = nu1 + rng.uniform(-span, span) * T
            a, b = rng.uniform(0.6, 1.5), rng.uniform(0.0, 0.8)
            weight = Weight(fn=lambda t, a=a, b=b: a + b * t, name="affine")
            psi0 = rng.uniform(0.001, 0.03)
            rhs = Rhs(
                fn=lambda t, x, y, psi0=psi0: psi0
                * np.cos(3.0 * x)
                * np.sin(2.0 * y + 1.0)
                * np.cos(t),
                psi=lambda t, psi0=psi0: np.full_like(
                    np.asarray(t, dtype=float), psi0
                ),
                name="random-bounded",
            )
            try:
                problem = make_problem(phi, weight, rhs, nu1, nu2, T, mesh_n=300)
            except Exception:
                continue
            if check_theorem1(problem).overall != "pass":
                continue
            report = solve(problem)
            assert report.status == "converged"
            assert report.truncation_count == 0
            scalars = derive_scalars(problem)
            env = envelopes(problem, scalars)
            lo = min(problem.nu1, scalars.N1) - 1e-8
            hi = max(problem.nu1, scalars.N2) + 1e-8
            assert np.all(report.x.values >= lo)
            assert np.all(report.x.values <= hi)
            assert np.all(report.x_prime.values >= env.eta1 - 1e-8)
            assert np.all(report.x_prime.values <= env.eta2 + 1e-8)
            solved += 1
    _verdict(6, "100 certified random problems in envelopes", clock)


def test_07_square_root_weight_singularity():
    with _Clock(5.0) as clock:
        phi = make_operator("r_laplacian", r=2.0)
        problem = make_problem(
            phi, sqrt_t_weight(), zero_rhs(), 0.0, 1.0, 1.0, mesh_n=1000
        )
        scalars = derive_scalars(problem)
        assert scalars.k1 == pytest.approx(2.0, abs=1e-4)
        report = solve(problem)
        assert report.status == "converged"
        # every node, t = 0 and its graded neighbours included
        t = problem.mesh.nodes
        assert np.max(np.abs(report.x.values - np.sqrt(t))) <= 2e-5
    _verdict(7, "k = sqrt(t) singular weight gives x = sqrt(t) to 2e-5", clock)


def _cubic_halfline(lam):
    phi = make_operator("r_laplacian", r=2.0)
    weight = one_plus_t_squared_weight()
    rhs = Rhs(
        fn=lambda t, x, y: t**2 * np.cos(x) * y**3,
        psi=lambda t: R0
        * np.minimum(1.0, 1.0 / np.maximum(np.asarray(t, dtype=float), 1e-300) ** 2),
        name="cubic-decay",
    )
    k_inf = math.pi / 2.0
    branch = find_branch(phi, lam / k_inf)
    return HalflineProblem(
        phi,
        branch,
        weight,
        rhs,
        0.0,
        lam,
        tol_h=1e-3,
        cells_per_unit=200,
        psi_l1=2.0 * R0,
    )


def test_08_heteroclinic_cubic_family():
    with _Clock(120.0) as clock:
        cond = example_condition("halfline1", 0.2, r=R0)
        assert cond.bound == pytest.approx(R0 * math.pi**2 / 2.0, rel=1e-12)
        assert cond.bound > 0.2 and cond.admissible

        hp = _cubic_halfline(0.2)
        check = check_halfline(hp, L_lip=1.0, delta=0.5)
        assert check.overall == "pass"

        hetero = solve_halfline(hp)
        assert hetero.status == "converged"
        labels = [g[0] for g in hetero.gaps]
        values = [g[1] for g in hetero.gaps]
        assert labels == [5.0, 10.0, 20.0, 40.0, 80.0]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-3
        for run in hetero.runs:
            assert run.report.residual <= 1e-5
        final = hetero.runs[-1].report
        t = final.x.mesh.nodes
        idx = int(np.argmin(np.abs(t - 80.0)))
        assert abs(t[idx] - 80.0) < 1e-9
        assert abs(final.x.values[idx] - 0.2) <= 1e-3

        # zero forcing collapses to the closed form lam*arctan(t)/arctan(n)
        hp0 = HalflineProblem(
            hp.phi,
            hp.branch,
            hp.weight,
            zero_rhs(),
            0.0,
            0.2,
            tol_h=1e-3,
            cells_per_unit=200,
            psi_l1=0.0,
        )
        hetero0 = solve_halfline(hp0)
        for run in hetero0.runs:
            tt = run.report.x.mesh.nodes
            exact = 0.2 * np.arctan(tt) / math.atan(run.n)
            assert np.max(np.abs(run.report.x.values - exact)) <= 1e-6
    _verdict(8, "cubic heteroclinic family on [0, +inf)", clock)


def test_09_relativistic_slopes_stay_subluminal():
    with _Clock(10.0) as clock:
        phi = make_operator("relativistic")
        for lam in (-0.9, 0.0, 0.9):
            rhs = Rhs(
                fn=lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
                psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
                name="relativistic-decay",
            )
            problem = make_problem(
                phi, constant_weight(1.0), rhs, 0.0, lam, 1.0, mesh_n=500
            )
            assert check_corollary_singular(problem).overall == "pass"
            report = solve(problem)
            assert report.status == "converged"
            assert np.max(np.abs(report.x_prime.values)) < 1.0
    _verdict(9, "relativistic boundary slopes stay in (-1, 1)", clock)


def test_10_operator_inverse_round_trip():
    with _Clock(2.0) as clock:
        cases = [
            ("r_laplacian", {"r": 3.0}, 0.0, None, (-3.0, 3.0)),
            ("mean_curvature", {}, 0.0, None, (-3.0, 3.0)),
            ("relativistic", {}, 0.0, None, (-0.99, 0.99)),
            ("p_relativistic", {"p": 3.0}, 0.0, None, (-0.99, 0.99)),
            ("perona_malik", {}, 0.0, None, (-0.9, 0.9)),
            ("sine", {}, 0.0, None, (-1.5, 1.5)),
            ("difference", {"alpha": 2.0, "beta": 0.0}, 1.5, (0.7, 6.0), (0.8, 3.0)),
        ]
        rng = np.random.default_rng(5)
        for name, params, s0, hint, (lo, hi) in cases:
            phi = make_operator(name, **params)
            branch = find_branch(phi, s0, hint=hint)
            s = rng.uniform(lo, hi, size=1000)
            y = np.asarray(phi.fn(s), dtype=float)
            s_back = partial_inverse_array(phi, branch, y)
            y_back = np.asarray(phi.fn(s_back), dtype=float)
            worst = float(np.max(np.abs(y_back - y)))
            assert worst <= 1e-10, f"{name}: round-trip defect {worst}"
    _verdict(10, "7 operators invert on their branches to 1e-10", clock)
