"""Hypothesis checkers: worked-example thresholds and report verdicts.

Numeric oracles are frozen from the closed forms:
  Perona threshold at alpha=4, M=N=1: first positive root of
    s/(1+s^2) = 1/2 - 2/(alpha+1) = 0.1, i.e. 5 - 2 sqrt(6).
  Sine bound at alpha=3: arcsin(1 - 2/(alpha+1)) = arcsin(1/2) = pi/6.
  Power-growth bound at p=2, beta=4, N=1: max of z^{1/4} - 2z is 3/8
    at z = 1/16 (stationarity: z^{-3/4}/4 = 2).
  Half-line cubic example: r0 = (pi+4)^{-3/2}, admissible bound
    r0 pi^2 / 2, tail threshold at lambda=0.2: 0.4/pi^2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phibvp.hypotheses as hyp
from phibvp import (
    DegenerateExponentError,
    HalflineProblem,
    InvalidInputError,
    PhiOperator,
    Rhs,
    WrongCorollaryError,
    check_corollary_singular,
    check_corollary_surjective,
    check_halfline,
    check_halfline_odd,
    check_theorem1,
    constant_weight,
    example_condition,
    find_branch,
    hint_branch,
    make_operator,
    make_problem,
    one_plus_t_squared_weight,
    plaplacian_bound,
    plaplacian_maximizer,
    zero_rhs,
)

PERONA_THRESHOLD = 0.10102051443364424  # 5 - 2 sqrt(6)
SINE_BOUND_ALPHA3 = 0.5235987755982988  # pi/6
R0 = 0.052397116473236104  # (pi+4)^{-3/2}
R0_BOUND = 0.25856940567432135  # r0 pi^2 / 2
TAIL_THRESHOLD_02 = 0.04052847345693511  # 0.4 / pi^2

SMALL_LATTICE = (12, 6, 6)


def bounded_rhs(fn, psi_value):
    return Rhs(
        fn=fn,
        psi=lambda t: np.full_like(np.asarray(t, dtype=float), float(psi_value)),
        name="test",
    )


def perona_rhs(alpha, scale=1.0):
    # |f| = scale * t^alpha * |cos x| * |sin y| <= scale * t^alpha
    return Rhs(
        fn=lambda t, x, y: scale * t**alpha * np.cos(x) * np.sin(y),
        psi=lambda t: scale * np.asarray(t, dtype=float) ** alpha,
        name="perona-family",
    )


class TestPlaplacianBound:
    def test_oracle_p2_beta4(self):
        bound, solver = plaplacian_bound(2.0, 4.0, 1.0)
        assert abs(bound - 0.375) <= 1e-9
        z_star, ell_max = plaplacian_maximizer(2.0, 4.0, 1.0)
        assert abs(z_star - 0.0625) <= 1e-8
        assert abs(ell_max - 0.375) <= 1e-9
        z = solver(0.3)
        assert z is not None and 0.0 < z <= 0.0625 + 1e-12
        assert (0.3 + 2.0 * z) ** 4 <= z * (1.0 + 1e-9)

    @pytest.mark.parametrize("p, beta, N", [(2.0, 4.0, 1.0), (3.0, 5.0, 0.5), (1.5, 2.0, 2.0)])
    def test_maximizer_is_the_critical_point(self, p, beta, N):
        # closed form, not a search: ell'(z) = 0 to rounding, and the
        # p = 2, beta = 4 oracle z = 1/16, ell = 3/8 to the last digits
        z, ell_max = plaplacian_maximizer(p, beta, N)
        q = (p - 1.0) / beta
        assert q * (z / N) ** q / z == pytest.approx(2.0, rel=1e-13)
        assert ell_max == (z / N) ** q - 2.0 * z
        if (p, beta, N) == (2.0, 4.0, 1.0):
            assert z == pytest.approx(0.0625, rel=1e-15)
            assert ell_max == pytest.approx(0.375, rel=1e-15)

    def test_no_z_bar_beyond_bound(self):
        _, solver = plaplacian_bound(2.0, 4.0, 1.0)
        assert solver(0.5) is None
        assert solver(0.375) is not None

    def test_below_critical_exponent_admits_everything(self):
        bound, solver = plaplacian_bound(3.0, 1.0, 1.0)
        assert math.isinf(bound)
        for lam in (0.0, 0.7, 5.0, -12.0):
            z = solver(lam)
            assert z is not None
            assert (abs(lam) ** 2 + 2.0 * z) ** 0.5 <= z * (1.0 + 1e-12)

    def test_beta_zero_means_bounded_rhs(self):
        bound, solver = plaplacian_bound(2.0, 0.0, 3.0)
        assert math.isinf(bound)
        assert solver(100.0) == 3.0

    def test_critical_exponent_rejected(self):
        with pytest.raises(DegenerateExponentError):
            plaplacian_bound(3.0, 2.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            plaplacian_bound(1.0, 2.0, 1.0)
        with pytest.raises(InvalidInputError):
            plaplacian_bound(2.0, -0.5, 1.0)
        with pytest.raises(InvalidInputError):
            plaplacian_bound(2.0, 2.0, 0.0)

    def test_maximizer_matches_closed_form(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            p = float(rng.uniform(1.3, 3.5))
            beta = float((p - 1.0) * rng.uniform(1.3, 4.0))
            N = float(rng.uniform(0.2, 3.0))
            z_star, ell_max = plaplacian_maximizer(p, beta, N)
            z_closed = (
                N ** ((1.0 - p) / beta) * (p - 1.0) / (2.0 * beta)
            ) ** (beta / (beta - p + 1.0))
            assert abs(z_star - z_closed) <= 1e-7 * max(1.0, z_closed)
            # the bound is attained: ell at the maximizer equals bound^{p-1}
            bound, _ = plaplacian_bound(p, beta, N)
            assert ell_max >= bound ** (p - 1.0) - 1e-9


class TestExampleConditions:
    def test_perona_threshold_oracle(self):
        cond = example_condition("perona", 0.05, alpha=4.0)
        assert cond.bound == pytest.approx(PERONA_THRESHOLD, abs=1e-12)
        assert cond.admissible
        assert cond.bound_kind == "finite"
        assert not example_condition("perona", 0.15, alpha=4.0).admissible
        assert example_condition("perona", 0.101, alpha=4.0).admissible
        assert not example_condition("perona", 0.1011, alpha=4.0).admissible

    def test_perona_empty_region(self):
        # 2MN/(alpha+1) >= 1/2 leaves no admissible lambda at all
        cond = example_condition("perona", 0.0, alpha=1.0)
        assert cond.bound == 0.0
        assert not cond.admissible

    def test_sine_bound_oracle(self):
        cond = example_condition("sine", 0.4, alpha=3.0)
        assert cond.bound == pytest.approx(SINE_BOUND_ALPHA3, abs=1e-12)
        assert cond.admissible
        assert not example_condition("sine", 0.6, alpha=3.0).admissible
        # alpha = 1 collapses the region to nothing, lambda = 0 included
        flat = example_condition("sine", 0.0, alpha=1.0)
        assert flat.bound == 0.0 and not flat.admissible

    @pytest.mark.parametrize("tag", ["sine", "perona"])
    def test_negative_psi_scale_is_a_typed_error(self, tag):
        # M N < 0 makes psi = M N t^alpha negative; the closed-form bound
        # would take asin or sqrt outside its domain
        with pytest.raises(InvalidInputError, match="M N"):
            example_condition(tag, 0.1, alpha=3.0, M=-1.0)
        with pytest.raises(InvalidInputError, match="M N"):
            example_condition(tag, 0.1, alpha=3.0, N=-0.01)
        same = example_condition(tag, 0.1, alpha=3.0, M=-1.0, N=-1.0)
        assert same.bound == example_condition(tag, 0.1, alpha=3.0).bound

    def test_plaplacian_condition_inclusive(self):
        cond = example_condition("plaplacian", 0.375, beta=4.0)
        assert cond.admissible  # admissible region includes its boundary
        assert not example_condition("plaplacian", 0.3751, beta=4.0).admissible
        wide = example_condition("plaplacian", 1e6, p=3.0, beta=1.0)
        assert wide.admissible and wide.bound_kind == "all-of-branch"

    def test_relativistic_condition(self):
        assert example_condition("relativistic", 0.9).admissible
        assert not example_condition("relativistic", 1.0).admissible
        assert example_condition("relativistic", -0.99).admissible

    def test_halfline_conditions(self):
        cond = example_condition("halfline1", 0.2)
        assert cond.bound == pytest.approx(R0_BOUND, abs=1e-12)
        assert cond.admissible
        assert not example_condition("halfline1", 0.26).admissible
        assert example_condition("halfline2", 123.0).bound_kind == "all-of-branch"
        narrow = example_condition("halfline2", 1.2, j_half_width=1.0)
        assert narrow.admissible  # 2 lambda / pi = 0.764 inside (-1, 1)
        assert not example_condition("halfline2", 1.6, j_half_width=1.0).admissible

    def test_unknown_tag_and_params(self):
        with pytest.raises(InvalidInputError):
            example_condition("mystery", 0.1)
        with pytest.raises(InvalidInputError):
            example_condition("perona", 0.1, alpha=4.0, gamma=2.0)
        with pytest.raises(InvalidInputError):
            example_condition("sine", 0.1)  # alpha missing


class TestTheorem1:
    def make_perona_problem(self, lam, alpha=4.0, mesh_n=400):
        phi = make_operator("perona_malik")
        return make_problem(
            phi, constant_weight(1.0), perona_rhs(alpha), 0.0, lam, 1.0, mesh_n=mesh_n
        )

    def test_perona_pass_and_fail(self):
        rep = check_theorem1(self.make_perona_problem(0.05))
        assert rep.theorem == "thm1"
        assert rep.overall == "pass"
        assert rep.item("image-margin").verdict == "pass"
        assert rep.item("psi-domination").verdict == "sampled-pass"
        assert rep.item("psi-domination").quantity("max_ratio") <= 1.0 + 1e-9

        rep_bad = check_theorem1(self.make_perona_problem(0.15))
        assert rep_bad.overall == "fail"
        assert rep_bad.item("image-margin").verdict == "fail"
        # the slope itself is still fine, only the margin breaks
        assert rep_bad.item("slope-in-branch").verdict == "pass"

    def test_perona_threshold_brackets(self):
        # quadrature moves L by ~1e-6, far inside the 1e-3 margins used here
        assert check_theorem1(self.make_perona_problem(0.100)).overall == "pass"
        assert check_theorem1(self.make_perona_problem(0.102)).overall == "fail"

    def test_degenerate_psi_zero(self):
        phi = make_operator("perona_malik")
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.05, 1.0, mesh_n=200
        )
        rep = check_theorem1(prob)
        assert rep.overall == "pass"
        item = rep.item("psi-domination")
        assert item.verdict == "sampled-pass"
        assert item.quantity("max_ratio") == 0.0
        # degenerate envelopes: the box collapses onto the affine profile
        assert item.quantity("box_lo") == pytest.approx(0.0, abs=1e-12)
        assert item.quantity("box_hi") == pytest.approx(0.05, abs=1e-12)

    def test_decreasing_sine_branch(self):
        phi = make_operator("sine")
        prob = make_problem(
            phi,
            constant_weight(1.0),
            bounded_rhs(lambda t, x, y: 0.05 * np.cos(math.pi * t) + 0.0 * x * y, 0.05),
            0.0,
            3.0,
            1.0,
            branch_hint=(math.pi / 2.0, 3.0 * math.pi / 2.0),
            mesh_n=200,
        )
        assert not prob.branch.increasing
        rep = check_theorem1(prob)
        assert rep.overall == "pass"

    def test_violated_domination_is_a_verdict(self):
        phi = make_operator("perona_malik")
        lying = bounded_rhs(lambda t, x, y: 3.0 + 0.0 * (t + x + y), 0.05)
        prob = make_problem(
            phi, constant_weight(1.0), lying, 0.0, 0.05, 1.0, mesh_n=200
        )
        rep = check_theorem1(prob, lattice=SMALL_LATTICE)
        assert rep.overall == "fail"
        item = rep.item("psi-domination")
        assert item.verdict == "fail"
        assert item.quantity("max_ratio") == pytest.approx(60.0, rel=1e-9)

    def test_slope_outside_branch(self):
        phi = make_operator("relativistic")
        branch = find_branch(phi, 0.0)
        prob = make_problem(
            phi,
            constant_weight(1.0),
            zero_rhs(),
            0.0,
            1.5,
            1.0,
            branch=branch,
            mesh_n=100,
        )
        rep = check_theorem1(prob, lattice=SMALL_LATTICE)
        assert rep.overall == "fail"
        assert rep.item("slope-in-branch").verdict == "fail"
        assert rep.item("image-margin").verdict == "inconclusive"
        assert rep.item("psi-domination").verdict == "inconclusive"

    @settings(max_examples=25, deadline=None)
    @given(
        psi_level=st.floats(min_value=1e-3, max_value=0.3),
        shrink=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_margin_verdict_monotone_in_l(self, psi_level, shrink):
        """If the image margin holds for L it holds for every smaller L."""
        phi = make_operator("perona_malik")

        def verdict(level):
            prob = make_problem(
                phi,
                constant_weight(1.0),
                bounded_rhs(lambda t, x, y: 0.0 * (t + x + y), level),
                0.0,
                0.05,
                1.0,
                mesh_n=60,
            )
            return check_theorem1(prob, lattice=(6, 4, 4)).item("image-margin")

        big = verdict(psi_level)
        small = verdict(psi_level * shrink)
        if big.verdict == "pass":
            assert small.verdict == "pass"


class TestCorollaries:
    def test_surjective_accepts_relativistic(self):
        phi = make_operator("relativistic")
        rhs = Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
            psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
            name="decay",
        )
        prob = make_problem(phi, constant_weight(1.0), rhs, 0.0, 0.5, 1.0, mesh_n=200)
        rep = check_corollary_surjective(prob)
        assert rep.theorem == "cor1"
        assert rep.overall == "pass"
        assert "every L" in rep.item("image-margin").detail

    def test_surjective_accepts_unbounded_power_growth(self):
        # below-critical growth: a constant psi always exists
        _, solver = plaplacian_bound(3.0, 0.5, 1.0)
        z_bar = solver(5.0)
        phi = make_operator("r_laplacian", r=3.0)
        rhs = Rhs(
            fn=lambda t, x, y: np.cos(x) * np.abs(y) ** 0.5 + 0.0 * t,
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), z_bar),
            name="subcritical",
        )
        prob = make_problem(
            phi, constant_weight(1.0), rhs, 0.0, 5.0, 1.0, p=3.0, mesh_n=200
        )
        rep = check_corollary_surjective(prob)
        assert rep.overall == "pass"

    def test_surjective_rejects_bounded_image(self):
        phi = make_operator("mean_curvature")
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=100
        )
        with pytest.raises(WrongCorollaryError):
            check_corollary_surjective(prob)

    def relativistic_problem(self, lam, mesh_n=200):
        phi = make_operator("relativistic")
        branch = find_branch(phi, 0.0)
        rhs = Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
            psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
            name="decay",
        )
        return make_problem(
            phi,
            constant_weight(1.0),
            rhs,
            0.0,
            lam,
            1.0,
            branch=branch,
            mesh_n=mesh_n,
        )

    def test_singular_relativistic_cases(self):
        assert check_corollary_singular(self.relativistic_problem(0.5)).overall == "pass"
        rep_boundary = check_corollary_singular(self.relativistic_problem(1.0))
        assert rep_boundary.overall == "fail"
        assert rep_boundary.item("slope-in-branch").verdict == "fail"
        assert check_corollary_singular(self.relativistic_problem(-0.99)).overall == "pass"

    def test_singular_report_items_and_details(self):
        for lam, overall, psi_detail in (
            (0.5, "pass", "sampled |f| <= psi over the whole branch box"),
            (1.0, "fail", "s* outside the branch, nothing to sample"),
        ):
            rep = check_corollary_singular(self.relativistic_problem(lam))
            assert rep.theorem == "cor2" and rep.overall == overall
            assert [it.name for it in rep.items] == [
                "recip-norm", "slope-in-branch", "psi-domination"
            ]
            assert [[k for k, _ in it.quantities] for it in rep.items[:2]] == [
                ["k1", "kp", "p"], ["s_star", "branch_lo", "branch_hi"]
            ]
            # the cor2 recip-norm has no detail, so its record has no detail key
            assert rep.items[0].detail == rep.items[1].detail == ""
            assert rep.items[2].detail == psi_detail
        thm1 = check_theorem1(self.relativistic_problem(0.5))
        assert thm1.item("recip-norm").detail.startswith("1/k must have finite")

    def test_singular_rejects_unbounded_domain(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=100
        )
        with pytest.raises(WrongCorollaryError):
            check_corollary_singular(prob)

    def test_singular_rejects_bounded_image(self):
        phi = make_operator("mean_curvature")
        prob = make_problem(
            phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=100
        )
        with pytest.raises(WrongCorollaryError):
            check_corollary_singular(prob)


def cubic_halfline(lam, r=R0, **kwargs):
    phi = make_operator("r_laplacian", r=2.0)
    branch = find_branch(phi, 0.1)
    rhs = Rhs(
        fn=lambda t, x, y: t**2 * np.cos(x) * y**3,
        psi=lambda t: r
        * np.minimum(1.0, 1.0 / np.maximum(np.asarray(t, dtype=float), 1e-300) ** 2),
        name="cubic-tail",
    )
    return HalflineProblem(
        phi,
        branch,
        one_plus_t_squared_weight(),
        rhs,
        0.0,
        lam,
        psi_l1=2.0 * r,
        **kwargs,
    )


class TestHalflineCheck:
    def test_cubic_example_passes(self):
        rep = check_halfline(cubic_halfline(0.2), L_lip=1.0, delta=0.5)
        assert rep.theorem == "thm_halfline"
        assert rep.overall == "pass"
        tail = rep.item("tail-limit")
        # lim psi k = r0 and the threshold at lambda = 0.2 is 0.4/pi^2
        assert tail.quantity("M") == pytest.approx(R0, rel=2e-4)
        assert tail.quantity("threshold") == pytest.approx(TAIL_THRESHOLD_02, abs=1e-12)
        assert rep.item("psi-domination").verdict == "sampled-pass"

    def test_cubic_example_fails_beyond_bound(self):
        rep = check_halfline(cubic_halfline(0.28), L_lip=1.0, delta=0.5)
        assert rep.item("tail-limit").verdict == "fail"
        assert rep.overall == "fail"

    def test_psi_zero_needs_equal_boundary_values(self):
        phi = make_operator("r_laplacian", r=2.0)
        branch = find_branch(phi, 0.0)
        w = one_plus_t_squared_weight()
        hetero = HalflineProblem(phi, branch, w, zero_rhs(), 0.0, 0.4, psi_l1=0.0)
        rep = check_halfline(hetero, L_lip=1.0, delta=0.5)
        assert rep.item("tail-limit").verdict == "fail"
        flat = HalflineProblem(phi, branch, w, zero_rhs(), 0.3, 0.3, psi_l1=0.0)
        rep_flat = check_halfline(flat, L_lip=1.0, delta=0.5)
        assert rep_flat.item("tail-limit").verdict == "pass"
        assert rep_flat.overall == "pass"

    def test_unsettled_tail_is_inconclusive_until_m_supplied(self):
        phi = make_operator("r_laplacian", r=2.0)
        branch = find_branch(phi, 0.1)
        rhs = Rhs(
            fn=lambda t, x, y: 0.0 * (t + x + y),
            psi=lambda t: R0
            * (1.0 + 0.5 * np.sin(np.log(np.maximum(t, 1e-300))))
            / (1.0 + np.asarray(t, dtype=float) ** 2)
            * (1.0 + np.asarray(t, dtype=float) ** 2)
            / np.maximum(np.asarray(t, dtype=float), 1.0) ** 2,
            name="wobble",
        )
        hetero = HalflineProblem(
            phi, branch, one_plus_t_squared_weight(), rhs, 0.0, 0.1
        )
        rep = check_halfline(hetero, L_lip=1.0, delta=0.5)
        assert rep.item("tail-limit").verdict == "inconclusive"
        assert rep.overall == "inconclusive"
        rep_pinned = check_halfline(hetero, L_lip=1.0, delta=0.5, M=R0)
        assert rep_pinned.item("tail-limit").verdict == "pass"

    def test_lipschitz_understatement_fails(self):
        rep = check_halfline(cubic_halfline(0.2), L_lip=1e-3, delta=0.5)
        assert rep.item("lipschitz").verdict == "fail"
        assert rep.overall == "fail"

    def test_non_integrable_weight_fails(self):
        phi = make_operator("r_laplacian", r=2.0)
        branch = find_branch(phi, 0.0)
        hetero = HalflineProblem(
            phi, branch, constant_weight(1.0), zero_rhs(), 0.2, 0.2, psi_l1=0.0
        )
        rep = check_halfline(hetero, L_lip=1.0, delta=0.5)
        assert rep.item("recip-integrable").verdict == "fail"
        assert rep.overall == "fail"

    def test_input_validation(self):
        hp = cubic_halfline(0.2)
        with pytest.raises(InvalidInputError):
            check_halfline(hp, L_lip=-1.0, delta=0.5)
        with pytest.raises(InvalidInputError):
            check_halfline(hp, L_lip=1.0, delta=0.0)


class TestHalflineOdd:
    def exp_arctan_problem(self, lam, phi_name="r_laplacian", **phi_params):
        phi = make_operator(phi_name, **phi_params)
        branch = find_branch(phi, 0.0)
        rhs = Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.arctan(x * y),
            psi=lambda t: (math.pi / 2.0) * np.exp(-np.asarray(t, dtype=float)),
            name="exp-arctan",
        )
        return HalflineProblem(
            phi,
            branch,
            one_plus_t_squared_weight(),
            rhs,
            0.0,
            lam,
            psi_l1=math.pi / 2.0,
        )

    def test_identity_operator_any_lambda(self):
        rep = check_halfline_odd(self.exp_arctan_problem(1.3, r=2.0))
        assert rep.theorem == "thm_halfline_odd"
        assert rep.overall == "pass"
        witness = rep.item("witness-interval")
        assert witness.quantity("T") == 1.0
        # s_1* = lambda / arctan(1) = 4 lambda / pi
        assert witness.quantity("s_T_star") == pytest.approx(
            4.0 * 1.3 / math.pi, rel=1e-12
        )

    def test_bounded_domain_needs_limit_slope_inside(self):
        rep = check_halfline_odd(self.exp_arctan_problem(1.2, "relativistic"))
        assert rep.overall == "pass"
        assert rep.item("witness-interval").quantity("T") == 4.0
        rep_far = check_halfline_odd(self.exp_arctan_problem(1.6, "relativistic"))
        assert rep_far.overall == "fail"
        assert rep_far.item("witness-interval").verdict == "fail"

    def test_fat_psi_never_fits_sine_image(self):
        phi = make_operator("sine")
        branch = find_branch(phi, 0.0)
        rhs = Rhs(
            fn=lambda t, x, y: np.exp(-t) + 0.0 * (x + y),
            psi=lambda t: math.pi * np.exp(-np.asarray(t, dtype=float)),
            name="fat",
        )
        hetero = HalflineProblem(
            phi, branch, one_plus_t_squared_weight(), rhs, 0.0, 0.1, psi_l1=math.pi
        )
        rep = check_halfline_odd(hetero)
        assert rep.overall == "fail"
        assert rep.item("witness-interval").verdict == "fail"

    def test_rejects_non_odd_operator(self):
        shifted = PhiOperator("shifted-cubic", lambda s: (s - 0.1) ** 3, odd=False)
        branch = find_branch(shifted, 0.0)
        hetero = HalflineProblem(
            shifted,
            branch,
            one_plus_t_squared_weight(),
            zero_rhs(),
            0.0,
            0.1,
            psi_l1=0.0,
        )
        with pytest.raises(InvalidInputError):
            check_halfline_odd(hetero)

    def test_rejects_asymmetric_branch(self):
        phi = make_operator("sine")
        branch = hint_branch(phi, (math.pi / 2.0, 3.0 * math.pi / 2.0))
        hetero = HalflineProblem(
            phi,
            branch,
            one_plus_t_squared_weight(),
            zero_rhs(),
            0.0,
            0.1,
            psi_l1=0.0,
        )
        with pytest.raises(InvalidInputError):
            check_halfline_odd(hetero)


# -- the broadcast domination scan against a per-node loop -------------------


def _scan_domination_per_node(rhs, t_vals, k_vals, x_lo, x_hi, slope_lo, slope_hi, nx, ny):
    """Reference: the scan evaluated one time node at a time."""
    xs = np.linspace(x_lo, x_hi, nx)[:, None]
    worst = 0.0
    used = 0
    for t, kv in zip(np.asarray(t_vals, float), np.asarray(k_vals, float)):
        if not (math.isfinite(kv) and kv > 0.0):
            continue
        ys = np.linspace(slope_lo / kv, slope_hi / kv, ny)[None, :]
        fv = np.abs(np.asarray(rhs(float(t), xs, ys), dtype=float))
        fmax = float(np.max(fv))
        pv = float(rhs.psi_at(float(t)))
        used += 1
        if not math.isfinite(fmax) or pv < 0.0:
            worst = math.inf
            continue
        if pv == 0.0:
            if fmax > 0.0:
                worst = math.inf
            continue
        worst = max(worst, fmax / pv)
    return worst, used


_T = np.linspace(0.0, 2.0, 13)
_SMOOTH = Rhs(
    fn=lambda t, x, y: np.sin(3.0 * t) * x - np.exp(-t) * y * y + np.arctan(x * y),
    psi=lambda t: 2.0 + t * t,
)
_PSI_ZERO_AT_ONE = Rhs(
    fn=lambda t, x, y: np.sin(3.0 * t) * x * y + 0.0 * t,
    psi=lambda t: np.abs(t - 1.0),
)
_F_VANISHES_WITH_PSI = Rhs(
    fn=lambda t, x, y: (t - 1.0) * x * y,
    psi=lambda t: np.abs(t - 1.0),
)
_NAN_AT_ONE = Rhs(
    fn=lambda t, x, y: x * y / (t - 1.0) + np.where(t == 1.0, np.nan, 0.0),
    psi=lambda t: 1.0 + 0.0 * t,
)
_CONSTANT_F = Rhs(fn=lambda t, x, y: -0.75, psi=lambda t: 0.5 + t)
_CONSTANT_PSI = Rhs(fn=lambda t, x, y: np.cos(t) * x + y, psi=lambda t: 3.0)
_NEGATIVE_PSI = Rhs(fn=lambda t, x, y: x + 0.0 * t * y, psi=lambda t: 1.5 - t)
_NAN_PSI = Rhs(
    fn=lambda t, x, y: x * y + 0.0 * t,
    psi=lambda t: np.where(t > 1.5, np.nan, 1.0 + t),
)


@pytest.mark.parametrize(
    "rhs",
    [
        _SMOOTH,
        _PSI_ZERO_AT_ONE,
        _F_VANISHES_WITH_PSI,
        _NAN_AT_ONE,
        _CONSTANT_F,
        _CONSTANT_PSI,
        _NEGATIVE_PSI,
        _NAN_PSI,
    ],
    ids=[
        "smooth",
        "psi-zero-f-positive",
        "psi-zero-f-zero",
        "nan-f",
        "constant-f",
        "constant-psi",
        "negative-psi",
        "nan-psi",
    ],
)
@pytest.mark.parametrize(
    "k_vals",
    [
        np.ones_like(_T),
        1.0 + _T * _T,
        np.where(np.isclose(_T, 0.5), 0.0, 1.0 + _T * _T),
        np.where(_T < 1.0, 1.0, np.where(_T < 1.5, np.inf, -1.0)),
        np.zeros_like(_T),
    ],
    ids=["constant-k", "1+t^2", "k-zero-node", "k-inf-and-negative", "all-unusable"],
)
def test_scan_domination_matches_per_node_loop(rhs, k_vals):
    args = (rhs, _T, k_vals, -0.3, 0.8, -1.2, 0.7, 7, 5)
    assert hyp._scan_domination(*args) == _scan_domination_per_node(*args)


def test_scan_domination_verdict_cases():
    ones = np.ones_like(_T)
    scan = hyp._scan_domination
    assert scan(_PSI_ZERO_AT_ONE, _T, ones, -0.3, 0.8, -1.2, 0.7, 7, 5)[0] == math.inf
    assert scan(_NAN_AT_ONE, _T, ones, -0.3, 0.8, -1.2, 0.7, 7, 5)[0] == math.inf
    assert scan(_CONSTANT_F, _T, ones, -0.3, 0.8, -1.2, 0.7, 7, 5) == (1.5, 13)
    k_zero = np.where(np.isclose(_T, 0.5), 0.0, 1.0)
    assert scan(_SMOOTH, _T, k_zero, -0.3, 0.8, -1.2, 0.7, 7, 5)[1] == 12
    assert scan(_SMOOTH, _T, np.zeros_like(_T), -0.3, 0.8, -1.2, 0.7, 7, 5) == (0.0, 0)
