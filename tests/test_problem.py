"""Derived-scalar oracles and envelope structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp import (
    BranchError,
    CompatibilityError,
    InvalidInputError,
    Mesh,
    SENTINEL,
    Weight,
    constant_rhs,
    constant_weight,
    derive_scalars,
    envelopes,
    find_branch,
    make_operator,
    make_problem,
    make_weight,
    one_plus_t_squared_weight,
    sqrt_t_weight,
    zero_rhs,
)
from phibvp.hypotheses import check_theorem1
from phibvp.problem import Rhs, require_box, sample_weight
from phibvp.solver import SolverKernel, solve


def _pm_problem(L=0.05, nu2=0.3, n=400):
    phi = make_operator("perona_malik")
    return make_problem(
        phi,
        constant_weight(1.0),
        constant_rhs(L),
        0.0,
        nu2,
        1.0,
        branch_hint=(-1.0, 1.0),
        mesh_n=n,
    )


class TestDerivedScalars:
    def test_unit_weight_zero_rhs_degenerate_box(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0)
        sc = derive_scalars(prob)
        assert sc.k1 == pytest.approx(1.0, abs=1e-14)
        assert sc.s_star == pytest.approx(0.3, abs=1e-14)
        assert sc.L == 0.0
        # L = 0 collapses the slope box to the single point s*
        assert sc.A_star == pytest.approx(0.3, abs=1e-12)
        assert sc.B_star == pytest.approx(0.3, abs=1e-12)
        assert sc.N1 == pytest.approx(0.3, abs=1e-12)
        assert sc.N2 == pytest.approx(0.3, abs=1e-12)

    def test_perona_malik_shifted_slopes(self):
        sc = derive_scalars(_pm_problem())
        assert sc.phi_s_star == pytest.approx(0.2752293577981651, abs=1e-14)
        assert sc.A_star == pytest.approx(0.1809680182702792, abs=1e-10)
        assert sc.B_star == pytest.approx(0.45183387658853974, abs=1e-10)
        assert sc.A_star < sc.s_star < sc.B_star
        assert sc.N1 == pytest.approx(sc.A_star, abs=1e-10)
        assert sc.N2 == pytest.approx(sc.B_star, abs=1e-10)

    def test_shifted_slopes_invert_exactly(self):
        prob = _pm_problem()
        sc = derive_scalars(prob)
        assert float(prob.phi(sc.A_star)) == pytest.approx(
            sc.phi_s_star - 2 * sc.L, abs=1e-10
        )
        assert float(prob.phi(sc.B_star)) == pytest.approx(
            sc.phi_s_star + 2 * sc.L, abs=1e-10
        )

    def test_incompatible_mass_raises(self):
        # 2L pushes Phi(s*) + 2L past the (-1/2, 1/2) image edge: the
        # scalars report it by NaN, solve raises it
        prob = _pm_problem(L=0.1124)
        sc = derive_scalars(prob)
        assert sc.phi_s_star == pytest.approx(0.2752293577981651, abs=1e-14)
        for value in (sc.A_star, sc.B_star, sc.slope_lo, sc.slope_hi, sc.N1, sc.N2):
            assert math.isnan(value)
        with pytest.raises(CompatibilityError, match="leaves the branch image"):
            solve(prob)

    def test_compatibility_is_strict_at_the_edge(self):
        threshold = 0.11238532110091745
        inside = _pm_problem(L=threshold - 1e-6)
        require_box(inside, derive_scalars(inside))
        outside = _pm_problem(L=threshold + 1e-6)
        with pytest.raises(CompatibilityError):
            require_box(outside, derive_scalars(outside))

    def test_surjective_branch_tolerates_huge_mass(self):
        phi = make_operator("relativistic")
        prob = make_problem(phi, constant_weight(1.0), constant_rhs(50.0), 0.0, 0.5, 1.0)
        sc = derive_scalars(prob)
        assert -1.0 < sc.A_star < sc.B_star < 1.0
        assert sc.A_star == pytest.approx(-0.9999494214485047, abs=1e-9)

    def test_reference_slope_outside_branch(self):
        phi = make_operator("perona_malik")
        branch = find_branch(phi, 0.3, hint=(-1.0, 1.0))
        prob = make_problem(
            phi,
            constant_weight(1.0),
            zero_rhs(),
            0.0,
            5.0,
            1.0,
            branch=branch,
        )
        sc = derive_scalars(prob)
        assert sc.s_star == 5.0
        assert math.isnan(sc.phi_s_star) and math.isnan(sc.N2)
        with pytest.raises(BranchError, match="reference slope 5.0 outside branch"):
            solve(prob)

    def test_decreasing_branch_swaps_slope_roles(self):
        phi = make_operator("sine")
        prob = make_problem(
            phi,
            constant_weight(1.0),
            constant_rhs(0.02),
            0.0,
            3.0,
            1.0,
            branch_hint=(math.pi / 2, 3 * math.pi / 2),
        )
        sc = derive_scalars(prob)
        assert sc.A_star == pytest.approx(3.0402995180560746, abs=1e-10)
        assert sc.B_star == pytest.approx(2.9594674781122023, abs=1e-10)
        assert sc.B_star < sc.s_star < sc.A_star
        assert sc.slope_lo < sc.slope_hi
        assert sc.N1 < sc.N2

    def test_kp_norm_oracle(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, one_plus_t_squared_weight(), zero_rhs(), 0.0, 0.3, 1.0, p=2.0
        )
        sc = derive_scalars(prob)
        # k1 is the mesh quadrature of the exact arctan(1)
        assert sc.k1 == sample_weight(prob.weight, prob.mesh).k1
        assert sc.k1 == pytest.approx(math.atan(1.0), abs=1e-7)
        assert sc.kp == pytest.approx(0.8016851512275402, abs=1e-6)

    def test_negative_psi_rejected(self):
        phi = make_operator("r_laplacian", r=2.0)
        bad = Rhs(fn=lambda t, x, y: t, psi=lambda t: t - 0.5, name="bad")
        prob = make_problem(phi, constant_weight(1.0), bad, 0.0, 0.3, 1.0)
        sc = derive_scalars(prob)
        assert sc.psi_min == -0.5
        assert math.isnan(sc.A_star) and math.isnan(sc.N1)
        with pytest.raises(InvalidInputError, match="psi must be nonnegative"):
            solve(prob)


class TestWeights:
    def test_catalog_roundtrip(self):
        w = make_weight("constant", value=2.0)
        assert w(3.0) == pytest.approx(2.0)
        with pytest.raises(InvalidInputError):
            make_weight("nope")
        with pytest.raises(InvalidInputError):
            constant_weight(-1.0)

    def test_antiderivative_self_test_catches_mismatch(self):
        # K(t) = t is not the antiderivative of 1/(1 + t^2): the weight
        # is rejected where it is made, before any mesh exists
        with pytest.raises(InvalidInputError, match="antiderivative self-test"):
            Weight(
                fn=lambda t: 1.0 + np.asarray(t) ** 2,
                recip_antiderivative=lambda t: np.asarray(t, dtype=float),
            )

    def test_sqrt_weight_k1_is_the_quadrature(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, sqrt_t_weight(), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=256)
        sc = derive_scalars(prob)
        assert sc.k1 == sample_weight(prob.weight, prob.mesh).k1
        assert sc.k1 == pytest.approx(2.0, abs=1e-2)

    def test_nonpositive_weight_rejected(self):
        shady = Weight(fn=lambda t: np.asarray(t) - 0.5)
        phi = make_operator("r_laplacian", r=2.0)
        with pytest.raises(InvalidInputError):
            make_problem(phi, shady, zero_rhs(), 0.0, 0.1, 1.0, mesh_n=64)
        mesh = Mesh.uniform(1.0, 64)
        with pytest.raises(InvalidInputError):
            sample_weight(shady, mesh)


@pytest.mark.parametrize(
    "weight", [constant_weight(1.0), one_plus_t_squared_weight(), sqrt_t_weight()]
)
def test_one_k1_for_checks_scalars_and_solver(weight):
    phi = make_operator("r_laplacian", r=2.0)
    prob = make_problem(phi, weight, constant_rhs(0.05), 0.0, 0.3, 1.0, mesh_n=256)
    k1 = sample_weight(weight, prob.mesh).k1
    assert SolverKernel(prob).disc is prob.disc
    assert prob.disc.k1 == k1
    assert derive_scalars(prob).k1 == k1
    assert check_theorem1(prob).item("recip-norm").quantity("k1") == k1


class TestProblemAssembly:
    def test_auto_mesh_grades_singular_weight(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, sqrt_t_weight(), zero_rhs(), 0.0, 0.3, 1.0, mesh_n=256)
        assert prob.mesh.singular_indices == (0,)
        np.testing.assert_array_equal(prob.mesh.nodes, Mesh.graded(1.0, 256, [0.0]).nodes)
        np.testing.assert_array_equal(prob.mesh.mid_cells, [0])

    def test_auto_mesh_uniform_otherwise(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0)
        np.testing.assert_array_equal(prob.mesh.nodes, np.linspace(0.0, 1.0, 1001))
        assert prob.mesh.singular_indices == ()
        assert prob.mesh.mid_cells.size == 0

    def test_auto_branch_lands_on_reference_slope(self):
        phi = make_operator("perona_malik")
        prob = make_problem(phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0)
        assert prob.branch.contains(0.3)
        assert prob.branch.increasing

    def test_validation(self):
        phi = make_operator("r_laplacian", r=2.0)
        with pytest.raises(InvalidInputError):
            make_problem(phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, -1.0)
        with pytest.raises(InvalidInputError):
            make_problem(phi, constant_weight(1.0), zero_rhs(), 0.0, 0.3, 1.0, p=0.5)
        with pytest.raises(InvalidInputError):
            make_problem(
                phi,
                constant_weight(1.0),
                zero_rhs(),
                0.0,
                0.3,
                2.0,
                mesh=Mesh.uniform(1.0, 64),
            )

    def test_constant_rhs(self):
        r = constant_rhs(-3.0)
        assert float(r.psi_at(0.2)) == pytest.approx(3.0)
        assert float(r(0.2, 1.0, 2.0)) == -3.0


class TestEnvelopes:
    def test_singular_nodes_get_sentinels(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, sqrt_t_weight(), constant_rhs(0.05), 0.0, 0.3, 1.0, mesh_n=256
        )
        sc = derive_scalars(prob)
        env = envelopes(prob, sc)
        assert env.eta1[0] == -SENTINEL
        assert env.eta2[0] == SENTINEL
        inner = slice(1, None)
        assert np.all(env.eta1[inner] < env.eta2[inner])
        # away from the singularity the bound is slope / k(t)
        t = prob.mesh.nodes[100]
        assert env.eta2[100] == pytest.approx(
            sc.slope_hi / math.sqrt(t), rel=1e-12
        )

    def test_smooth_weight_envelopes(self):
        phi = make_operator("r_laplacian", r=2.0)
        prob = make_problem(
            phi, one_plus_t_squared_weight(), constant_rhs(0.05), 0.0, 0.3, 1.0
        )
        sc = derive_scalars(prob)
        env = envelopes(prob, sc)
        assert np.all(np.abs(env.eta1) < SENTINEL)
        assert env.N1 < env.N2


class TestOddSymmetry:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.05, 0.6),
        st.floats(0.0, 0.04),
    )
    def test_half_width_identity(self, s_mag, L):
        # odd operators give mirrored problems slope boxes of equal half-width
        phi = make_operator("perona_malik")
        w = constant_weight(1.0)
        fwd = make_problem(
            phi, w, constant_rhs(L), 0.0, s_mag, 1.0, branch_hint=(-1, 1), mesh_n=64
        )
        bwd = make_problem(
            phi, w, constant_rhs(L), 0.0, -s_mag, 1.0, branch_hint=(-1, 1), mesh_n=64
        )
        sf = derive_scalars(fwd)
        sb = derive_scalars(bwd)
        # an incompatible mass leaves both boxes undefined
        assert math.isnan(sf.A_star) == math.isnan(sb.A_star)
        if math.isnan(sf.A_star):
            return
        half_f = max(abs(sf.A_star), abs(sf.B_star))
        half_b = max(abs(sb.A_star), abs(sb.B_star))
        assert half_f == pytest.approx(half_b, abs=1e-10)
        lifted = sf.phi_s_star + 2 * sf.L if s_mag >= 0 else None
        expect = float(np.asarray(fwd.branch.inverse(lifted)))
        assert half_f == pytest.approx(abs(expect), abs=1e-10)

    def test_mirrored_box_width(self):
        phi = make_operator("r_laplacian", r=3.0)
        w = one_plus_t_squared_weight()
        fwd = make_problem(phi, w, constant_rhs(0.1), -0.4, 0.6, 2.0)
        bwd = make_problem(phi, w, constant_rhs(0.1), 0.4, -0.6, 2.0)
        sf, sb = derive_scalars(fwd), derive_scalars(bwd)
        assert sf.N2 - sf.N1 == pytest.approx(sb.N2 - sb.N1, abs=1e-10)

