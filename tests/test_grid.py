import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phibvp.errors import InvalidInputError
from phibvp.grid import (
    GridFunction,
    Mesh,
    cell_integrals,
    cumulative_integral,
    difference_residual,
    halfline_integral,
    lp_norm,
    sample_midpoints,
    sample_nodes,
)


# -- mesh construction -------------------------------------------------------


def test_uniform_mesh_basics():
    mesh = Mesh.uniform(2.0, 10)
    assert mesh.n_cells == 10
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 2.0
    assert np.all(np.diff(mesh.nodes) > 0)
    assert mesh.mid_cells.size == 0


def test_uniform_mesh_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        Mesh.uniform(1.0, 1)
    with pytest.raises(InvalidInputError):
        Mesh.uniform(-1.0, 10)
    with pytest.raises(InvalidInputError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        Mesh(np.array([0.1, 0.5, 1.0]))


def test_graded_mesh_structure():
    mesh = Mesh.graded(1.0, 256, [0.0])
    assert mesh.n_cells == 256
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert mesh.singular_indices == (0,)
    # the power map t_i = (i/n)^4, with the midpoint rule on the first cell only
    np.testing.assert_allclose(mesh.nodes, (np.arange(257) / 256) ** 4, rtol=1e-15)
    np.testing.assert_array_equal(mesh.mid_cells, [0])
    assert np.all(np.diff(mesh.widths) > 0)


def test_graded_mesh_interior_singularity():
    mesh = Mesh.graded(1.0, 400, [0.5])
    assert mesh.n_cells == 400
    assert mesh.singular_indices == (200,)
    assert mesh.nodes[200] == 0.5
    np.testing.assert_array_equal(mesh.mid_cells, [199, 200])
    # graded toward 0.5 from both sides, mirror images of each other
    np.testing.assert_allclose(1.0 - mesh.nodes[::-1], mesh.nodes, atol=1e-15)
    assert mesh.widths[200] == pytest.approx(0.5 * 200.0**-4, rel=1e-9)


def test_graded_mesh_shares_cells_by_length():
    # pieces [0, 0.5] and [0.5, 2], both ends of the second one singular
    mesh = Mesh.graded(2.0, 100, [0.5, 2.0])
    assert mesh.singular_indices == (25, 100)
    np.testing.assert_array_equal(mesh.mid_cells, [24, 25, 99])
    # [0.5, 2] is graded toward both ends, and its 75 cells split at 1.25
    assert mesh.nodes[62] < 1.25 < mesh.nodes[63]
    assert mesh.widths[25] == pytest.approx(mesh.widths[99], rel=1e-6)


def test_graded_mesh_too_coarse():
    # fewer cells than pieces: [0, 0.25], [0.25, 0.5], [0.5, 0.75], [0.75, 1]
    with pytest.raises(InvalidInputError, match="too coarse for 4 pieces"):
        Mesh.graded(1.0, 3, [0.25, 0.5, 0.75])
    mesh = Mesh.graded(1.0, 4, [0.25, 0.5, 0.75])
    np.testing.assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(InvalidInputError, match="outside"):
        Mesh.graded(1.0, 10, [1.5])


@given(
    T=st.floats(1e-2, 1e2),
    ticks=st.lists(st.integers(0, 10**9), min_size=1, max_size=3),
    n=st.integers(4, 10**6),
    factor=st.integers(1, 3),
)
@example(T=1.0, ticks=[10**9], n=10**6, factor=2)  # a point at T
@example(T=1.0, ticks=[5 * 10**8], n=10**6, factor=2)  # an interior point
@example(T=1.0, ticks=[0, 5 * 10**8], n=10**6, factor=1)
@example(T=1.0, ticks=[3 * 10**8, 7 * 10**8], n=10**5, factor=1)
@settings(max_examples=30, deadline=None)
def test_graded_mesh_properties(T, ticks, n, factor):
    # points on a lattice of T/1e9: distinct points, and the ends 0 and T,
    # lie at least that far apart (two points a few ulps apart cannot
    # share out many cells); T * 10**9 / 10**9 may round off T itself
    points = [T if k == 10**9 else T * k / 10**9 for k in ticks]
    mesh = Mesh.graded(T, n, points)
    assert mesh.n_cells == n
    assert np.all(np.diff(mesh.nodes) > 0)
    assert [mesh.nodes[i] for i in mesh.singular_indices] == sorted(set(points))
    touching = sorted({c for i in mesh.singular_indices for c in (i - 1, i) if 0 <= c < n})
    np.testing.assert_array_equal(mesh.mid_cells, touching)
    for i in mesh.singular_indices:
        for c in (i - 1, i):
            if 0 <= c < n:
                assert mesh.midpoints[c] != mesh.nodes[i]
    fine = mesh.refine(factor)
    assert fine.singular_indices == tuple(factor * i for i in mesh.singular_indices)
    np.testing.assert_array_equal(fine.nodes[list(fine.singular_indices)], sorted(set(points)))


def test_graded_mesh_rejects_near_coincident_points():
    # one ulp apart: rounding gives the piece between them two cells,
    # and its middle node falls on an end
    named = r"0\.5 and 0\.5000000000000001 .* 1000 cells"
    with pytest.raises(InvalidInputError, match=named):
        Mesh.graded(1.0, 1000, [0.5, np.nextafter(0.5, 1.0)])


def test_graded_mesh_rejects_a_point_an_ulp_from_an_end():
    # the piece [p, T] is one cell one ulp wide, so its midpoint rounds
    # onto p and the midpoint rule would sample the weight at p
    T = 68.85704417533096
    p = np.nextafter(T, 0.0)
    with pytest.raises(InvalidInputError, match=r"68\.85704417533094 and 68\.85704417533096"):
        Mesh.graded(T, 4, [p])
    tiny = np.nextafter(0.0, 1.0)
    with pytest.raises(InvalidInputError, match="5e-324"):
        Mesh.graded(1.0, 4, [tiny])
    # two ulps leave room for a midpoint strictly inside
    mesh = Mesh.graded(1.0, 10, [0.5, 0.5 + 2 * np.spacing(0.5)])
    assert mesh.singular_indices == (5, 6)
    assert mesh.nodes[5] < mesh.midpoints[5] < mesh.nodes[6]


def test_refine_preserves_structure():
    mesh = Mesh.graded(1.0, 64, [0.0])
    fine = mesh.refine(4)
    assert fine.n_cells == 4 * mesh.n_cells
    assert fine.nodes[0] == 0.0 and fine.nodes[-1] == 1.0
    assert fine.singular_indices == (0,)
    np.testing.assert_array_equal(fine.mid_cells, [0])
    assert np.all(fine.nodes[::4] == mesh.nodes)


# -- integration -------------------------------------------------------------


def test_integrate_constant_exact():
    mesh = Mesh.uniform(1.0, 10)
    assert cumulative_integral(mesh, np.ones(11))[-1] == pytest.approx(1.0, abs=1e-15)


def test_integrate_linear_exact():
    mesh = Mesh.uniform(1.0, 7)
    assert cumulative_integral(mesh, mesh.nodes.copy())[-1] == pytest.approx(0.5, abs=1e-15)


def test_integrate_inverse_sqrt_singular():
    # oracle: d/dt (2 sqrt(t)) = t^(-1/2), so the exact integral over [0,1] is 2
    mesh = Mesh.graded(1.0, 256, [0.0])
    g = sample_nodes(mesh, lambda t: t ** -0.5)
    assert cumulative_integral(mesh, g)[-1] == pytest.approx(2.0, abs=1e-3)


def test_integrate_singular_without_evaluator_uses_finite_side():
    mesh = Mesh(np.linspace(0.0, 1.0, 5), singular_indices=(0,))
    vals = np.array([123.0, 1.0, 1.0, 1.0, 1.0])  # node 0 is a placeholder
    assert cumulative_integral(mesh, vals)[-1] == pytest.approx(1.0, abs=1e-15)


def test_integrate_rejects_nonfinite():
    mesh = Mesh.uniform(1.0, 4)
    with pytest.raises(InvalidInputError):
        GridFunction(mesh, np.array([0.0, 1.0, np.inf, 1.0, 0.0]))


def test_from_callable_rejects_nonfinite_off_flag():
    mesh = Mesh.uniform(1.0, 4)
    with pytest.raises(InvalidInputError):
        sample_nodes(mesh, lambda t: 1.0 / (t - 0.5))


def test_cumulative_zero_and_constant():
    mesh = Mesh.uniform(1.0, 16)
    zero = cumulative_integral(mesh, np.zeros(17))
    assert np.all(zero == 0.0)
    two = cumulative_integral(mesh, np.full(17, 2.0))
    assert np.allclose(two, 2.0 * mesh.nodes, atol=1e-15)


def test_cumulative_quadratic():
    mesh = Mesh.uniform(1.0, 1000)
    g = 3.0 * mesh.nodes**2
    G = cumulative_integral(mesh, g)
    assert G[-1] == pytest.approx(1.0, abs=1e-5)
    assert G[-1] == lp_norm(mesh, g, 1.0)  # bit-for-bit: one accumulator


def test_cumulative_monotone_for_nonnegative():
    mesh = Mesh.graded(1.0, 128, [0.0])
    g = sample_nodes(mesh, lambda t: 1.0 / np.sqrt(t) + np.sin(t) ** 2)
    G = cumulative_integral(mesh, g)
    assert np.all(np.diff(G) >= 0)


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    c=st.floats(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_integrate_is_linear(a, b, c):
    mesh = Mesh.uniform(1.0, 33)
    t = mesh.nodes
    g1 = np.sin(3 * t)
    g2 = t**2 - c

    def integrate(g):
        return cumulative_integral(mesh, g)[-1]

    lhs = integrate(a * g1 + b * g2)
    rhs = a * integrate(g1) + b * integrate(g2)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(a) + abs(b)))


def test_refinement_reduces_trapezoid_error():
    exact = math.e - 1.0
    errs = []
    for n in (100, 200):
        mesh = Mesh.uniform(1.0, n)
        errs.append(abs(cumulative_integral(mesh, np.exp(mesh.nodes))[-1] - exact))
    assert errs[0] / errs[1] >= 3.5


# -- norms -------------------------------------------------------------------


def test_norm_spec_validation():
    mesh = Mesh.uniform(1.0, 4)
    with pytest.raises(InvalidInputError):
        lp_norm(mesh, np.ones(5), 0.5)
    assert lp_norm(mesh, np.ones(5), math.inf) == 1.0


def test_norm_values():
    mesh = Mesh.uniform(1.0, 1000)
    g = mesh.nodes.copy()
    assert lp_norm(mesh, g, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)
    assert lp_norm(mesh, g, math.inf) == 1.0
    assert lp_norm(mesh, g, 1.0) == pytest.approx(0.5, abs=1e-12)


def _gridfunction_norm(mesh, values, p):
    # the norm as the last running integral of |v|^p, taken to the 1/p
    if math.isinf(p):
        return float(np.max(np.abs(values[~mesh.singular_mask()])))
    return float(cumulative_integral(mesh, np.abs(values) ** p)[-1] ** (1.0 / p))


def _cellwise_norm(mesh, values, p, mids):
    # the quadrature summed cell by cell in node order: trapezoids, and the
    # width times |sample|^p on each cell that touches a singular node
    if math.isinf(p):
        return float(np.max(np.abs(values[~mesh.singular_mask()])))
    powered = np.abs(values) ** p
    samples = iter(np.abs(mids) ** p)
    singular = mesh.singular_mask()
    total = 0.0
    for j, h in enumerate(mesh.widths):
        if singular[j] or singular[j + 1]:
            total += h * next(samples)
        else:
            total += 0.5 * h * (powered[j] + powered[j + 1])
    return float(float(total) ** (1.0 / p))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
@pytest.mark.parametrize("sampled_mids", [False, True])
def test_norm_matches_gridfunction_quadrature(p, sampled_mids):
    # sampled_mids: midpoint samples of the function passed to lp_norm, as
    # derive_scalars passes 1/k; else the endpoint stand-ins
    fn = lambda t: np.sin(7.0 * t) / np.sqrt(t + 0.01) - 0.3
    for mesh in (
        Mesh.uniform(1.0, 101),
        Mesh.graded(1.0, 256, [0.0]),
        Mesh.graded(2.0, 200, [0.7]),
    ):
        g = sample_nodes(mesh, fn)
        if not sampled_mids:
            assert lp_norm(mesh, g, p) == _gridfunction_norm(mesh, g, p)
        else:
            mids = sample_midpoints(mesh, fn)
            assert lp_norm(mesh, g, p, mids) == _cellwise_norm(mesh, g, p, mids)


def test_norm_rejects_an_overflowing_power():
    mesh = Mesh.uniform(1.0, 4)
    g = np.full(5, 1e200)
    with pytest.raises(InvalidInputError):
        lp_norm(mesh, g, 2.0)
    assert lp_norm(mesh, g, 1.0) == pytest.approx(1e200)


def test_mesh_geometry_is_cached_and_read_only():
    for mesh in (
        Mesh(np.linspace(0.0, 1.0, 11), singular_indices=(0,)),
        Mesh.graded(1.0, 64, [0.0, 0.5]),
    ):
        cells = {c for i in mesh.singular_indices for c in (i - 1, i)}
        expected = {
            "widths": np.diff(mesh.nodes),
            "midpoints": 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:]),
            "mid_cells": sorted(cells & set(range(mesh.n_cells))),
            "singular_mask": np.isin(np.arange(mesh.nodes.size), mesh.singular_indices),
        }
        for name, value in expected.items():
            first = getattr(mesh, name)
            first = first() if callable(first) else first
            again = getattr(mesh, name)
            again = again() if callable(again) else again
            assert again is first, name
            assert not first.flags.writeable, name
            np.testing.assert_array_equal(first, value)
            with pytest.raises(ValueError):
                first[:1] = first[:1]


def test_sup_norm_skips_singular_placeholder():
    mesh = Mesh(np.linspace(0.0, 1.0, 5), singular_indices=(0,))
    g = np.array([1e29, 0.5, 0.25, 0.125, 0.0])
    assert lp_norm(mesh, g, math.inf) == 0.5


def test_norms_of_a_mesh_without_regular_nodes_are_zero():
    # every node singular: the sup over no regular node is 0, as the L1 norm is
    mesh = Mesh(np.linspace(0.0, 1.0, 3), singular_indices=(0, 1, 2))
    assert lp_norm(mesh, np.array([1e29, 2.0, -3.0]), math.inf) == 0.0
    assert lp_norm(mesh, np.zeros(3), 1.0) == 0.0


@given(st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    mesh = Mesh.uniform(1.0, 50)
    u = rng.normal(size=51)
    v = rng.normal(size=51)
    for p in (1.0, 2.0, math.inf):
        lhs = lp_norm(mesh, u + v, p)
        assert lhs <= lp_norm(mesh, u, p) + lp_norm(mesh, v, p) + 1e-12


# -- finite-difference residual ----------------------------------------------


def test_residual_exact_for_quadratic():
    mesh = Mesh.uniform(1.0, 100)
    assert difference_residual(mesh, mesh.nodes**2, 2.0 * mesh.nodes) <= 1e-12


def test_residual_zero_for_linear():
    mesh = Mesh.uniform(1.0, 10)
    assert difference_residual(mesh, mesh.nodes.copy(), np.ones(11)) == 0.0


def test_residual_detects_defect():
    mesh = Mesh.uniform(1.0, 10)
    # a per-cell defect in u units: each cell misses h * 1
    assert difference_residual(mesh, np.zeros(11), np.ones(11)) == pytest.approx(0.1)


def test_residual_is_in_u_units_on_tiny_cells():
    # u is the running integral of rhs, so each cell matches to rounding
    # however small it is; the first graded cells here are about 4e-11 wide
    mesh = Mesh.graded(1.0, 400, [0.0])
    rhs = np.cos(3.0 * mesh.nodes)
    u = 0.7 + cumulative_integral(mesh, rhs)
    assert difference_residual(mesh, u, rhs) <= 1e-15


# -- one cell quadrature under every integral and defect ----------------------


@pytest.mark.parametrize(
    "mesh",
    [Mesh.uniform(2.0, 300), Mesh.graded(1.0, 400, [0.0])],
    ids=["uniform", "graded-sqrt-t"],
)
def test_cumulative_integral_is_the_running_sum_of_the_cells(mesh):
    # on the graded mesh the cell at t = 0 takes the midpoint rule, with
    # 1/sqrt(t) sampled there, as the sqrt_t weight does
    t = mesh.nodes
    values = np.where(t > 0.0, np.cos(3.0 * t) / np.sqrt(np.maximum(t, 1e-300)), 0.0)
    mids = sample_midpoints(mesh, lambda s: np.cos(3.0 * s) / np.sqrt(s))
    cells = cell_integrals(mesh, values, mids)
    running = np.concatenate(([0.0], np.cumsum(cells)))
    assert np.array_equal(cumulative_integral(mesh, values, mids), running)
    assert np.array_equal(cumulative_integral(mesh, values), np.concatenate(
        ([0.0], np.cumsum(cell_integrals(mesh, values)))
    ))


def test_difference_residual_is_the_per_cell_formula():
    mesh = Mesh.graded(1.0, 200, [0.0, 1.0])
    t = mesh.nodes
    u, rhs = np.sin(2.0 * t) + 1e-7 * t * t, 2.0 * np.cos(2.0 * t)
    h = mesh.widths
    defect = np.abs(np.diff(u) - 0.5 * h * (rhs[:-1] + rhs[1:]))[1:-1]
    assert difference_residual(mesh, u, rhs) == float(np.max(defect))


def test_halfline_integral_keeps_its_values():
    # the values of the trapezoid the cell quadrature replaced, to the bit;
    # 1/sqrt(t) is infinite at t = 0, which is dropped
    assert halfline_integral(lambda t: 1.0 / (1.0 + t * t)) == (
        1.5707956555661229, 9.000005964303031e-06
    )
    assert halfline_integral(lambda t: np.exp(-t) / np.sqrt(t)) == (1.7398018478598651, 0.0)
    assert halfline_integral(lambda t: 1.0 / (1.0 + t)) == (
        13.8155142791843, 2.3025766017072624
    )


def test_non_finite_sample_message_prints_a_plain_float():
    # a weight like `expr = t - 0.5` has 1/k = inf at t = 0.5
    mesh = Mesh.uniform(1.0, 10)
    with pytest.raises(InvalidInputError) as exc:
        sample_nodes(mesh, lambda t: 1.0 / (t - 0.5))
    message = str(exc.value)
    assert "(t=0.5)" in message
    assert "np.float64" not in message
