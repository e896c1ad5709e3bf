"""Observed order of accuracy on manufactured solutions.

Each row solves one problem with a closed-form solution on meshes of
n = 250, 500, 1000 and 2000 cells and fits the least-squares slope of
log(max nodal error) against log(n).  The rows here have a weight that
vanishes at a point, so 1/k is singular there; the power-law graded mesh
has to earn second order regardless (a uniform mesh gives 1/2).
"""

import dataclasses
import math

import numpy as np
import pytest

from phibvp import (
    Weight,
    constant_rhs,
    make_operator,
    make_problem,
    solve,
    sqrt_t_weight,
    zero_rhs,
)

MESH_NS = (250, 500, 1000, 2000)
MIN_ORDER = 1.7


def _interior_K(t):
    # K(t) = integral of |s - 1/2|^(-1/2) over [0, t]
    t = np.asarray(t, dtype=float)
    r = math.sqrt(0.5)
    below = 2.0 * (r - np.sqrt(np.maximum(0.5 - t, 0.0)))
    above = 2.0 * (r + np.sqrt(np.maximum(t - 0.5, 0.0)))
    return np.where(t <= 0.5, below, above)


def _rows():
    interior = Weight(fn=lambda t: np.sqrt(np.abs(t - 0.5)), singular_points=(0.5,))
    return {
        # (k sqrt(t) x')' = 0, x(0) = 0, x(1) = 1
        "sqrt_t-zero": (sqrt_t_weight(), zero_rhs(), np.sqrt),
        # (k x')' = 1: k x' = t + 1/6
        "sqrt_t-constant": (
            sqrt_t_weight(),
            constant_rhs(1.0),
            lambda t: np.sqrt(t) / 3.0 + 2.0 * t**1.5 / 3.0,
        ),
        # k = sqrt|t - 1/2|: x = K(t) / K(1)
        "interior-zero": (
            interior,
            zero_rhs(),
            lambda t: _interior_K(t) / _interior_K(1.0),
        ),
    }


def observed_order(weight, rhs, exact, generic_inverse):
    phi = make_operator("r_laplacian", r=2.0)
    errors = []
    for n in MESH_NS:
        problem = make_problem(phi, weight, rhs, 0.0, 1.0, 1.0, mesh_n=n)
        if generic_inverse:
            branch = dataclasses.replace(problem.branch, inverse=None)
            problem = dataclasses.replace(problem, branch=branch)
        report = solve(problem)
        assert report.status == "converged"
        t = problem.mesh.nodes
        errors.append(float(np.max(np.abs(report.x.values - exact(t)))))
    return -np.polyfit(np.log(MESH_NS), np.log(errors), 1)[0]


@pytest.mark.parametrize("generic_inverse", [False, True], ids=["closed-form", "generic"])
@pytest.mark.parametrize("row", sorted(_rows()))
def test_singular_weight_order(row, generic_inverse):
    weight, rhs, exact = _rows()[row]
    assert observed_order(weight, rhs, exact, generic_inverse) >= MIN_ORDER
