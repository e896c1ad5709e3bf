"""Heteroclinic continuation demo on [0, +inf).

Solves the worked cubic-decay family `halfline1` of phibvp.hypotheses,
((1+t^2) x')' = t^2 cos(x) x'^3, with boundary data 0 -> 0.2 on a
doubling interval schedule, prints each interval's sweeps, residual and
successive gap, then repeats with zero forcing where the limit is
lam * arctan(t) / (pi/2) in closed form.

Run:  python3 scripts/heteroclinic_demo.py
"""

import math

import numpy as np

from phibvp import (
    HalflineProblem,
    check_halfline,
    example_condition,
    find_branch,
    make_operator,
    one_plus_t_squared_weight,
    solve_halfline,
    zero_rhs,
)
from phibvp.hypotheses import EXAMPLES, example_params

LAM = 0.2
# the worked family halfline1 at its default r = (pi + 4)^(-3/2)
CUBIC = EXAMPLES["halfline1"]
PARAMS = example_params("halfline1", {})


def cubic_problem():
    phi = make_operator("r_laplacian", r=2.0)
    weight = one_plus_t_squared_weight()
    s_star = LAM / (math.pi / 2.0)
    branch = find_branch(phi, s_star)
    return HalflineProblem(
        phi, branch, weight, CUBIC.rhs(s_star, **PARAMS), 0.0, LAM,
        tol_h=1e-3, cells_per_unit=200, psi_l1=CUBIC.psi_l1(**PARAMS),
    )


def report_run(tag, hetero):
    print(f"\n== {tag}")
    print(f"{'interval':>10}  {'status':>10}  {'sweeps':>6}  {'residual':>11}  {'gap':>11}")
    for run in hetero.runs:
        gap = "-" if run.gap is None else f"{run.gap:11.4e}"
        print(
            f"[0, {run.n:5g}]  {run.report.status:>10}  {run.report.iterations:6d}  "
            f"{run.report.residual:11.3e}  {gap:>11}"
        )
    print(
        f"status {hetero.status}; tail value {hetero.tail_value:.6f} "
        f"(target {LAM}); k_infinity {hetero.scalars.k_inf:.6f}"
    )


def main():
    hp = cubic_problem()
    check = check_halfline(hp, L_lip=1.0, delta=0.5)
    print("half-line hypothesis check:", check.overall)
    for item in check.items:
        print(f"  {item.name}: {item.verdict}")
    admissible_bound = example_condition("halfline1", LAM).bound
    print(f"closed-form admissible |lambda| bound: {admissible_bound:.6f} > {LAM}")

    report_run("cubic forcing", solve_halfline(hp))

    hp0 = HalflineProblem(
        hp.phi, hp.branch, hp.weight, zero_rhs(), 0.0, LAM,
        tol_h=1e-3, cells_per_unit=200, psi_l1=0.0,
    )
    hetero0 = solve_halfline(hp0)
    report_run("zero forcing (closed form known)", hetero0)
    worst = 0.0
    for run in hetero0.runs:
        t = run.report.x.mesh.nodes
        exact = LAM * np.arctan(t) / math.atan(run.n)
        worst = max(worst, float(np.max(np.abs(run.report.x.values - exact))))
    print(f"worst deviation from lam*arctan(t)/arctan(n): {worst:.3e}")


if __name__ == "__main__":
    main()
