"""Heteroclinic connections on [0, +inf) by exhaustion of [0, n].

Solving the Dirichlet problem on a growing schedule of intervals [0, n_j]
and extending each solution by nu2 yields a sequence whose uniform gaps
contract when 1/k and psi are integrable on the half-line; the limit
connects x(0) = nu1 to x(+inf) = nu2.  This module runs the schedule,
starts each interval from the previous solution moved in K (exact when
f = 0, see solve_halfline), and monitors the gap sequence together with
the uniform slope and offset bounds that justify the limit passage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidInputError, PhibvpError
from .grid import GridFunction, halfline_integral
from .operators import MonotoneBranch, PhiOperator
from .problem import BvpProblem, Rhs, Weight, default_mesh, reference_slopes, sample_weight
from .solver import IterationConfig, SolveReport, solve

DEFAULT_SCHEDULE = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
K_MASS_CELLS = 4000


def k_mass_upto(weight: Weight, t: float) -> float:
    """||1/k||_L1 over [0, t], exact when the antiderivative is known, else
    by the mesh quadrature on K_MASS_CELLS cells."""
    if not (t > 0 and math.isfinite(t)):
        raise InvalidInputError("t must be positive and finite")
    K = weight.recip_antiderivative
    if K is not None:
        val = float(K(float(t))) - float(K(0.0))
        if math.isfinite(val):
            return val
    return sample_weight(weight, default_mesh(weight, float(t), n=K_MASS_CELLS)).k1


def recip_mass(weight: Weight, k_infinity: float | None = None) -> tuple[float, float]:
    """(||1/k||_L1 over the half-line, truncation proxy): k_infinity when
    pinned, else the weight's own Weight.recip_halfline."""
    if k_infinity is not None:
        return k_infinity, 0.0
    return weight.recip_halfline


def psi_mass(rhs: Rhs, psi_l1: float | None = None) -> tuple[float, float]:
    """(||psi||_L1 over the half-line, truncation proxy): psi_l1 when
    pinned, else a numeric integral."""
    if psi_l1 is not None:
        return psi_l1, 0.0
    return halfline_integral(rhs.psi_at)


def limit_slope(nu1: float, nu2: float, k_inf: float) -> float:
    """s*_inf = (nu2 - nu1) / ||1/k||_L1(0,inf); NaN unless that mass is
    positive and finite."""
    return (nu2 - nu1) / k_inf if 0.0 < k_inf < math.inf else math.nan


@dataclass(frozen=True)
class HalflineScalars:
    """The half-line twin of DerivedScalars: the masses of 1/k and psi with
    their truncation proxies, s*_inf, Phi(s*_inf) and the sorted slope box
    Phi^-1(Phi(s*_inf) +- 2 ell_inf).  A failed hypothesis leaves the
    fields it undefines NaN, as there."""

    k_inf: float
    k_tail: float
    ell_inf: float
    psi_tail: float
    s_inf: float
    phi_s_inf: float
    slope_lo: float
    slope_hi: float


@dataclass(frozen=True, eq=False)
class HalflineProblem:
    """Dirichlet data at 0 and +inf plus the interval exhaustion schedule.

    k_infinity and psi_l1 optionally pin the half-line masses of 1/k and
    psi exactly; otherwise the weight's recip_total or a truncated
    numeric integral stands in (see recip_mass and psi_mass).
    """

    phi: PhiOperator
    branch: MonotoneBranch | None  # None: no branch holds s*_inf
    weight: Weight
    rhs: Rhs
    nu1: float
    nu2: float
    schedule: tuple[float, ...] = DEFAULT_SCHEDULE
    tol_h: float = 1e-3
    cells_per_unit: int = 200
    p: float = 1.0
    k_infinity: float | None = None
    psi_l1: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.schedule, dtype=float)
        if arr.size < 2:
            raise InvalidInputError("schedule needs at least two intervals")
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            raise InvalidInputError("schedule entries must be positive and finite")
        if not np.all(np.diff(arr) > 0):
            raise InvalidInputError("schedule must be strictly increasing")
        if not (self.tol_h > 0 and math.isfinite(self.tol_h)):
            raise InvalidInputError("tol_h must be positive")
        if self.cells_per_unit < 1:
            raise InvalidInputError("cells_per_unit must be at least 1")
        for v in (self.nu1, self.nu2):
            if not math.isfinite(v):
                raise InvalidInputError("boundary values must be finite")
        if not (self.p >= 1.0):
            raise InvalidInputError("p must satisfy p >= 1")
        if self.k_infinity is not None and not (
            self.k_infinity > 0 and math.isfinite(self.k_infinity)
        ):
            raise InvalidInputError("k_infinity must be positive and finite")
        if self.psi_l1 is not None and not (
            self.psi_l1 >= 0 and math.isfinite(self.psi_l1)
        ):
            raise InvalidInputError("psi_l1 must be nonnegative and finite")

    @cached_property
    def scalars(self) -> HalflineScalars:
        """The half-line scalars, derived once; never raises (see
        reference_slopes, whose rule leaves the box NaN also for ell_inf < 0)."""
        k_inf, k_tail = recip_mass(self.weight, self.k_infinity)
        ell_inf, psi_tail = psi_mass(self.rhs, self.psi_l1)
        s_inf = limit_slope(self.nu1, self.nu2, k_inf)
        phi_s, *box = reference_slopes(self.phi, self.branch, s_inf, ell_inf, ell_inf >= 0.0)
        return HalflineScalars(k_inf, k_tail, ell_inf, psi_tail, s_inf, phi_s, *sorted(box))


def extend_by_nu2(x_on_interval: GridFunction, eval_points) -> np.ndarray:
    """Evaluate x on [0, n] by linear interpolation, constant beyond n.

    The extension constant is the final nodal value, which a converged
    interval solve pins to nu2.
    """
    pts = np.asarray(eval_points, dtype=float)
    if np.any(pts < 0.0):
        raise DomainError("evaluation points must be nonnegative")
    return np.interp(pts, x_on_interval.mesh.nodes, x_on_interval.values)


@dataclass(frozen=True, eq=False)
class IntervalRun:
    """One interval of the schedule with its diagnostics."""

    n: float
    k_n: float
    s_star_n: float
    report: SolveReport
    gap: float | None
    envelope_excess: float
    offset_excess: float


@dataclass(frozen=True, eq=False)
class HeteroclinicReport:
    status: str  # "converged" | "schedule-exhausted" | "aborted"
    runs: tuple[IntervalRun, ...]
    gaps: tuple[tuple[float, float], ...]  # (interval label n_j, gap value)
    x_final: GridFunction | None
    tail_value: float
    tail_defect: float
    scalars: HalflineScalars
    offset_bound: float
    uniform_envelope_ok: bool
    uniform_offset_ok: bool
    detail: str = ""


def _interval_problem(hp: HalflineProblem, n: float) -> BvpProblem:
    cells = max(2, int(round(hp.cells_per_unit * float(n))))
    disc = sample_weight(hp.weight, default_mesh(hp.weight, float(n), n=cells))
    return BvpProblem(
        hp.phi, hp.branch, hp.weight, hp.rhs, hp.nu1, hp.nu2, float(n), p=hp.p,
        disc=disc.with_psi(hp.rhs),
    )


def _gap(prev: GridFunction, cur: GridFunction) -> float:
    # both extensions are piecewise linear, so the sup of the difference
    # is attained at a node of one of the two meshes
    pts = np.concatenate((prev.mesh.nodes, cur.mesh.nodes))
    return float(np.max(np.abs(extend_by_nu2(prev, pts) - extend_by_nu2(cur, pts))))


def _uniform_excess(
    problem: BvpProblem, report: SolveReport, sc: HalflineScalars, offset: float
) -> tuple[float, float]:
    lo, hi = sc.slope_lo, sc.slope_hi
    if math.isnan(lo):
        return math.inf, math.inf
    nodes = problem.mesh.nodes
    ok = ~problem.mesh.singular_mask()
    kv = np.asarray(problem.weight(nodes), dtype=float)
    slopes = kv[ok] * report.x_prime.values[ok]
    env = max(0.0, lo - float(np.min(slopes)), float(np.max(slopes)) - hi)
    off = max(0.0, float(np.max(np.abs(report.x.values - problem.nu1))) - offset)
    return env, off


def solve_halfline(
    hp: HalflineProblem, config: IterationConfig | None = None
) -> HeteroclinicReport:
    """Run the interval schedule until successive extensions agree.

    Each interval after the first starts from the previous solution moved
    by the change of the affine-in-K profile nu1 + (nu2 - nu1) K / K(n),
    K the running integral of 1/k: that profile solves every interval when
    f = 0, so there the start is exact and converges in one sweep.  The
    first gap at or below tol_h stops the schedule; a per-interval solve
    that does not converge aborts it with the partial report.
    """
    cfg = config if config is not None else IterationConfig()
    sc = hp.scalars
    boxed = not math.isnan(sc.slope_lo)
    offset = sc.k_inf * (abs(sc.slope_lo) + abs(sc.slope_hi))

    runs: list[IntervalRun] = []
    gaps: list[tuple[float, float]] = []
    prev: SolveReport | None = None
    prev_n = math.nan
    prev_k = -math.inf
    prev_abs_s = math.inf
    move = hp.nu2 - hp.nu1
    status = "schedule-exhausted"
    detail = ""

    for n in hp.schedule:
        k_n = k_mass_upto(hp.weight, float(n))
        s_n = move / k_n
        if not (k_n > prev_k):
            raise InvalidInputError("interval mass k_n failed to increase")
        if abs(s_n) > prev_abs_s + 1e-15 * (1.0 + abs(s_n)):
            raise InvalidInputError("interval slope |s_n*| failed to decrease")
        prev_k, prev_abs_s = k_n, abs(s_n)

        try:
            # sampling 1/k and psi on [0, n] can fail like the solve
            problem = _interval_problem(hp, n)
            initial = None
            if prev is not None:
                nodes, K = problem.mesh.nodes, problem.disc.recip_cumulative
                K_prev, slope = np.interp(prev_n, nodes, K), move * problem.disc.recip_n
                x0 = extend_by_nu2(prev.x, nodes) + move * (K / K[-1] - np.minimum(K / K_prev, 1))
                mask = ~prev.x.mesh.singular_mask()
                xp0 = np.interp(nodes, prev.x.mesh.nodes[mask], prev.x_prime.values[mask])
                xp0 = np.where(nodes <= prev_n, xp0 - slope / K_prev, 0.0) + slope / K[-1]
                initial = (x0, xp0)
            rep = solve(problem, cfg, initial=initial)
        except PhibvpError as exc:
            status = "aborted"
            detail = f"interval [0, {n:g}]: {exc}"
            break
        env_ex, off_ex = _uniform_excess(problem, rep, sc, offset)
        gap = None
        if prev is not None:
            gap = _gap(prev.x, rep.x)
            gaps.append((float(prev_n), gap))
        runs.append(IntervalRun(n=float(n), k_n=k_n, s_star_n=s_n, report=rep, gap=gap,
                                envelope_excess=env_ex, offset_excess=off_ex))
        if rep.status != "converged":
            status = "aborted"
            detail = f"interval [0, {n:g}]: solver status {rep.status!r}"
            break
        if gap is not None and gap <= hp.tol_h:
            status = "converged"
            break
        prev, prev_n = rep, n

    x_final = runs[-1].report.x if runs else None
    tail_value = float(x_final.values[-1]) if x_final is not None else math.nan
    tail_defect = abs(tail_value - hp.nu2) if x_final is not None else math.nan
    env_tol = 1e-8 * (1.0 + (abs(sc.slope_lo) + abs(sc.slope_hi) if boxed else 0.0))
    finished = status != "aborted" and bool(runs)
    env_ok = finished and boxed and all(r.envelope_excess <= env_tol for r in runs)
    off_ok = finished and boxed and all(r.offset_excess <= env_tol for r in runs)
    if not boxed and not detail:
        detail = "uniform slope box unavailable (half-line margins fail)"
    return HeteroclinicReport(
        status=status,
        runs=tuple(runs),
        gaps=tuple(gaps),
        x_final=x_final,
        tail_value=tail_value,
        tail_defect=tail_defect,
        scalars=sc,
        offset_bound=offset,
        uniform_envelope_ok=env_ok,
        uniform_offset_ok=off_ok,
        detail=detail,
    )
