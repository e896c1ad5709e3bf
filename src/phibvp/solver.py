"""Picard iteration for (Phi(k x'))' = f(t, x, x') with Dirichlet data.

One sweep of the scheme evaluates the truncated right-hand side F at the
current iterate, accumulates its running integral, solves the scalar
equation

    integral over [0,T] of (1/k(t)) Phi^{-1}(beta + F_cum(t)) dt = nu2 - nu1

for the integration constant beta, and integrates the new derivative
Phi^{-1}(beta + F_cum)/k back up from nu1.  The left side is strictly
monotone in beta.  Its solve starts at the root of one linear model of
the map about the last sweep's output (BetaEquation._model), takes a
Newton step with the model's slope, then plain secant steps, until a
point meets tol_beta or two evaluated points change sign (Deuflhard,
Newton Methods for Nonlinear Problems, 2004, ch. 2).  That local
certified bracket is closed in scalar arithmetic by the Illinois rule of
operators.bracketed_root: regula falsi with a bisection safeguard, point
for point (close_bracket).  The wide bracket that the image
margin guarantees is evaluated only when the walk reaches one of its
ends or stalls.  Every sweep output lands inside the derived slope
envelopes and the solution box regardless of its input, which is what
makes the truncation harmless and the iteration stable.
A decreasing branch is solved as it is: the scalar map then decreases in
beta, and the beta solve and the branch inverse read the orientation.

The solution is checked a-posteriori by `verify`, the routine that
`phibvp verify` runs on a table it reads.  A SolveReport holds neither
its problem nor a verification: the solve command verifies the columns
it writes, and a sweep row or a half-line interval pays nothing for it.

Each evaluation of the scalar map inverts Phi on the branch at every node.
Without a closed-form inverse, every inversion of a solve after the first
starts from the certified brackets of the one before: one
operators.InverseStart record lives for the whole solve, and _iterate
hands it through g_map and BetaEquation to partial_inverse_array.  The
targets move little between inversions (the beta walk's steps, and F
between sweeps), so a Newton and a secant step from the last brackets
and three vector evaluations of Phi certify each inversion.  Elements
that move too far take the step a second time, and every result stays
the regula falsi point of a certified bracket.  The record's anchors
and slopes also give the beta solve its linear model; once the sweeps
settle, one inversion meets tol_beta.

The outer loop is undamped by default: a window-3 secant (Anderson) step
mixes the raw sweep outputs.  Its history is a ring of consecutive
differences of the residuals and of the mixed points, and its
coefficients solve the m x m (m <= 3) normal equations of those
differences (Walker and Ni, SIAM J. Numer. Anal. 49, 2011).  Existence
comes from a fixed point of the integral map, not from a contraction, so
damping is a numerical choice only; it comes in when the loop stagnates,
which halves omega.

The truncation box for x, BvpProblem.box, is [min(nu1, N1), max(nu1, N2)]:
the running integral of a derivative pinched between A*/k and B*/k can
approach nu1 at one end and nu1 + k1 A* (or + k1 B*) at the other, so
both must lie inside the clamp for the clamp to vanish at a fixed point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    BetaBracketError,
    BranchError,
    InvalidInputError,
    MeshMismatchError,
    RhsEvaluationError,
)
from .grid import (
    GridFunction,
    Mesh,
    cell_integrals,
    cumulative_integral,
    difference_residual,
    lp_norm,
)
from .operators import InverseStart, partial_inverse_array
from .problem import (
    BvpProblem,
    DerivedScalars,
    Envelopes,
    derive_scalars,
    envelopes,
    require_box,
)

log = logging.getLogger(__name__)

# Relative slack below which a clamp is bookkeeping noise, not activity.
_CLIP_RTOL = 1e-12

# Cap on the scalar-map evaluations of one beta solve inside its bracket.
BETA_MAX_ITER = 200

# The outer loop's secant step mixes the last SECANT_WINDOW sweep outputs;
# stagnation halves omega down to MIN_OMEGA.
SECANT_WINDOW = 3
MIN_OMEGA = 1.0 / 16.0


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for the Picard loop; defaults suit the catalog problems.

    omega = 1 leaves the sweep outputs undamped.  After `stagnation`
    sweeps without a new smallest step, omega halves, down to MIN_OMEGA.
    """

    omega: float = 1.0
    max_outer: int = 200
    tol_fp: float = 1e-10
    tol_beta: float = 1e-12
    stagnation: int = 10

    def __post_init__(self):
        # each message starts with the field name, which is also the
        # [iteration] config key
        if not (MIN_OMEGA <= self.omega <= 1.0):
            raise InvalidInputError(f"omega (damping) must lie in [{MIN_OMEGA}, 1]")
        if self.max_outer < 1:
            raise InvalidInputError("max_outer must be at least 1")
        if not 0 < self.tol_fp < math.inf:
            raise InvalidInputError("tol_fp must be positive and finite")
        if not 0 < self.tol_beta < math.inf:
            raise InvalidInputError("tol_beta must be positive and finite")
        if self.stagnation < 1:
            raise InvalidInputError("stagnation must be at least 1")


class SolverKernel:
    """The problem a beta equation is posed on; its 1/k tables and k1
    come from problem.disc, so building one samples nothing."""

    def __init__(self, problem: BvpProblem):
        self.problem = problem
        self.disc = problem.disc


def close_bracket(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, ftol: float
) -> float:
    """Root of an increasing scalar map f inside a < b, fa <= 0 <= fb.

    The scalar form of operators.bracketed_root on one element, with
    xtol = 0 and max_iter = BETA_MAX_ITER: it evaluates f at the same
    points, bit for bit, and returns the same regula falsi point of the
    final bracket.  Each step evaluates f at the regula falsi point, the
    value of an end kept twice in a row halved (Illinois), or at the
    midpoint when the bracket has not halved within two steps or that
    point is not strictly inside.  It stops at a point with |f| <= ftol,
    when no float lies strictly inside the bracket, or after BETA_MAX_ITER
    evaluations.
    """
    if abs(fa) <= ftol:
        b = a
    if abs(fb) <= ftol:
        a = b
    kept = 0  # -1: a moved last, +1: b moved last
    w1 = w2 = math.inf  # bracket widths one and two steps back
    for _ in range(BETA_MAX_ITER):
        W = b - a
        M = 0.5 * (a + b)
        if not (W > 0.0 and a < M < b):
            break
        # fb == fa leaves the regula falsi point undefined: the midpoint
        x = M if W > 0.5 * w2 or fb == fa else b - fb * (W / (fb - fa))
        if not a < x < b:
            x = M
        fx = f(x)
        if fx < 0.0:
            a, fa = x, fx
            fb = 0.5 * fb if kept < 0 else fb
            kept = -1
        else:
            b, fb = x, fx
            fa = 0.5 * fa if kept > 0 else fa
            kept = 1
        w2, w1 = w1, W
        if abs(fx) <= ftol:
            a = b = x
    if fb == fa:
        return a
    x = b - fb * ((b - a) / (fb - fa))
    return x if a <= x <= b else a


@dataclass(frozen=True, eq=False)
class BetaEquation:
    """The strictly monotone scalar map xi -> integral (1/k) Phi^{-1}(xi + F);
    Phi, its branch and the target nu2 - nu1 are those of kernel.problem."""

    kernel: SolverKernel
    F_n: np.ndarray
    # where each inversion starts: the brackets of the last one
    start: InverseStart | None = field(default=None, repr=False)
    # the 1/k-weighted mean of the last sweep output's u (GStep.ubar);
    # None reads as Phi(s*_d), the u of the affine-in-K start
    ubar: float | None = None
    # the last (xi, cumulative(xi)): the solve ends on the point g_map
    # integrates, so that integration is free
    _last: list = field(default_factory=list, repr=False)

    @staticmethod
    def build(
        kernel: SolverKernel, Fcum: np.ndarray,
        start: InverseStart | None = None, ubar: float | None = None,
    ) -> "BetaEquation":
        """The map for the running integral Fcum of F at the nodes of the
        kernel's mesh; `start`, when given, carries each inversion's
        brackets to the next (see operators.partial_inverse_array)."""
        F_n = np.asarray(Fcum, dtype=float)
        if F_n.shape != kernel.disc.mesh.nodes.shape:
            raise InvalidInputError("cumulative grid lives on a different mesh")
        if not np.all(np.isfinite(F_n)):
            raise InvalidInputError("grid function values must be finite")
        return BetaEquation(kernel, F_n, start, ubar)

    def _slopes(self, xi: float) -> tuple[np.ndarray, np.ndarray]:
        # Phi^{-1}(xi + F) at the nodes only, weighted by 1/k
        problem = self.kernel.problem
        inv = partial_inverse_array(
            problem.phi, problem.branch, xi + self.F_n, self.start
        )
        return self.kernel.disc.weighted(inv)

    def cumulative(self, xi: float) -> tuple[np.ndarray, np.ndarray]:
        """Running integral of (1/k)Phi^{-1}(xi + F) and its nodal integrand."""
        if self._last and self._last[0] == xi:
            return self._last[1]
        # the last evaluation goes before this one allocates
        self._last.clear()
        w_n, w_mid = self._slopes(xi)
        out = (cumulative_integral(self.kernel.disc.mesh, w_n, w_mid), w_n)
        self._last[:] = (xi, out)
        return out

    def value(self, xi: float) -> float:
        return float(self.cumulative(xi)[0][-1])

    @cached_property
    def F_mean(self) -> float:
        """Fbar, the 1/k-weighted mean of F, by the quadrature of value."""
        disc = self.kernel.disc
        return float(cell_integrals(disc.mesh, *disc.weighted(self.F_n)).sum()) / disc.k1

    def u_mean(self, beta: float) -> float | None:
        """beta + Fbar, the mean of u = beta + F, if the model took Fbar."""
        # F_mean's cache: a solve that reads only the record skips Fbar
        F_mean = vars(self).get("F_mean")
        return None if F_mean is None else beta + F_mean

    @cached_property
    def _uniform_slope(self) -> float:
        # k1 / Phi'(s*_d), with Phi' from a central difference that stays
        # inside the branch
        problem = self.kernel.problem
        s, br = problem.scalars.s_star, problem.branch
        h = min(1e-6 * (1.0 + abs(s)), 0.5 * (s - br.lo), 0.5 * (br.hi - s))
        with np.errstate(all="ignore"):
            phi_pm = np.asarray(problem.phi(np.array([s - h, s + h])))
            return float(self.kernel.disc.k1 * 2.0 * h / (phi_pm[1] - phi_pm[0]))

    def _model(self) -> tuple[float, float]:
        """(root, B) of the linear model value(xi) ~ A + B xi about the
        last sweep's output.

        An inversion record of the mesh's size (see operators.InverseStart)
        linearises Phi^{-1}(y) ~ s0 + (y - p0)/m0 per node, so A = integral
        (1/k)(s0 + (F - p0)/m0) and B = integral (1/k)/m0, by the
        quadrature of value; used where A is finite and B finite with the
        branch's sign.  Otherwise every node takes the slope Phi'(s*_d):
        the last output's x' integrates to the target and its u has the
        mean ubar = beta + Fbar, so B = k1/Phi'(s*_d) and the root is
        ubar - Fbar whatever the slope, exact when Phi is affine.
        """
        problem = self.kernel.problem
        target = problem.nu2 - problem.nu1
        start = self.start
        if start is not None and start.s is not None and start.s.size == self.F_n.size:
            disc = self.kernel.disc
            with np.errstate(all="ignore"):
                recip = 1.0 / start.slope
                w = np.subtract(self.F_n, start.phi)
                w *= recip
                w += start.s
                A = float(cell_integrals(disc.mesh, *disc.weighted(w)).sum())
                del w
                B = float(cell_integrals(disc.mesh, *disc.weighted(recip)).sum())
            sgn = 1.0 if problem.branch.increasing else -1.0
            if math.isfinite(A) and math.isfinite(B) and sgn * B > 0.0:
                return (target - A) / B, B
        ubar = problem.scalars.phi_s_star if self.ubar is None else self.ubar
        return ubar - self.F_mean, self._uniform_slope

    def solve(self, tol_beta: float) -> float:
        """Root of value(xi) = target inside a certified bracket.

        The search starts at the root of the linear model (see _model), or
        at the midpoint of the theoretical bracket [lo, hi] when that root
        is not strictly inside it.  The first step is Newton's, with B of
        the model that the first evaluation refreshed; later steps are
        plain secant steps.  The walk ends at a point with |r| <= tol_beta,
        or when two evaluated points change sign, and that local certified
        bracket is closed.  Only a walk that reaches an end of [lo, hi] or
        stalls evaluates, and if need be expands, the theoretical bracket
        itself.
        """
        problem = self.kernel.problem
        br = problem.branch
        target = problem.nu2 - problem.nu1
        s_star_d, phi_sd = problem.scalars.s_star, problem.scalars.phi_s_star
        if math.isnan(phi_sd):
            raise BranchError(
                f"discrete reference slope {s_star_d!r} escapes the branch"
            )
        m_F, M_F = float(self.F_n.min()), float(self.F_n.max())
        pad = 1e-12 * (1.0 + abs(phi_sd) + abs(m_F) + abs(M_F))
        # keep xi + F strictly inside the branch image at every sample
        b1, b2 = br.image_lo, br.image_hi
        lo_img = b1 - m_F + 1e-14 * (1.0 + abs(b1)) if math.isfinite(b1) else -math.inf
        hi_img = b2 - M_F - 1e-14 * (1.0 + abs(b2)) if math.isfinite(b2) else math.inf
        lo = max(phi_sd - M_F - pad, lo_img)
        hi = min(phi_sd - m_F + pad, hi_img)
        if not lo < hi:
            raise BetaBracketError(
                f"empty bisection bracket [{lo!r}, {hi!r}]; the compatibility "
                "margin is thinner than quadrature accuracy"
            )
        # the scalar map shares the branch orientation; fold it into the sign
        sgn = 1.0 if br.increasing else -1.0
        # every evaluated point; the answer is the one of least |r|
        tried = []

        def residual(xi: float) -> float:
            r = sgn * (self.value(xi) - target)
            tried.append((abs(r), xi))
            return r

        def close(a: float, b: float, r_a: float, r_b: float) -> float:
            close_bracket(residual, a, b, r_a, r_b, tol_beta)
            return min(tried)[1]

        x = self._model()[0]
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        r = residual(x)
        if abs(r) <= tol_beta:
            return x
        slope = sgn * self._model()[1]
        if math.isfinite(slope) and slope > 0.0:
            step = -r / slope
        else:
            step = math.copysign(0.25 * (hi - lo), -r)
        for _ in range(60):
            x_new = min(max(x + step, lo), hi)
            if x_new == x:
                break
            r_new = residual(x_new)
            if abs(r_new) <= tol_beta:
                return x_new
            if (r_new > 0.0) != (r > 0.0):
                (a, r_a), (b, r_b) = sorted(((x, r), (x_new, r_new)))
                if r_a < 0.0 < r_b:
                    return close(a, b, r_a, r_b)
                break
            slope = (r_new - r) / (x_new - x)
            if x_new in (lo, hi) or not slope > 0.0:
                break
            x, r, step = x_new, r_new, -r_new / slope

        # the walk reached an end of [lo, hi] or stalled: certify the
        # theoretical bracket, expanding it if it does not straddle
        r_lo = residual(lo)
        r_hi = residual(hi)
        for _ in range(60):
            if r_lo <= 0.0 <= r_hi:
                break
            width = hi - lo
            if r_lo > 0.0:
                lo2 = max(lo - width, lo_img)
                if lo2 >= lo:
                    break
                lo = lo2
                r_lo = residual(lo)
            else:
                hi2 = min(hi + width, hi_img)
                if hi2 <= hi:
                    break
                hi = hi2
                r_hi = residual(hi)
        if not (r_lo <= 0.0 <= r_hi):
            raise BetaBracketError(
                "bisection bracket does not straddle the boundary target: "
                f"residuals ({r_lo!r}, {r_hi!r}) at ({lo!r}, {hi!r})"
            )
        return close(lo, hi, r_lo, r_hi)


def truncated_rhs(
    problem: BvpProblem,
    envs: Envelopes,
    x: np.ndarray,
    x_prime: np.ndarray,
    stats: dict | None = None,
) -> np.ndarray:
    """f sampled at the clamped iterate, itself clamped into [-psi, psi].

    A nonzero psi clip count means the sampled domination hypothesis is
    violated at some node; it is logged and surfaces in the solve status.
    `envs` must come from `envelopes`, which has checked that no bound is
    inverted; psi comes from problem.disc.
    """
    nodes = problem.mesh.nodes
    singular = problem.mesh.singular_mask()
    box_lo, box_hi = problem.box
    tx = np.clip(x, box_lo, box_hi)
    txp = np.clip(x_prime, envs.eta1, envs.eta2)
    with np.errstate(all="ignore"):
        F = np.asarray(problem.rhs(nodes, tx, txp), dtype=float)
    if problem.mesh.singular_indices:
        F = np.where(singular, 0.0, F)
    elif F.shape != nodes.shape:
        F = np.broadcast_to(F, nodes.shape)
    if not np.isfinite(F).all():
        j = int(np.argmin(np.isfinite(F)))
        raise RhsEvaluationError(j, float(nodes[j]))
    # psi_n is 0 at singular nodes, where F is 0 too
    psi_n = problem.disc.psi_n
    over = np.abs(F) > psi_n * (1.0 + _CLIP_RTOL)
    clipped = int(np.count_nonzero(over))
    if clipped:
        log.warning(
            "psi domination violated at %d node(s); clipping f to +-psi", clipped
        )
        F = np.clip(F, -psi_n, psi_n)
    if stats is not None:
        moved_x = np.abs(tx - x) > _CLIP_RTOL * (1.0 + np.abs(x))
        moved_y = np.abs(txp - x_prime) > _CLIP_RTOL * (1.0 + np.abs(x_prime))
        stats["truncated_nodes"] = int(np.count_nonzero((moved_x | moved_y) & ~singular))
        stats["psi_clips"] = clipped
    return F


@dataclass(frozen=True, eq=False)
class GStep:
    """One application of the integral map g, on the problem's nodes."""

    x: np.ndarray
    x_prime: np.ndarray
    beta: float
    u: np.ndarray
    # the 1/k-weighted mean of u, the next beta solve's anchor; None where
    # the solve started from the inversion record (BetaEquation.u_mean)
    ubar: float | None


def g_map(
    problem: BvpProblem,
    x: np.ndarray,
    x_prime: np.ndarray,
    envs: Envelopes | None = None,
    tol_beta: float = 1e-12,
    ubar: float | None = None,
    inverse_start: InverseStart | None = None,
) -> GStep:
    """g_x = nu1 + cumulative (1/k) Phi^{-1}(beta + F_cum) at one iterate.

    `ubar`, the last output's GStep.ubar, anchors the beta solve's linear
    model (see BetaEquation._model).  `inverse_start` carries the brackets
    of each branch inversion to the next, across sweeps too.  Every output
    must be finite.
    """
    env = envs if envs is not None else envelopes(problem)
    F = truncated_rhs(problem, env, x, x_prime)
    Fcum = cumulative_integral(problem.mesh, F)
    # F is spent: the beta solve's inversions set the peak memory
    del F
    eq = BetaEquation.build(SolverKernel(problem), Fcum, inverse_start, ubar)
    beta = eq.solve(tol_beta)
    cum, w_n = eq.cumulative(beta)
    x_new = problem.nu1 + cum
    u = beta + Fcum
    if not all(np.all(np.isfinite(v)) for v in (x_new, w_n, u)):
        raise InvalidInputError("grid function values must be finite")
    return GStep(x=x_new, x_prime=w_n, beta=beta, u=u, ubar=eq.u_mean(beta))


@dataclass(frozen=True)
class VerificationRecord:
    """The defects of a solution table on its own nodes (see `verify`)."""

    boundary_defect: float
    operator_defect: float
    integral_defect: float
    slope_defect: float
    residual_defect: float
    ok: bool


@dataclass(frozen=True, eq=False)
class SolveReport:
    """What `solve` found; `verify` checks its x, x' and u columns."""

    status: str
    x: GridFunction
    x_prime: GridFunction
    u: GridFunction
    beta: float
    scalars: DerivedScalars
    iterations: int
    trace: tuple[float, ...]
    omega_halvings: int
    secant_rejections: int
    residual: float
    boundary_defect: float
    truncation_count: int
    psi_clip_count: int
    max_envelope_excess: float


def _w1p_distance(mesh: Mesh, dx: np.ndarray, dxp: np.ndarray, p: float) -> float:
    """(||dx||_p^p + ||dx'||_p^p)^(1/p), each p-th power one sum of
    cell_integrals; lp_norm's sup for p = inf."""
    if math.isinf(p):
        return max(lp_norm(mesh, dx, p), lp_norm(mesh, dxp, p))
    total = 0.0
    for v in (dx, dxp):
        with np.errstate(over="ignore"):
            powered = np.abs(v) ** p
        # np.max passes a NaN on
        if not math.isfinite(powered.max()):
            raise InvalidInputError("grid function values must be finite")
        total += float(cell_integrals(mesh, powered).sum())
    return total ** (1.0 / p)


def _envelope_excess(
    x_vals: np.ndarray,
    xp_vals: np.ndarray,
    box: tuple[float, float],
    envs: Envelopes,
) -> tuple[float, float]:
    """How far x leaves the box and x' its envelopes, 0 when inside.

    Singular nodes need no mask: their envelopes and every slope there
    hold the placeholder 0.
    """
    lo, hi = box
    # fl(lo - x) falls as x grows, so this is the max of lo - x_vals
    ex_x = float(max(lo - x_vals.min(), x_vals.max() - hi, 0.0))
    ex_y = float(max(np.max(envs.eta1 - xp_vals), np.max(xp_vals - envs.eta2), 0.0))
    return ex_x, ex_y


def solve(
    problem: BvpProblem,
    config: IterationConfig | None = None,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> SolveReport:
    """Iterate the map g to a fixed point; `verify` checks the reported
    columns a-posteriori.

    The reported solution is the raw g output at the final sweep, so the
    envelope bounds hold for it by construction; secant mixing and any
    stagnation damping only shape the intermediate iterates.

    `initial` optionally supplies (x, x') node arrays as the starting
    iterate; they are projected into the box and envelopes, and x' at a
    singular node (NaN in a table) reads as 0, the placeholder that the
    reported x' holds there too.  Default is the affine-in-K profile,
    which is the exact solution when f = 0.

    Everything below runs on node arrays of problem.mesh.  The report
    wraps its x, x' and u columns once, as GridFunctions, because they
    leave the one mesh: the half-line schedule compares solutions on
    meshes of different intervals.
    """
    cfg = config if config is not None else IterationConfig()
    # quadrature-consistent scalars: the g outputs then satisfy the
    # envelopes to rounding accuracy, not merely to quadrature accuracy
    scalars = derive_scalars(problem)
    require_box(problem)
    envs = envelopes(problem)
    # the iterates and the secant history die with _iterate, before the
    # final truncation allocates
    last, converged, trace, max_excess, halvings, rejections = _iterate(
        problem, envs, cfg, initial
    )

    final_stats: dict = {}
    F = truncated_rhs(problem, envs, last.x, last.x_prime, stats=final_stats)
    residual = difference_residual(problem.mesh, last.u, F)
    boundary_defect = abs(float(last.x[-1]) - problem.nu2)
    ex_x, ex_y = _envelope_excess(last.x, last.x_prime, problem.box, envs)

    status = "max-iters"
    if converged:
        hypothesis_ok = (
            final_stats.get("psi_clips", 0) == 0
            and final_stats.get("truncated_nodes", 0) == 0
            and max(ex_x, ex_y) <= 1e-6
        )
        status = "converged" if hypothesis_ok else "hypothesis-violation"

    x, x_prime, u = (GridFunction(problem.mesh, v) for v in (last.x, last.x_prime, last.u))
    return SolveReport(
        status=status,
        x=x,
        x_prime=x_prime,
        u=u,
        beta=last.beta,
        scalars=scalars,
        iterations=len(trace),
        trace=tuple(trace),
        omega_halvings=halvings,
        secant_rejections=rejections,
        residual=residual,
        boundary_defect=boundary_defect,
        truncation_count=final_stats.get("truncated_nodes", 0),
        psi_clip_count=final_stats.get("psi_clips", 0),
        max_envelope_excess=max_excess,
    )


def _secant_coefficients(d_res: np.ndarray, res: np.ndarray) -> np.ndarray | None:
    """Min-norm least-squares gamma of d_res^T gamma ~ res, or None if the
    solve fails.

    d_res holds m residual differences as rows.  gamma solves the m x m
    normal equations (d_res d_res^T) gamma = d_res res; lstsq on that small
    Gram matrix keeps the min-norm solution of a rank-deficient history.
    Its cutoff drops the directions of d_res below about sqrt(3 eps) of
    the largest, which the Gram matrix cannot resolve.

    The Gram entries and d_res res are pairwise sums (ndarray.sum) of
    products formed in one scratch vector, not matmuls: numpy hands an
    m-row matmul to its threaded BLAS, whose pool sleeps between solves,
    and waking it cost 4-16 ms in about half the solves on a 2-vCPU Xeon,
    against ~0.15 ms for these sums.  Pairwise sums also round closer than
    a dot kernel, which the squared conditioning of the normal equations
    rewards.
    """
    m = d_res.shape[0]
    gram = np.empty((m, m))
    rhs = np.empty(m)
    prod = np.empty_like(res)
    for i in range(m):
        for k in range(i, m):
            gram[i, k] = gram[k, i] = np.multiply(d_res[i], d_res[k], out=prod).sum()
        rhs[i] = np.multiply(d_res[i], res, out=prod).sum()
    try:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def _iterate(
    problem: BvpProblem,
    envs: Envelopes,
    cfg: IterationConfig,
    initial: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[GStep, bool, list[float], float, int, int]:
    """The Picard loop with secant mixing, undamped unless cfg.omega < 1.

    Each step mixes h = z + omega (g(z) - z), which is g(z) itself at the
    default omega = 1, with the last SECANT_WINDOW of them (a type-II
    Anderson step).  The history is a ring of consecutive differences dR of
    the residual r = h - z and dH of h; gamma solves the normal equations
    (dR dR^T) gamma = dR r, and the step goes to h - gamma . dH.  These
    differences span the space of the differences against the current
    iterate, so in exact arithmetic this is the least-squares secant step
    on those.  A step whose gamma fails, is non-finite or has an entry
    above 1e4 (gamma weighs the consecutive differences) is skipped, and h
    is taken as it is.  The one safeguard is the stagnation counter: after
    cfg.stagnation steps without a new smallest step, omega halves (down
    to MIN_OMEGA) and the secant history restarts.

    The loop keeps a fixed working set of 2n-vectors: the iterate, r and
    its previous value, the previous h, and the two rings of SECANT_WINDOW
    rows, and the inversions' record of 3 node arrays (one and a half
    vectors) when the branch has no closed-form inverse.  A caller's
    `initial` arrays are only read.

    Returns the g output to report (the last one if the loop converged,
    else the one with the smallest step), whether it converged, the step
    trace, the largest envelope excess of any iterate, and how often
    omega halved and a secant step was skipped.
    """
    disc = problem.disc
    mesh = disc.mesh
    box = problem.box
    s_star = problem.scalars.s_star
    n_nodes = mesh.nodes.size

    # the iterate z = (x, x') in one buffer; the g outputs are fresh arrays,
    # so nothing reported aliases it
    z = np.empty(2 * n_nodes)
    x_vals, xp_vals = z[:n_nodes], z[n_nodes:]
    if initial is None:
        x_vals[:] = problem.nu1 + s_star * disc.recip_cumulative
        xp_vals[:] = s_star * disc.recip_n
    else:
        x0 = np.asarray(initial[0], dtype=float)
        xp0 = np.asarray(initial[1], dtype=float)
        if x0.shape != mesh.nodes.shape or xp0.shape != mesh.nodes.shape:
            raise MeshMismatchError("initial guess must live on the problem mesh")
        np.clip(x0, box[0], box[1], out=x_vals)
        # a table's NaN at a singular node reads as the placeholder 0
        xp_vals[:] = np.where(mesh.singular_mask(), 0.0, np.clip(xp0, envs.eta1, envs.eta2))
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("grid function values must be finite")

    omega = cfg.omega
    trace: list[float] = []
    # the rest of the working set, allocated after the first sweep
    res = None
    # mixed points stored since the history last (re)started
    stored = 0
    max_excess = max(_envelope_excess(x_vals, xp_vals, box, envs))
    best_step = math.inf
    best_output: GStep | None = None
    since_improvement = 0
    halvings = rejections = 0
    converged = False
    last: GStep | None = None
    # one record for every inversion of the solve: each starts from the
    # brackets of the one before
    inverse_start = InverseStart()

    for _ in range(cfg.max_outer):
        last = g_map(
            problem, x_vals, xp_vals, envs=envs, tol_beta=cfg.tol_beta,
            ubar=None if last is None else last.ubar,
            inverse_start=inverse_start,
        )
        if res is None:
            # res holds g - z, then r = h - z, and swaps roles with res_prev
            # each sweep; h lands in z, and in mixed_prev for the next
            # sweep.  Zeros, so that the differences taken while no history
            # is stored are finite.  Allocated once the first sweep's
            # temporaries are freed, these take their room; allocated
            # before, they left every later sweep's temporaries at the heap
            # top, where free() trims them and the next sweep faults them
            # back in.
            res, res_prev, mixed_prev = (np.zeros_like(z) for _ in range(3))
            d_res, d_mixed = np.empty((2, SECANT_WINDOW, z.size))
        np.subtract(last.x, x_vals, out=res[:n_nodes])
        np.subtract(last.x_prime, xp_vals, out=res[n_nodes:])
        step = _w1p_distance(mesh, res[:n_nodes], res[n_nodes:], problem.p)
        trace.append(step)
        max_excess = max(max_excess, *_envelope_excess(last.x, last.x_prime, box, envs))
        if step < best_step:
            best_step = step
            best_output = last
            since_improvement = 0
        else:
            since_improvement += 1
        if step <= cfg.tol_fp:
            converged = True
            break

        # h = z + omega (g - z) and r = h - z; h is staged in the ring row
        # that this sweep's differences go to, before it moves into z.  The
        # rows fill in order, so a solve that needs k differences writes k
        # rows.
        slot = max(stored - 1, 0) % SECANT_WINDOW
        res *= omega
        np.add(z, res, out=d_mixed[slot])
        np.subtract(d_mixed[slot], z, out=res)
        np.copyto(z, d_mixed[slot])
        # nothing reads this row's differences while no history is stored
        np.subtract(res, res_prev, out=d_res[slot])
        np.subtract(z, mixed_prev, out=d_mixed[slot])
        np.copyto(mixed_prev, z)
        if stored:
            m = min(stored, SECANT_WINDOW)
            gamma = _secant_coefficients(d_res[:m], res)
            if (
                gamma is not None
                and np.all(np.isfinite(gamma))
                and float(np.max(np.abs(gamma))) <= 1e4
            ):
                # res_prev is free once its difference is taken; einsum
                # keeps the step off the threaded BLAS, as in
                # _secant_coefficients
                z -= np.einsum("i,ij->j", gamma, d_mixed[:m], out=res_prev)
            else:
                rejections += 1
        stored += 1
        res, res_prev = res_prev, res

        # project mixed iterates back into the admissible boxes, where
        # their envelope excess is 0
        np.clip(x_vals, box[0], box[1], out=x_vals)
        np.clip(xp_vals, envs.eta1, envs.eta2, out=xp_vals)

        if since_improvement >= cfg.stagnation and omega > MIN_OMEGA:
            omega = max(0.5 * omega, MIN_OMEGA)
            halvings += 1
            since_improvement = 0
            stored = 0

    if not converged and best_output is not None:
        last = best_output
    assert last is not None
    return last, converged, trace, max_excess, halvings, rejections


def verify(
    problem: BvpProblem, x: np.ndarray, dx: np.ndarray, u: np.ndarray
) -> VerificationRecord:
    """Check a solution table's columns against the defining identities.

    x, dx and u are the table's columns on problem.mesh; no solver state is
    read.  The defects are the boundary values, u against Phi(k dx), u
    against u(0) + the running integral of f, x against nu1 + the running
    trapezoid integral of dx, and the forward-difference residual of u.  f
    is the raw right-hand side at the table's x and dx, evaluated at the
    nodes only and integrated by the mesh's own rule: a cell that touches a
    singular node takes f at its finite end, as the solver does.  dx is
    ignored at singular nodes, so a solver's placeholder 0 there and a
    table's NaN read the same.  A non-finite value anywhere else makes some defect
    non-finite, which fails `ok`.
    """
    mesh = problem.mesh
    nodes = mesh.nodes
    scale_x = 1.0 + max(abs(problem.nu1), abs(problem.nu2))
    regular = ~mesh.singular_mask()
    kv = np.broadcast_to(np.asarray(problem.weight(nodes), dtype=float), nodes.shape)
    dx_filled = np.where(regular, dx, 0.0)

    with np.errstate(all="ignore"):
        # np.max, unlike max, passes a NaN on
        boundary = float(np.max(np.abs((x[0] - problem.nu1, x[-1] - problem.nu2))))
        phi_kdx = np.asarray(problem.phi.fn(kv[regular] * dx[regular]), dtype=float)
        scale_u = 1.0 + float(np.max(np.abs(u)))
        consistency = float(np.max(np.abs(u[regular] - phi_kdx))) if regular.any() else 0.0

        f_vals = np.asarray(problem.rhs(nodes, x, dx_filled), dtype=float)
        f_vals = np.where(np.isfinite(f_vals) & regular, f_vals, 0.0)
        cum = cumulative_integral(mesh, f_vals)
        integral = float(np.max(np.abs(u - (u[0] + cum))))
        residual = difference_residual(mesh, u, f_vals)

        # x must be the integral of dx, cell by cell, skipping cells that
        # touch a singular node
        both = regular[:-1] & regular[1:]
        increments = np.where(both, cell_integrals(mesh, dx_filled), np.diff(x))
        recon = problem.nu1 + np.concatenate(([0.0], np.cumsum(increments)))
        slope_integral = float(np.max(np.abs(recon - x)))

    return VerificationRecord(
        boundary_defect=boundary,
        operator_defect=consistency,
        integral_defect=integral,
        slope_defect=slope_integral,
        residual_defect=residual,
        ok=bool(
            boundary <= 1e-8 * scale_x
            and consistency <= 1e-7 * scale_u
            and integral <= 1e-6 * scale_u
            and slope_integral <= 1e-6 * scale_x
        ),
    )
