"""Picard iteration for (Phi(k x'))' = f(t, x, x') with Dirichlet data.

One sweep of the scheme evaluates the truncated right-hand side F at the
current iterate, accumulates its running integral, solves the scalar
equation

    integral over [0,T] of (1/k(t)) Phi^{-1}(beta + F_cum(t)) dt = nu2 - nu1

for the integration constant beta, and integrates the new derivative
Phi^{-1}(beta + F_cum)/k back up from nu1.  The left side is strictly
monotone in beta.  Its solve starts at the previous sweep's beta, or on
the first sweep at the first-order estimate Phi(s*_d) - Fbar (Fbar the
1/k-weighted mean of F_cum; exact when Phi is affine), and walks by a
first-order step, then doubled secant steps, until two evaluated points
change sign.  That local certified bracket is closed by Illinois regula
falsi with a bisection safeguard (operators.bracketed_root).  The wide
bracket that the image margin guarantees is evaluated only when the walk
reaches one of its ends or stalls.  Every sweep output lands inside the
derived slope envelopes and the solution box regardless of its input,
which is what makes the truncation harmless and the iteration stable.
A decreasing branch is solved as it is: the scalar map then decreases in
beta, and the beta solve and the branch inverse read the orientation.

The outer loop is undamped by default: a window-3 secant (Anderson) step
mixes the raw sweep outputs.  Existence comes from a fixed point of the
integral map, not from a contraction, so damping is a numerical choice
only; it comes in when the loop stagnates, which halves omega.

The truncation box for x is [min(nu1, N1), max(nu1, N2)]: the running
integral of a derivative pinched between A*/k and B*/k can approach nu1
at one end and nu1 + k1 A* (or + k1 B*) at the other, so both must lie
inside the clamp for the clamp to vanish at a fixed point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
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
    SENTINEL,
    GridFunction,
    Mesh,
    cumulative_integral,
    difference_residual,
    lp_norm,
    midvalues,
)
from .operators import MonotoneBranch, bracketed_root, partial_inverse_array
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
        if not self.tol_fp > 0:
            raise InvalidInputError("tol_fp must be positive")
        if not self.tol_beta > 0:
            raise InvalidInputError("tol_beta must be positive")
        if self.stagnation < 1:
            raise InvalidInputError("stagnation must be at least 1")


class SolverKernel:
    """The problem a beta equation is posed on; its 1/k tables and k1
    come from problem.disc, so building one samples nothing."""

    def __init__(self, problem: BvpProblem):
        self.problem = problem
        self.disc = problem.disc


@dataclass(frozen=True, eq=False)
class BetaEquation:
    """The strictly monotone scalar map xi -> integral (1/k) Phi^{-1}(xi + F)."""

    kernel: SolverKernel
    branch: MonotoneBranch
    phi: Callable
    F_n: np.ndarray
    target: float
    # the last (xi, cumulative(xi)): the solve ends on the point g_map
    # integrates, so that integration is free
    _last: list = field(default_factory=list, repr=False)

    @staticmethod
    def build(kernel: SolverKernel, Fcum: np.ndarray) -> "BetaEquation":
        """The map for the running integral Fcum of F at the nodes of the
        kernel's mesh."""
        F_n = np.asarray(Fcum, dtype=float)
        if F_n.shape != kernel.disc.mesh.nodes.shape:
            raise InvalidInputError("cumulative grid lives on a different mesh")
        if not np.all(np.isfinite(F_n)):
            raise InvalidInputError("grid function values must be finite")
        problem = kernel.problem
        target = problem.nu2 - problem.nu1
        return BetaEquation(kernel, problem.branch, problem.phi, F_n, target)

    def _slopes(self, xi: float) -> tuple[np.ndarray, np.ndarray]:
        # Phi^{-1}(xi + F) at the nodes only; the midpoint-rule cells take
        # its finite endpoint's value, times 1/k sampled at their midpoints
        inv = partial_inverse_array(self.phi, self.branch, xi + self.F_n)
        disc = self.kernel.disc
        return disc.recip_n * inv, disc.recip_mid * midvalues(disc.mesh, inv)

    def cumulative(self, xi: float) -> tuple[np.ndarray, np.ndarray]:
        """Running integral of (1/k)Phi^{-1}(xi + F) and its nodal integrand."""
        if self._last and self._last[0] == xi:
            return self._last[1]
        w_n, w_mid = self._slopes(xi)
        out = (cumulative_integral(self.kernel.disc.mesh, w_n, w_mid), w_n)
        self._last[:] = (xi, out)
        return out

    def value(self, xi: float) -> float:
        return float(self.cumulative(xi)[0][-1])

    def solve(self, tol_beta: float, guess: float | None = None) -> float:
        """Root of value(xi) = target inside a certified bracket.

        The search starts at `guess`, typically the previous sweep's beta,
        if it lies strictly inside the theoretical bracket [lo, hi], else
        at Phi(s*_d) - Fbar with Fbar the 1/k-weighted mean of F (the root
        when Phi is affine).  It walks from there by a first-order step,
        then by doubled secant steps, until two evaluated points change
        sign, and closes that local bracket.  Only a walk that reaches an
        end of [lo, hi] or stalls evaluates, and if need be expands, the
        theoretical bracket itself.
        """
        disc = self.kernel.disc
        br = self.branch
        s_star_d = self.target / disc.k1
        if not br.contains(s_star_d):
            raise BranchError(
                f"discrete reference slope {s_star_d!r} escapes the branch"
            )
        with np.errstate(all="ignore"):
            phi_sd = float(np.asarray(self.phi(s_star_d)))
        m_F, M_F = float(self.F_n.min()), float(self.F_n.max())
        pad = 1e-12 * (1.0 + abs(phi_sd) + abs(m_F) + abs(M_F))
        lo = phi_sd - M_F - pad
        hi = phi_sd - m_F + pad
        # keep xi + F strictly inside the branch image at every sample
        b1, b2 = br.image_lo, br.image_hi
        if math.isfinite(b1):
            lo = max(lo, b1 - m_F + 1e-14 * (1.0 + abs(b1)))
        if math.isfinite(b2):
            hi = min(hi, b2 - M_F - 1e-14 * (1.0 + abs(b2)))
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
            r = sgn * (self.value(xi) - self.target)
            tried.append((abs(r), xi))
            return r

        def close(a: float, b: float, r_a: float, r_b: float) -> float:
            # Illinois regula falsi with a bisection safeguard inside the
            # certified bracket; it stops at the first point with
            # |r| <= tol_beta, or when the bracket closes
            bracketed_root(
                lambda x, idx: residual(float(x[0])), a, b, r_a, r_b,
                ftol=tol_beta, max_iter=BETA_MAX_ITER,
            )
            return min(tried)[1]

        if guess is not None and lo < guess < hi:
            x = guess
        else:
            F_ends = midvalues(disc.mesh, self.F_n)
            F_int = cumulative_integral(
                disc.mesh, disc.recip_n * self.F_n, disc.recip_mid * F_ends
            )
            F_mean = float(F_int[-1]) / disc.k1
            x = min(max(phi_sd - F_mean, lo), hi)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        r = residual(x)
        if abs(r) <= tol_beta:
            return x
        # first step: d value / d xi is about k1 / |Phi'(s*_d)|, with Phi'
        # from a central difference that stays inside the branch
        h = min(
            1e-6 * (1.0 + abs(s_star_d)),
            0.5 * (s_star_d - br.lo),
            0.5 * (br.hi - s_star_d),
        )
        with np.errstate(all="ignore"):
            phi_pm = np.asarray(self.phi(np.array([s_star_d - h, s_star_d + h])))
            slope = float(disc.k1 * 2.0 * h / abs(phi_pm[1] - phi_pm[0]))
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
            # doubled, so that the next point tends to cross the root
            x, r, step = x_new, r_new, -2.0 * r_new / slope

        # the walk reached an end of [lo, hi] or stalled: certify the
        # theoretical bracket, expanding it if it does not straddle
        r_lo = residual(lo)
        r_hi = residual(hi)
        for _ in range(60):
            if r_lo <= 0.0 <= r_hi:
                break
            width = hi - lo
            if r_lo > 0.0:
                lo2 = lo - width
                if math.isfinite(b1):
                    lo2 = max(lo2, b1 - m_F + 1e-14 * (1.0 + abs(b1)))
                if lo2 >= lo:
                    break
                lo = lo2
                r_lo = residual(lo)
            else:
                hi2 = hi + width
                if math.isfinite(b2):
                    hi2 = min(hi2, b2 - M_F - 1e-14 * (1.0 + abs(b2)))
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


def beta_solve(
    problem: BvpProblem,
    Fx_cumulative: np.ndarray,
    L: float,
    tol_beta: float = 1e-12,
) -> float:
    """Integration constant beta whose scalar map, the integral of
    (1/k) Phi^{-1}(beta + F_cum) over [0, T], is within tol_beta of nu2 - nu1.

    The result always lies in [Phi(s*) - L, Phi(s*) + L] around the
    discrete reference slope; a violation means the quadrature and the
    stated psi mass disagree, and is reported rather than patched.
    """
    eq = BetaEquation.build(SolverKernel(problem), Fx_cumulative)
    beta = eq.solve(tol_beta)
    s_star_d = eq.target / problem.disc.k1
    with np.errstate(all="ignore"):
        phi_sd = float(np.asarray(problem.phi(s_star_d)))
    slack = 1e-9 * (1.0 + abs(phi_sd) + abs(L))
    if not (phi_sd - L - slack <= beta <= phi_sd + L + slack):
        raise BetaBracketError(
            f"beta {beta!r} escaped [Phi(s*) - L, Phi(s*) + L] = "
            f"[{phi_sd - L!r}, {phi_sd + L!r}]"
        )
    return beta


def _box(problem: BvpProblem, envs: Envelopes) -> tuple[float, float]:
    return min(problem.nu1, envs.N1), max(problem.nu1, envs.N2)


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
    box_lo, box_hi = _box(problem, envs)
    tx = np.clip(x, box_lo, box_hi)
    txp = np.clip(x_prime, envs.eta1, envs.eta2)
    with np.errstate(all="ignore"):
        F = np.asarray(problem.rhs(nodes, tx, txp), dtype=float)
    if F.shape == ():
        F = np.full(nodes.shape, float(F))
    F = np.where(singular, 0.0, F)
    bad = ~np.isfinite(F)
    if np.any(bad):
        j = int(np.argmax(bad))
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
    phi_defect: float


def g_map(
    problem: BvpProblem,
    scalars: DerivedScalars,
    x: np.ndarray,
    x_prime: np.ndarray,
    envs: Envelopes | None = None,
    tol_beta: float = 1e-12,
    beta_guess: float | None = None,
) -> GStep:
    """g_x = nu1 + cumulative (1/k) Phi^{-1}(beta + F_cum) at one iterate.

    `beta_guess` is the first trial point of the beta solve (see
    BetaEquation.solve); the previous sweep's beta is a good one.  Every
    output must be finite.
    """
    env = envs if envs is not None else envelopes(problem, scalars)
    F = truncated_rhs(problem, env, x, x_prime)
    Fcum = cumulative_integral(problem.mesh, F)
    eq = BetaEquation.build(SolverKernel(problem), Fcum)
    beta = eq.solve(tol_beta, guess=beta_guess)
    cum, w_n = eq.cumulative(beta)
    x_new = problem.nu1 + cum
    xp_new = np.where(problem.mesh.singular_mask(), SENTINEL, w_n)
    u = beta + Fcum
    if not all(np.all(np.isfinite(v)) for v in (x_new, xp_new, u)):
        raise InvalidInputError("grid function values must be finite")
    return GStep(
        x=x_new,
        x_prime=xp_new,
        beta=beta,
        u=u,
        phi_defect=abs(float(cum[-1]) - eq.target),
    )


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
    x_in_box: bool
    xp_in_envelopes: bool
    truncation_count: int
    psi_clip_count: int
    max_envelope_excess: float
    verification: VerificationRecord | None = None


def _w1p_distance(mesh: Mesh, dx: np.ndarray, dxp: np.ndarray, p: float) -> float:
    nx = lp_norm(mesh, dx, p)
    nxp = lp_norm(mesh, dxp, p)
    if math.isinf(p):
        return max(nx, nxp)
    return float((nx**p + nxp**p) ** (1.0 / p))


def _envelope_excess(
    x_vals: np.ndarray,
    xp_vals: np.ndarray,
    box: tuple[float, float],
    envs: Envelopes,
) -> tuple[float, float]:
    """How far x leaves the box and x' its envelopes, 0 when inside.

    Singular nodes need no mask: their envelopes are exactly +-SENTINEL,
    and every slope there is SENTINEL or clipped into that range.
    """
    lo, hi = box
    ex_x = float(max(np.max(lo - x_vals), np.max(x_vals - hi), 0.0))
    ex_y = float(max(np.max(envs.eta1 - xp_vals), np.max(xp_vals - envs.eta2), 0.0))
    return ex_x, ex_y


def solve(
    problem: BvpProblem,
    config: IterationConfig | None = None,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> SolveReport:
    """Iterate the map g to a fixed point and check it a-posteriori.

    The reported solution is the raw g output at the final sweep, so the
    envelope bounds hold for it by construction; secant mixing and any
    stagnation damping only shape the intermediate iterates.

    `initial` optionally supplies (x, x') node arrays as the starting
    iterate; they are projected into the box and envelopes.  Default is
    the affine-in-K profile, which is the exact solution when f = 0.

    Everything below runs on node arrays of problem.mesh.  The report
    wraps its x, x' and u columns once, as GridFunctions, because they
    leave the one mesh: the half-line schedule compares solutions on
    meshes of different intervals.
    """
    cfg = config if config is not None else IterationConfig()
    # quadrature-consistent scalars: the g outputs then satisfy the
    # envelopes to rounding accuracy, not merely to quadrature accuracy
    scalars = derive_scalars(problem)
    require_box(problem, scalars)
    envs = envelopes(problem, scalars)
    box = _box(problem, envs)
    # the iterates and the secant history die with _iterate, before the
    # final truncation and the verification allocate
    last, converged, trace, max_excess, halvings, rejections = _iterate(
        problem, scalars, envs, cfg, initial
    )

    final_stats: dict = {}
    F = truncated_rhs(problem, envs, last.x, last.x_prime, stats=final_stats)
    residual = difference_residual(problem.mesh, last.u, F)
    boundary_defect = abs(float(last.x[-1]) - problem.nu2)
    ex_x, ex_y = _envelope_excess(last.x, last.x_prime, box, envs)

    status = "max-iters"
    if converged:
        hypothesis_ok = (
            final_stats.get("psi_clips", 0) == 0
            and final_stats.get("truncated_nodes", 0) == 0
            and max(ex_x, ex_y) <= 1e-6
        )
        status = "converged" if hypothesis_ok else "hypothesis-violation"

    report = SolveReport(
        status=status,
        x=GridFunction(problem.mesh, last.x),
        x_prime=GridFunction(problem.mesh, last.x_prime),
        u=GridFunction(problem.mesh, last.u),
        beta=last.beta,
        scalars=scalars,
        iterations=len(trace),
        trace=tuple(trace),
        omega_halvings=halvings,
        secant_rejections=rejections,
        residual=residual,
        boundary_defect=boundary_defect,
        x_in_box=ex_x <= 1e-8,
        xp_in_envelopes=ex_y <= 1e-8,
        truncation_count=final_stats.get("truncated_nodes", 0),
        psi_clip_count=final_stats.get("psi_clips", 0),
        max_envelope_excess=max_excess,
    )
    # verify reads only the reported columns: let the g output, the
    # envelopes and the final F go
    del last, envs, F
    verification = verify(
        problem, report.x.values, report.x_prime.values, report.u.values
    )
    return replace(report, verification=verification)


def _iterate(
    problem: BvpProblem,
    scalars: DerivedScalars,
    envs: Envelopes,
    cfg: IterationConfig,
    initial: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[GStep, bool, list[float], float, int, int]:
    """The Picard loop with secant mixing, undamped unless cfg.omega < 1.

    Each step mixes h = z + omega (g(z) - z), which is g(z) itself at the
    default omega = 1, with the last SECANT_WINDOW of them (a type-II
    Anderson step).  A secant step whose least-squares coefficients fail,
    are non-finite or exceed 1e4 is skipped, and h is taken as it is.  The one safeguard
    is the stagnation counter: after cfg.stagnation steps without a new
    smallest step, omega halves (down to MIN_OMEGA) and the secant
    history restarts.

    Returns the g output to report (the last one if the loop converged,
    else the one with the smallest step), whether it converged, the step
    trace, the largest envelope excess of any iterate, and how often
    omega halved and a secant step was skipped.
    """
    disc = problem.disc
    mesh = disc.mesh
    singular = mesh.singular_mask()
    box = _box(problem, envs)
    n_nodes = mesh.nodes.size

    if initial is None:
        x_vals = problem.nu1 + scalars.s_star * disc.recip_cumulative
        xp_vals = np.where(singular, SENTINEL, scalars.s_star * disc.recip_n)
    else:
        x0 = np.asarray(initial[0], dtype=float)
        xp0 = np.asarray(initial[1], dtype=float)
        if x0.shape != mesh.nodes.shape or xp0.shape != mesh.nodes.shape:
            raise MeshMismatchError("initial guess must live on the problem mesh")
        x_vals = np.clip(x0, box[0], box[1])
        xp_vals = np.where(singular, SENTINEL, np.clip(xp0, envs.eta1, envs.eta2))
        if not (np.all(np.isfinite(x_vals)) and np.all(np.isfinite(xp_vals))):
            raise InvalidInputError("grid function values must be finite")

    omega = cfg.omega
    trace: list[float] = []
    # a window-m secant step reads the current iterate and m past ones
    hist_z: list[np.ndarray] = []
    hist_h: list[np.ndarray] = []
    # dR, then dH, fill the first 2n * m floats of this buffer as one
    # C-ordered (2n, m) array: the layout np.stack(axis=1) gives, so lstsq
    # and @ round as they would on a fresh stack
    secant_buf = None
    max_excess = max(_envelope_excess(x_vals, xp_vals, box, envs))
    best_step = math.inf
    best_output: GStep | None = None
    since_improvement = 0
    halvings = rejections = 0
    converged = False
    last: GStep | None = None

    for _ in range(cfg.max_outer):
        last = g_map(
            problem, scalars, x_vals, xp_vals, envs=envs, tol_beta=cfg.tol_beta,
            beta_guess=None if last is None else last.beta,
        )
        g_vec = np.concatenate((last.x, last.x_prime))
        z_vec = np.concatenate((x_vals, xp_vals))
        step = _w1p_distance(
            mesh, g_vec[:n_nodes] - x_vals, g_vec[n_nodes:] - xp_vals, problem.p
        )
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

        h_vec = z_vec + omega * (g_vec - z_vec)
        z_next = h_vec
        if hist_z:
            m = min(SECANT_WINDOW, len(hist_z))
            if secant_buf is None:
                secant_buf = np.empty(2 * n_nodes * SECANT_WINDOW)
            diffs = secant_buf[: 2 * n_nodes * m].reshape(2 * n_nodes, m)
            r_vec = h_vec - z_vec
            for j in range(1, m + 1):
                np.subtract(r_vec, hist_h[-j] - hist_z[-j], out=diffs[:, j - 1])
            try:
                gamma, *_ = np.linalg.lstsq(diffs, r_vec, rcond=None)
            except np.linalg.LinAlgError:
                gamma = None
            if (
                gamma is not None
                and np.all(np.isfinite(gamma))
                and float(np.max(np.abs(gamma))) <= 1e4
            ):
                for j in range(1, m + 1):
                    np.subtract(h_vec, hist_h[-j], out=diffs[:, j - 1])
                z_next = h_vec - diffs @ gamma
            else:
                rejections += 1
        hist_z.append(z_vec)
        hist_h.append(h_vec)
        if len(hist_z) > SECANT_WINDOW:
            hist_z.pop(0)
            hist_h.pop(0)

        # project mixed iterates back into the admissible boxes, where
        # their envelope excess is 0
        x_vals = np.clip(z_next[:n_nodes], box[0], box[1])
        xp_vals = np.clip(z_next[n_nodes:], envs.eta1, envs.eta2)

        if since_improvement >= cfg.stagnation and omega > MIN_OMEGA:
            omega = max(0.5 * omega, MIN_OMEGA)
            halvings += 1
            since_improvement = 0
            hist_z.clear()
            hist_h.clear()

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
    ignored at singular nodes, so a solver's SENTINEL there and a table's
    NaN read the same.  A non-finite value anywhere else makes some defect
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

        # x must be the integral of dx: trapezoid per cell, skipping cells
        # that touch a singular node
        both = regular[:-1] & regular[1:]
        increments = np.where(
            both, 0.5 * (dx_filled[:-1] + dx_filled[1:]) * mesh.widths, np.diff(x)
        )
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
