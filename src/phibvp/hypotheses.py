"""Machine checks for the sufficient existence conditions.

Each checker evaluates one set of conditions and returns a report built
from per-condition items: a violated inequality is a verdict, never an
exception.  Universal quantifications over (t, x, y) are sampled on a
lattice and can earn at most "sampled-pass"; the max observed ratio
|f| / psi is always reported so near-misses are visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DegenerateExponentError,
    InvalidInputError,
    WrongCorollaryError,
)
from .halfline import HalflineProblem, HalflineScalars, k_mass_upto
from .operators import MonotoneBranch, partial_inverse
from .problem import (
    BvpProblem,
    DerivedScalars,
    Rhs,
    derive_scalars,
    image_margins,
)

PASS = "pass"
FAIL = "fail"
SAMPLED = "sampled-pass"
INCONCLUSIVE = "inconclusive"

DEFAULT_LATTICE = (50, 20, 20)
# geometric probe times for the tail limit of psi(t) k(t)
TAIL_PROBES = (1.0e2, 1.0e3, 1.0e4, 1.0e5)
TAIL_SPREAD_TOL = 1e-3
# witness grid for the odd-operator half-line shortcut
T_WITNESS_GRID = tuple(float(2**j) for j in range(11))
# slack for sampled inequalities: strict failures only
RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class CheckItem:
    """One hypothesis with its verdict and the numbers behind it."""

    name: str
    verdict: str
    quantities: tuple[tuple[str, float], ...] = ()
    detail: str = ""

    def quantity(self, key: str) -> float:
        for k, v in self.quantities:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str  # thm1 | cor1 | cor2 | thm_halfline | thm_halfline_odd
    items: tuple[CheckItem, ...]
    overall: str  # pass | fail | inconclusive

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _q(**kw) -> tuple[tuple[str, float], ...]:
    return tuple((k, float(v)) for k, v in kw.items())


def _overall(items) -> str:
    verdicts = [it.verdict for it in items]
    if any(v == FAIL for v in verdicts):
        return FAIL
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    return PASS


def _scan_domination(
    rhs: Rhs,
    t_vals: np.ndarray,
    k_vals: np.ndarray,
    x_lo: float,
    x_hi: float,
    slope_lo: float,
    slope_hi: float,
    nx: int,
    ny: int,
) -> tuple[float, int]:
    """Max of |f(t, x, y)| / psi(t) over the admissible lattice.

    y ranges over [slope_lo, slope_hi] / k(t) per time node; nodes with
    non-positive or non-finite k are skipped (singular weight points).
    f is evaluated once, broadcast over (time node, x, y).  A node whose
    max |f| is not finite, whose psi is negative, or whose psi is zero
    under a nonzero f makes the ratio infinite.
    Returns (worst ratio, number of time nodes actually sampled).
    """
    t_vals = np.asarray(t_vals, dtype=float)
    k_vals = np.asarray(k_vals, dtype=float)
    usable = np.isfinite(k_vals) & (k_vals > 0.0)
    used = int(np.count_nonzero(usable))
    if used == 0:
        return 0.0, 0
    t = t_vals[usable]
    k = k_vals[usable]
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(slope_lo / k, slope_hi / k, ny, axis=-1)
    fv = rhs(t[:, None, None], xs[None, :, None], ys[:, None, :])
    fv = np.broadcast_to(np.asarray(fv, dtype=float), (used, nx, ny))
    fmax = np.max(np.abs(fv), axis=(1, 2))
    pv = np.broadcast_to(rhs.psi_at(t), (used,))
    if np.any(~np.isfinite(fmax) | (pv < 0.0) | ((pv == 0.0) & (fmax > 0.0))):
        return math.inf, used
    with np.errstate(all="ignore"):
        ratio = fmax / pv
    # a NaN psi, or psi == 0 under f == 0, bounds nothing
    return float(np.fmax.reduce(ratio, initial=0.0)), used


def _margin_item(branch, phi_s: float, L: float) -> CheckItem:
    lo_margin, hi_margin = image_margins(branch, phi_s, L)
    ok = lo_margin > 0.0 and hi_margin > 0.0
    return CheckItem(
        "image-margin",
        PASS if ok else FAIL,
        _q(
            phi_s_star=phi_s,
            two_l=2.0 * L,
            margin_lo=lo_margin,
            margin_hi=hi_margin,
        ),
        detail="Phi(s*) +/- 2L must sit strictly inside the branch image",
    )


def _unsampled(detail: str = "") -> CheckItem:
    return CheckItem("psi-domination", INCONCLUSIVE, (), detail)


def _domination_item(
    built, t_vals, box, lattice, detail: str, counts: bool = True, **quantities
) -> CheckItem:
    """The psi-domination verdict of f sampled over box = (x_lo, x_hi,
    slope_lo, slope_hi) at the times t_vals; counts adds the lattice size
    to the max ratio and the caller's quantities."""
    _, nx, ny = lattice
    k_vals = np.asarray(built.weight(t_vals), dtype=float)
    worst, used = _scan_domination(built.rhs, t_vals, k_vals, *box, nx, ny)
    if used == 0:
        return _unsampled("no usable time nodes (weight vanished everywhere sampled)")
    if counts:
        quantities = dict(t_nodes=used, x_nodes=nx, y_nodes=ny, **quantities)
    return CheckItem(
        "psi-domination",
        SAMPLED if worst <= 1.0 + RATIO_SLACK else FAIL,
        _q(max_ratio=worst, **quantities),
        detail=detail,
    )


def _slope_items(
    problem: BvpProblem, sc: DerivedScalars, recip_detail: str
) -> tuple[list[CheckItem], bool]:
    """The recip-norm and slope-in-branch items, then whether s* lies
    inside the branch."""
    kappa_ok = math.isfinite(sc.kp)
    slope_ok = kappa_ok and problem.branch_contains(sc.s_star)
    s_star = sc.s_star if kappa_ok else math.nan
    items = [
        CheckItem(
            "recip-norm",
            PASS if kappa_ok else FAIL,
            _q(k1=sc.k1, kp=sc.kp, p=problem.p),
            detail=recip_detail,
        ),
        _slope_item(problem.branch, slope_ok, "s*", s_star=s_star),
    ]
    return items, slope_ok


def _slope_item(branch, ok: bool, symbol: str, **slope) -> CheckItem:
    """slope-in-branch for the slope named symbol; NaN ends without a branch."""
    lo, hi = (math.nan, math.nan) if branch is None else (branch.lo, branch.hi)
    return CheckItem(
        "slope-in-branch",
        PASS if ok else FAIL,
        _q(**slope, branch_lo=lo, branch_hi=hi),
        f"no monotone branch of Phi contains {symbol}" if branch is None else "",
    )


def symmetric_increasing(branch: MonotoneBranch) -> bool:
    """Whether the branch increases on an interval symmetric about 0."""
    whole_line = math.isinf(branch.lo) and math.isinf(branch.hi)
    return branch.increasing and (
        whole_line or abs(branch.lo + branch.hi) <= 1e-12 * (1.0 + abs(branch.hi))
    )


def _finite_interval_items(
    problem: BvpProblem,
    lattice: tuple[int, int, int],
    surjective_shortcut: bool,
) -> list[CheckItem]:
    sc = derive_scalars(problem)
    items, slope_ok = _slope_items(
        problem, sc, "1/k must have finite L1 and Lp norms on [0, T]"
    )
    if surjective_shortcut:
        margin = CheckItem(
            "image-margin",
            PASS,
            _q(two_l=2.0 * sc.L),
            detail="surjective branch: the image margin holds for every L",
        )
    elif not slope_ok:
        margin = CheckItem(
            "image-margin",
            INCONCLUSIVE,
            _q(two_l=2.0 * sc.L),
            detail="s* lies outside the branch, margin undefined",
        )
    else:
        margin = _margin_item(problem.branch, sc.phi_s_star, sc.L)
        if sc.psi_min < 0.0:
            why = "psi is negative at sampled nodes: L bounds no |f|, margin undefined"
            margin = replace(margin, verdict=INCONCLUSIVE, detail=why)
    items.append(margin)

    if sc.psi_min < 0.0:
        items.append(
            CheckItem(
                "psi-domination",
                FAIL,
                _q(psi_min=sc.psi_min),
                detail="psi is negative at sampled nodes",
            )
        )
    elif not slope_ok or margin.verdict != PASS:
        items.append(_unsampled("admissible slope box undefined, nothing to sample"))
    else:
        box_lo = min(problem.nu1, sc.N1, sc.N2)
        box_hi = max(problem.nu1, sc.N1, sc.N2)
        items.append(
            _domination_item(
                problem,
                np.linspace(0.0, problem.T, lattice[0]),
                (box_lo, box_hi, sc.slope_lo, sc.slope_hi),
                lattice,
                "sampled |f(t,x,y)| <= psi(t) over the admissible box",
                box_lo=box_lo,
                box_hi=box_hi,
            )
        )
    return items


def check_theorem1(
    problem: BvpProblem, lattice: tuple[int, int, int] = DEFAULT_LATTICE
) -> HypothesisReport:
    """Full finite-interval hypothesis set for a generic branch.

    Checks, in order: finite 1/k norms, s* inside the branch, the strict
    image margin Phi(s*) +/- 2L, and the sampled psi-domination of f over
    the admissible (t, x, y) box.
    """
    items = _finite_interval_items(problem, lattice, surjective_shortcut=False)
    return HypothesisReport("thm1", tuple(items), _overall(items))


def check_corollary_surjective(
    problem: BvpProblem, lattice: tuple[int, int, int] = DEFAULT_LATTICE
) -> HypothesisReport:
    """Shortcut for branches whose image is all of R: the margin is free."""
    branch = problem.branch
    if branch is not None and (
        math.isfinite(branch.image_lo) or math.isfinite(branch.image_hi)
    ):
        raise WrongCorollaryError(
            "branch image is bounded; use check_corollary_singular for a "
            "bounded domain with full image, or check_theorem1 otherwise"
        )
    items = _finite_interval_items(problem, lattice, surjective_shortcut=True)
    return HypothesisReport("cor1", tuple(items), _overall(items))


def check_corollary_singular(
    problem: BvpProblem, lattice: tuple[int, int, int] = DEFAULT_LATTICE
) -> HypothesisReport:
    """Bounded branch domain J with image all of R (singular operators).

    The domination box widens to the whole of J: x with (x - nu1)/k1 in J
    and slopes with k(t) y in J.
    """
    branch = problem.branch
    if branch is not None:
        if not (math.isfinite(branch.lo) and math.isfinite(branch.hi)):
            raise WrongCorollaryError(
                "branch domain is unbounded; use check_corollary_surjective "
                "or check_theorem1"
            )
        if math.isfinite(branch.image_lo) or math.isfinite(branch.image_hi):
            raise WrongCorollaryError(
                "bounded-domain shortcut needs the branch image to be all of R"
            )
    sc = derive_scalars(problem)
    items, slope_ok = _slope_items(problem, sc, "")
    if not slope_ok:
        items.append(_unsampled("s* outside the branch, nothing to sample"))
    else:
        # inset the open interval so endpoint singularities are never touched
        width = branch.hi - branch.lo
        j_lo = branch.lo + 1e-9 * width
        j_hi = branch.hi - 1e-9 * width
        items.append(
            _domination_item(
                problem,
                np.linspace(0.0, problem.T, lattice[0]),
                (problem.nu1 + sc.k1 * j_lo, problem.nu1 + sc.k1 * j_hi, j_lo, j_hi),
                lattice,
                "sampled |f| <= psi over the whole branch box",
            )
        )
    return HypothesisReport("cor2", tuple(items), _overall(items))


def _golden_max(f: Callable, a: float, b: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    z = 0.5 * (a + b)
    return z, f(z)


def plaplacian_maximizer(p: float, beta: float, N: float) -> tuple[float, float]:
    """Maximizer and maximum of ell(z) = (z/N)^{(p-1)/beta} - 2z for
    beta above the critical exponent p-1 (golden-section search bracketed
    by the closed-form critical point)."""
    pm1 = p - 1.0
    if not (beta > pm1):
        raise InvalidInputError("the maximizer exists only for beta > p-1")
    q = pm1 / beta

    def ell(z: float) -> float:
        return (z / N) ** q - 2.0 * z

    z_crit = (N ** ((1.0 - p) / beta) * pm1 / (2.0 * beta)) ** (beta / (beta - pm1))
    return _golden_max(ell, 0.0, 2.0 * z_crit, 1e-12 * max(z_crit, 1.0))


def plaplacian_bound(
    p: float, beta: float, N: float
) -> tuple[float, Callable[[float], float | None]]:
    """Admissible |lambda| bound for |x'|^{p-2} x' equations with
    |f(t,x,y)| <= N-bounded factor times |y|^beta.

    Write ell(z) = (z/N)^{(p-1)/beta} - 2z.  A constant psi = z_bar works
    whenever (|lambda|^{p-1} + 2 z_bar)^{beta/(p-1)} <= z_bar / N, i.e.
    |lambda|^{p-1} <= ell(z_bar); the best bound is (max ell)^{1/(p-1)}.
    Below the critical exponent (beta < p-1) ell is unbounded and every
    lambda is admissible.  Returns (bound, z_bar_solver) where the solver
    produces a usable z_bar for a given lambda, or None when none exists.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidInputError("p must exceed 1")
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise InvalidInputError("beta must be nonnegative")
    if not (N > 0.0 and math.isfinite(N)):
        raise InvalidInputError("N must be positive")
    pm1 = p - 1.0
    if beta == 0.0:
        # rhs bounded outright: psi = N works for every lambda
        return math.inf, lambda lam: N
    if abs(beta - pm1) <= 1e-12 * max(1.0, pm1):
        raise DegenerateExponentError(
            "beta equal to p-1 is a borderline growth not covered; "
            "perturb beta to either side"
        )
    q = pm1 / beta

    def ell(z: float) -> float:
        return (z / N) ** q - 2.0 * z

    if beta < pm1:
        # q > 1: ell(z) -> +inf, a z_bar exists for every lambda
        def solver_below(lam: float) -> float | None:
            c = abs(lam) ** pm1
            z = max(N, 1.0)
            for _ in range(600):
                if ell(z) >= c:
                    return z
                z *= 2.0
            return None

        return math.inf, solver_below

    # q < 1: interior maximum at the closed-form critical point
    z_star, ell_max = plaplacian_maximizer(p, beta, N)
    bound = ell_max ** (1.0 / pm1) if ell_max > 0.0 else 0.0

    def solver_above(lam: float) -> float | None:
        c = abs(lam) ** pm1
        if c > ell_max * (1.0 + 1e-12):
            return None
        if c <= 0.0:
            return z_star
        lo, hi = 0.0, z_star
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ell(mid) >= c:
                hi = mid
            else:
                lo = mid
        return hi

    return bound, solver_above


def _mass_item(name: str, value: float, tail: float, detail: str, ok=True) -> CheckItem:
    ok = ok and math.isfinite(value) and tail <= 1e-3 * max(value, 1e-12)
    return CheckItem(name, PASS if ok else FAIL, _q(mass=value, tail_estimate=tail), detail)


def _mass_items(sc: HalflineScalars) -> tuple[list[CheckItem], float]:
    """The recip-integrable and psi-integrable items, then s*_inf: NaN
    unless 1/k passes as integrable, which needs a positive mass."""
    items = [
        _mass_item(
            "recip-integrable", sc.k_inf, sc.k_tail,
            "1/k must be integrable on the half-line", ok=sc.k_inf > 0.0,
        ),
        _mass_item(
            "psi-integrable", sc.ell_inf, sc.psi_tail, "psi must be integrable on the half-line"
        ),
    ]
    return items, sc.s_inf if items[0].verdict == PASS else math.nan


def _halfline_t_lattice(nt: int) -> np.ndarray:
    head = np.linspace(0.0, 10.0, nt - nt // 2)
    tail = np.geomspace(10.0, 1.0e4, nt // 2 + 1)[1:]
    return np.concatenate([head, tail])


def check_halfline(
    hp: HalflineProblem,
    L_lip: float,
    delta: float,
    M: float | None = None,
    lattice: tuple[int, int, int] = DEFAULT_LATTICE,
) -> HypothesisReport:
    """Half-line hypothesis set built around the limit slope s*_inf.

    L_lip and delta describe the local Lipschitz bound of Phi near
    s*_inf (verified by sampling, it is an analytic input); M optionally
    pins lim psi(t) k(t) when tail probes cannot settle it.
    """
    if not (L_lip >= 0.0 and math.isfinite(L_lip)):
        raise InvalidInputError("L_lip must be nonnegative and finite")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise InvalidInputError("delta must be positive")
    branch, sc = hp.branch, hp.scalars
    items, s_inf = _mass_items(sc)
    k_ok = items[0].verdict == PASS
    slope_ok = k_ok and branch is not None and branch.contains(s_inf)
    items.append(_slope_item(branch, slope_ok, "s*_inf", s_star_infinity=s_inf))

    # sampled Lipschitz verification near the limit slope
    if slope_ok:
        width = min(delta, s_inf - branch.lo, branch.hi - s_inf)
        ss = s_inf + np.linspace(-width, width, 401)
        ss = ss[np.abs(ss - s_inf) > 1e-14 * (1.0 + abs(s_inf))]
        phi_vals = np.asarray(hp.phi(ss), dtype=float)
        ratios = np.abs(phi_vals - sc.phi_s_inf) / np.abs(ss - s_inf)
        lip_worst = float(np.max(ratios))
        lip_ok = lip_worst <= L_lip * (1.0 + RATIO_SLACK) + 1e-15
        items.append(
            CheckItem(
                "lipschitz",
                SAMPLED if lip_ok else FAIL,
                _q(L_lip=L_lip, delta=delta, max_ratio=lip_worst),
                detail="sampled |Phi(s) - Phi(s*_inf)| <= L |s - s*_inf|",
            )
        )
    else:
        items.append(
            CheckItem(
                "lipschitz",
                INCONCLUSIVE,
                _q(L_lip=L_lip, delta=delta),
                detail="s*_inf outside the branch",
            )
        )

    # tail limit M = lim psi(t) k(t) against the threshold
    threshold = (
        L_lip * abs(hp.nu2 - hp.nu1) / (2.0 * sc.k_inf**2) if k_ok else math.nan
    )
    if M is None:
        probes = np.asarray(TAIL_PROBES, dtype=float)
        vals = np.asarray(hp.rhs.psi_at(probes), dtype=float) * np.asarray(
            hp.weight(probes), dtype=float
        )
        if not np.all(np.isfinite(vals)):
            m_est, settled = math.nan, False
        else:
            spread = float(np.max(vals) - np.min(vals))
            scale = max(float(np.max(np.abs(vals))), 1e-12)
            settled = spread <= TAIL_SPREAD_TOL * scale
            m_est = float(np.mean(vals))
    else:
        m_est, settled = float(M), True
    if not settled:
        items.append(
            CheckItem(
                "tail-limit",
                INCONCLUSIVE,
                _q(threshold=threshold),
                detail="psi k probes have not settled; supply M analytically",
            )
        )
    else:
        m_ok = m_est > threshold or (m_est == 0.0 and threshold == 0.0)
        items.append(
            CheckItem(
                "tail-limit",
                PASS if m_ok else FAIL,
                _q(M=m_est, threshold=threshold),
                detail="needs lim psi(t) k(t) > L |nu2 - nu1| / (2 k_inf^2)",
            )
        )

    if not slope_ok:
        items.append(CheckItem("image-margin", INCONCLUSIVE, ()))
        items.append(_unsampled())
        return HypothesisReport("thm_halfline", tuple(items), _overall(items))

    margin = _margin_item(branch, sc.phi_s_inf, sc.ell_inf)
    items.append(margin)
    if margin.verdict != PASS or math.isnan(sc.slope_lo):
        items.append(_unsampled("admissible slope box undefined, nothing to sample"))
        return HypothesisReport("thm_halfline", tuple(items), _overall(items))

    x_lo = min(hp.nu1, hp.nu1 + sc.k_inf * sc.slope_lo)
    x_hi = max(hp.nu1, hp.nu1 + sc.k_inf * sc.slope_hi)
    items.append(
        _domination_item(
            hp,
            _halfline_t_lattice(lattice[0]),
            (x_lo, x_hi, sc.slope_lo, sc.slope_hi),
            lattice,
            "sampled |f| <= psi over the half-line admissible box",
        )
    )
    return HypothesisReport("thm_halfline", tuple(items), _overall(items))


def check_halfline_odd(
    hp: HalflineProblem, lattice: tuple[int, int, int] = DEFAULT_LATTICE
) -> HypothesisReport:
    """Odd-operator half-line shortcut: search a finite witness interval.

    Instead of the Lipschitz and tail-limit conditions, an odd operator
    only needs one T with s_T* inside the branch and Phi(s_T*) +/- 2
    ||psi|| inside the image; the witness grid doubles from 1 to 1024.
    Without a branch at s*_inf, slope-in-branch fails instead.
    """
    phi, branch, sc = hp.phi, hp.branch, hp.scalars
    if not phi.odd:
        raise InvalidInputError("odd-operator shortcut requires an odd operator")
    if branch is not None and not symmetric_increasing(branch):
        raise InvalidInputError(
            "odd-operator shortcut requires the symmetric increasing branch"
        )
    items, s_inf = _mass_items(sc)
    if branch is None:
        items.append(_slope_item(None, False, "s*_inf", s_star_infinity=s_inf))
        items.append(_unsampled())
        return HypothesisReport("thm_halfline_odd", tuple(items), _overall(items))

    witness = None
    last_quantities: tuple[tuple[str, float], ...] = ()
    for T in T_WITNESS_GRID:
        k_T = k_mass_upto(hp.weight, T)
        s_T = (hp.nu2 - hp.nu1) / k_T
        if not branch.contains(s_T):
            last_quantities = _q(T=T, s_T_star=s_T)
            continue
        lo_margin, hi_margin = image_margins(branch, float(phi(s_T)), sc.ell_inf)
        last_quantities = _q(
            T=T, s_T_star=s_T, margin_lo=lo_margin, margin_hi=hi_margin
        )
        if lo_margin > 0.0 and hi_margin > 0.0:
            witness = (T, k_T, s_T)
            break
    if witness is None:
        items.append(
            CheckItem(
                "witness-interval",
                FAIL,
                last_quantities,
                detail="no T in the doubling grid satisfies the margins",
            )
        )
        items.append(_unsampled())
        return HypothesisReport("thm_halfline_odd", tuple(items), _overall(items))

    T, k_T, s_T = witness
    items.append(
        CheckItem(
            "witness-interval",
            PASS,
            _q(T=T, k_T=k_T, s_T_star=s_T),
            detail="first doubling T with margins and slope inside the branch",
        )
    )

    # symmetric admissible box from the odd form of the slope estimates
    slope_hi = partial_inverse(phi, branch, float(phi(abs(s_T))) + 2.0 * sc.ell_inf)
    x_max = abs(hp.nu1) + sc.k_inf * slope_hi
    items.append(
        _domination_item(
            hp,
            _halfline_t_lattice(lattice[0]),
            (-x_max, x_max, -slope_hi, slope_hi),
            lattice,
            "sampled |f| <= psi over the symmetric admissible box",
            counts=False,
            slope_bound=slope_hi,
            x_bound=x_max,
        )
    )
    return HypothesisReport("thm_halfline_odd", tuple(items), _overall(items))


# -- the worked examples ---------------------------------------------------------


@dataclass(frozen=True)
class WorkedExample:
    """One worked family of the paper, written once.

    keys are its [rhs] parameters with their defaults (None: required),
    condition_keys those only its lambda-condition reads.  rhs(s_star,
    **params) gives f and psi at the problem's slope s*, psi_l1(**params)
    the exact half-line psi mass (None: not known), and bound(**params,
    **condition params) the closed-form bound on |lambda| with the derived
    quantities the condition reports; closed admits |lambda| == bound.
    """

    rhs: Callable[..., Rhs]
    bound: Callable[..., tuple[float, dict]]
    detail: str
    keys: tuple[tuple[str, float | None], ...] = ()
    condition_keys: tuple[tuple[str, float], ...] = ()
    psi_l1: Callable[..., float | None] = lambda **params: None
    closed: bool = False


def _integrable_power(alpha: float) -> float:
    """alpha + 1 > 0, for psi = M N t^alpha integrable at t = 0."""
    if alpha <= -1.0:
        raise InvalidInputError("alpha must exceed -1 for an integrable psi")
    return alpha + 1.0


def _power_rhs(tag: str, s_star: float, alpha: float, M: float, N: float) -> Rhs:
    """f = M N t^alpha cos(x) sin(y) under psi = M N t^alpha."""
    _integrable_power(alpha)
    return Rhs(
        fn=lambda t, x, y: M * N * t**alpha * np.cos(x) * np.sin(y),
        psi=lambda t: M * N * np.asarray(t, dtype=float) ** alpha,
        name=f"{tag}(alpha={alpha:g})",
    )


def _threshold(top: float, alpha: float, M: float, N: float) -> float:
    """top - 2 M N / (alpha + 1), at most top: psi = M N t^alpha >= 0."""
    if not M * N >= 0.0:
        raise InvalidInputError(f"M N must be nonnegative for psi = M N t^alpha, got {M * N!r}")
    return top - 2.0 * M * N / _integrable_power(alpha)


def _perona_bound(alpha: float, M: float, N: float) -> tuple[float, dict]:
    c = _threshold(0.5, alpha, M, N)
    # s/(1+s^2) = c has its first positive root at (1-sqrt(1-4c^2))/(2c)
    bound = (1.0 - math.sqrt(1.0 - 4.0 * c * c)) / (2.0 * c) if c > 0.0 else 0.0
    return bound, dict(threshold=c)


def _sine_bound(alpha: float, M: float, N: float) -> tuple[float, dict]:
    c = _threshold(1.0, alpha, M, N)
    return (math.asin(c) if c > 0.0 else 0.0), dict(threshold=c)


def _plaplacian_rhs(s_star: float, p: float, beta: float, N: float) -> Rhs:
    """No fixed psi: the certificate is the constant z_bar solving the
    growth inequality at the problem's own slope s*, or the maximizer
    argument when no certificate exists (so the sampled domination check
    fails honestly rather than trivially)."""
    _, z_solver = plaplacian_bound(p, beta, N)
    z_bar = z_solver(abs(s_star))
    if z_bar is None:
        z_bar, _ = plaplacian_maximizer(p, beta, N)
    level = float(z_bar)
    return Rhs(
        fn=lambda t, x, y: N * np.cos(x) * np.abs(y) ** beta + 0.0 * t,
        psi=lambda t: np.full_like(np.asarray(t, dtype=float), level),
        name=f"plaplacian(beta={beta:g})",
    )


# Boundary data is x(0) = 0, x(end) = lambda throughout.
EXAMPLES: dict[str, WorkedExample] = {
    "perona": WorkedExample(
        keys=(("alpha", None), ("M", 1.0), ("N", 1.0)),
        rhs=partial(_power_rhs, "perona"),
        bound=_perona_bound,
        detail="needs |lambda|/(1+lambda^2) < 1/2 - 2MN/(alpha+1)",
    ),
    "sine": WorkedExample(
        keys=(("alpha", None), ("M", 1.0), ("N", 1.0)),
        rhs=partial(_power_rhs, "sine"),
        bound=_sine_bound,
        detail="needs sin(|lambda|) < 1 - 2MN/(alpha+1) on the principal branch",
    ),
    "plaplacian": WorkedExample(
        keys=(("p", 2.0), ("beta", None), ("N", 1.0)),
        rhs=_plaplacian_rhs,
        bound=lambda p, beta, N: (plaplacian_bound(p, beta, N)[0], {}),
        detail="needs |lambda|^{p-1} <= max of (z/N)^{(p-1)/beta} - 2z",
        closed=True,
    ),
    "relativistic": WorkedExample(
        rhs=lambda s_star: Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
            psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
            name="relativistic-decay",
        ),
        bound=lambda k1: (k1, {}),
        detail="needs s* = lambda/k1 inside (-1, 1); every such lambda works",
        condition_keys=(("k1", 1.0),),
    ),
    "halfline1": WorkedExample(
        keys=(("r", (math.pi + 4.0) ** -1.5),),
        rhs=lambda s_star, r: Rhs(
            fn=lambda t, x, y: t**2 * np.cos(x) * y**3,
            psi=lambda t: r * np.minimum(1.0, 1.0 / np.asarray(t, dtype=float) ** 2),
            name=f"halfline1(r={r:g})",
        ),
        bound=lambda r: (r * math.pi**2 / 2.0, {}),
        detail="needs |lambda| < r pi^2 / 2 for the tail-limit margin",
        psi_l1=lambda r: 2.0 * r,
    ),
    "halfline2": WorkedExample(
        rhs=lambda s_star: Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.arctan(x * y),
            psi=lambda t: (math.pi / 2.0) * np.exp(-np.asarray(t, dtype=float)),
            name="halfline2",
        ),
        bound=lambda j_half_width, k_infinity: (k_infinity * j_half_width, {}),
        detail="needs the limit slope s*_inf = lambda/k_inf inside the branch",
        condition_keys=(("j_half_width", math.inf), ("k_infinity", math.pi / 2.0)),
        psi_l1=lambda: math.pi / 2.0,
    ),
}


def example_params(tag: str, given: dict, condition: bool = False) -> dict[str, float]:
    """A worked example's parameters, in the order of its keys: the given
    values over the defaults of EXAMPLES.  condition also admits the keys
    only the lambda-condition reads; a None value counts as not given."""
    if tag not in EXAMPLES:
        raise InvalidInputError(f"unknown example tag {tag!r}; known: {', '.join(EXAMPLES)}")
    example = EXAMPLES[tag]
    keys = example.keys + example.condition_keys if condition else example.keys
    extra = sorted(set(given) - {key for key, _ in keys})
    if extra:
        raise InvalidInputError(f"unknown parameters for {tag}: {', '.join(extra)}")
    params = {}
    for key, default in keys:
        value = default if given.get(key) is None else given[key]
        if value is None:
            raise InvalidInputError(f"{tag} needs {key}")
        params[key] = float(value)
    return params


@dataclass(frozen=True)
class ExampleCondition:
    """Closed-form admissibility region of one worked problem family."""

    tag: str
    params: tuple[tuple[str, float], ...]
    bound: float
    bound_kind: str  # "finite" | "all-of-branch"
    lam: float
    admissible: bool
    detail: str = ""


def example_condition(tag: str, lam: float, **params) -> ExampleCondition:
    """Evaluate one worked example's closed-form lambda condition; the
    tags and their parameters, condition-only keys included, are those
    of EXAMPLES."""
    values = example_params(tag, params, condition=True)
    example = EXAMPLES[tag]
    bound, derived = example.bound(**values)
    return ExampleCondition(
        tag=tag,
        params=_q(**values, **derived),
        bound=bound,
        bound_kind="all-of-branch" if math.isinf(bound) else "finite",
        lam=float(lam),
        admissible=bool(abs(lam) <= bound if example.closed else abs(lam) < bound),
        detail=example.detail,
    )
