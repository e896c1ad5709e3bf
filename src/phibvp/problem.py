"""Problem data for (Phi(k(t) x'))' = f(t, x, x') on [0, T] with Dirichlet data.

Bundles the operator branch, the weight k, the right-hand side f with its
dominating integrable bound psi, and the boundary values, and derives the
scalar quantities the existence argument is built from: the weighted
length k1, the reference slope s*, the psi mass L, the shifted slopes
A*, B*, and the solution box [N1, N2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BranchError, CompatibilityError, EnvelopeError, InvalidInputError, PhibvpError
from .grid import (
    Mesh, cumulative_integral, halfline_integral, lp_norm, midvalues,
    sample_midpoints, sample_nodes,
)
from .operators import (
    MonotoneBranch, PhiOperator, find_branch, hint_branch, partial_inverse_array,
)

# reference mesh and tolerance of the K self-test (sqrt_t is off by 1e-6)
K_SELFTEST_CELLS = 4096
K_SELFTEST_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class Weight:
    """Coefficient k(t) > 0 a.e., possibly vanishing at listed singular points.

    recip_antiderivative, when given, is the exact K(t) = integral of 1/k
    over [0, t]; recip_total is its limit at infinity (for half-line work).
    K is self-tested once, here, against a fine quadrature over [0, 1].
    """

    fn: Callable = field(repr=False)
    singular_points: tuple[float, ...] = ()
    recip_antiderivative: Callable | None = field(default=None, repr=False)
    recip_total: float | None = None
    name: str = "custom"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        K = self.recip_antiderivative
        if K is None:
            return
        points = [p for p in self.singular_points if 0.0 <= p <= 1.0]
        quad = sample_weight(self, Mesh.graded(1.0, K_SELFTEST_CELLS, points)).k1
        exact = float(K(1.0)) - float(K(0.0))
        if not abs(quad - exact) <= K_SELFTEST_RTOL * max(1.0, abs(exact)):
            raise InvalidInputError(
                "weight antiderivative self-test failed: "
                f"quadrature {quad!r} vs exact {exact!r}"
            )

    def __call__(self, t):
        with np.errstate(all="ignore"):
            return self.fn(np.asarray(t, dtype=float))

    def recip(self, t):
        with np.errstate(all="ignore"):
            return 1.0 / np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    @cached_property
    def recip_halfline(self) -> tuple[float, float]:
        """(||1/k||_L1 over the half-line, truncation proxy), resolved once
        per weight: the finite recip_total, else a numeric integral."""
        if self.recip_total is not None and math.isfinite(self.recip_total):
            return float(self.recip_total), 0.0
        return halfline_integral(self.recip)


def constant_weight(value: float = 1.0) -> Weight:
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError("constant weight must be positive and finite")
    return Weight(
        fn=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        recip_antiderivative=lambda t: np.asarray(t, dtype=float) / value,
        recip_total=math.inf,
        name="constant",
        params=(("value", float(value)),),
    )


def one_plus_t_squared_weight() -> Weight:
    return Weight(
        fn=lambda t: 1.0 + np.asarray(t, dtype=float) ** 2,
        recip_antiderivative=np.arctan,
        recip_total=math.pi / 2.0,
        name="one_plus_t_squared",
    )


def sqrt_t_weight() -> Weight:
    return Weight(
        fn=lambda t: np.sqrt(np.asarray(t, dtype=float)),
        singular_points=(0.0,),
        recip_antiderivative=lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float)),
        recip_total=math.inf,
        name="sqrt_t",
    )


WEIGHT_CATALOG: dict[str, Callable[..., Weight]] = {
    "constant": constant_weight,
    "one_plus_t_squared": one_plus_t_squared_weight,
    "sqrt_t": sqrt_t_weight,
}


def make_weight(name: str, **params) -> Weight:
    if name not in WEIGHT_CATALOG:
        known = ", ".join(sorted(WEIGHT_CATALOG))
        raise InvalidInputError(f"unknown weight {name!r}; catalog: {known}")
    return WEIGHT_CATALOG[name](**params)


@dataclass(frozen=True, eq=False)
class Rhs:
    """Right-hand side f(t, x, y) dominated by an integrable psi(t) >= 0."""

    fn: Callable = field(repr=False)
    psi: Callable = field(repr=False)
    name: str = "custom"

    def __call__(self, t, x, y):
        with np.errstate(all="ignore"):
            return self.fn(
                np.asarray(t, dtype=float),
                np.asarray(x, dtype=float),
                np.asarray(y, dtype=float),
            )

    def psi_at(self, t):
        with np.errstate(all="ignore"):
            return np.asarray(self.psi(np.asarray(t, dtype=float)), dtype=float)


def zero_rhs() -> Rhs:
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return Rhs(fn=lambda t, x, y: np.zeros_like(t + x + y), psi=zero, name="zero")


def constant_rhs(value: float) -> Rhs:
    mag = abs(float(value))
    return Rhs(
        fn=lambda t, x, y: np.full_like(t + x + y, float(value)),
        psi=lambda t: np.full_like(np.asarray(t, dtype=float), mag),
        name="constant",
    )


@dataclass(frozen=True, eq=False)
class Discretization:
    """1/k and psi, the two functions the existence argument integrates,
    sampled once on one mesh; the scalars, the envelopes and the solver
    read them here.

    Node arrays hold a placeholder zero at singular nodes; the midpoint
    arrays sample the midpoints of the midpoint-rule cells, mesh.mid_cells.
    These two are the only functions the package evaluates off the nodes:
    whatever depends on the iterate (f, its running integral F and
    Phi^{-1}(beta + F)) takes its finite endpoint's value on those cells.
    1/k comes first, because s* = (nu2 - nu1)/k1 parametrises some
    right-hand sides; psi_n and psi_mid stay None until with_psi.
    """

    mesh: Mesh
    recip_n: np.ndarray
    recip_mid: np.ndarray
    recip_cumulative: np.ndarray
    psi_n: np.ndarray | None = None
    psi_mid: np.ndarray | None = None
    # ||1/k||_p by p; the copies that with_psi makes share this dict, as
    # they share the 1/k samples
    recip_norms: dict = field(default_factory=dict, repr=False)

    @property
    def k1(self) -> float:
        """||1/k||_L1 over [0, T] by the mesh quadrature: the k1 of every
        finite problem.  halfline.k_mass_upto, which the half-line
        schedule's k_n and the odd check's k_T read, takes the exact
        K(t) - K(0) instead when the weight carries K."""
        return float(self.recip_cumulative[-1])

    def with_psi(self, rhs: Rhs) -> "Discretization":
        """A copy that also holds psi; a non-finite sample is an error."""
        try:
            psi_n = sample_nodes(self.mesh, rhs.psi_at)
            psi_mid = sample_midpoints(self.mesh, rhs.psi_at)
        except InvalidInputError as exc:
            raise InvalidInputError(f"psi: {exc}") from None
        return replace(self, psi_n=psi_n, psi_mid=psi_mid)

    def recip_norm(self, p: float) -> float:
        """||1/k||_p over [0, T] by lp_norm, taken once per p for these
        1/k samples; an error is not kept, so every call raises it."""
        if p not in self.recip_norms:
            self.recip_norms[p] = lp_norm(self.mesh, self.recip_n, p, self.recip_mid)
        return self.recip_norms[p]

    @cached_property
    def psi_mass(self) -> float:
        """L, the integral of psi by the mesh quadrature, once per psi
        sampling."""
        return float(cumulative_integral(self.mesh, self.psi_n, self.psi_mid)[-1])

    @cached_property
    def psi_min(self) -> float:
        """The least psi sample at a regular node, once per psi sampling."""
        return float(np.min(self.psi_n[~self.mesh.singular_mask()], initial=math.inf))

    def weighted(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """values / k at the nodes, and at the midpoints of mesh.mid_cells
        with the endpoint stand-ins of midvalues: the (values, mid_values)
        pair of every 1/k-weighted integral."""
        return self.recip_n * values, self.recip_mid * midvalues(self.mesh, values)


def sample_weight(weight: Weight, mesh: Mesh) -> Discretization:
    """1/k on the mesh, without psi (see Discretization.with_psi); away from
    singular nodes it must be positive and finite, and so must k1."""
    recip_n = sample_nodes(mesh, weight.recip)
    recip_mid = sample_midpoints(mesh, weight.recip)
    if np.any(recip_n[~mesh.singular_mask()] <= 0.0) or np.any(recip_mid <= 0.0):
        raise InvalidInputError("weight must be positive away from singular points")
    disc = Discretization(
        mesh, recip_n, recip_mid, cumulative_integral(mesh, recip_n, recip_mid)
    )
    if not (disc.k1 > 0.0 and math.isfinite(disc.k1)):
        raise InvalidInputError("the L1 norm of 1/k is not positive and finite")
    return disc


@dataclass(frozen=True, eq=False)
class BvpProblem:
    """The finite-interval problem; branch is None when no branch contains s*."""

    phi: PhiOperator
    branch: MonotoneBranch | None
    weight: Weight
    rhs: Rhs
    nu1: float
    nu2: float
    T: float
    p: float = 1.0
    disc: Discretization = None  # 1/k and psi on the mesh: see make_problem

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise InvalidInputError("T must be positive and finite")
        if not (self.p >= 1.0):
            raise InvalidInputError("p must satisfy p >= 1")
        for v in (self.nu1, self.nu2):
            if not math.isfinite(v):
                raise InvalidInputError("boundary values must be finite")
        if self.disc is None or self.disc.psi_n is None:
            raise InvalidInputError("problem needs 1/k and psi sampled; use make_problem")
        if abs(self.mesh.T - self.T) > 1e-12 * max(1.0, self.T):
            raise InvalidInputError("mesh endpoint differs from T")

    @property
    def mesh(self) -> Mesh:
        return self.disc.mesh

    def branch_contains(self, s: float) -> bool:
        return self.branch is not None and self.branch.contains(s)

    @cached_property
    def scalars(self) -> DerivedScalars:
        """k1, kp, s*, L, min psi, Phi(s*), A*, B* and the box [N1, N2],
        derived once per problem; never raises (see reference_slopes).

        k1 and L are mesh quadratures of disc, the ones the solver
        integrates with; disc takes k1 and kp once per sampling of 1/k, L
        and min psi once per sampling of psi, so the problems of a sweep
        share them.  require_box raises for a box left NaN.
        """
        disc = self.disc
        k1 = disc.k1
        s_star = (self.nu2 - self.nu1) / k1
        L, psi_min = disc.psi_mass, disc.psi_min
        phi_s, A_star, B_star = reference_slopes(
            self.phi, self.branch, s_star, L, psi_min >= 0.0
        )
        slope_lo, slope_hi = sorted((A_star, B_star))
        kp = disc.recip_norm(self.p)
        N1, N2 = self.nu1 + k1 * slope_lo, self.nu1 + k1 * slope_hi
        return DerivedScalars(
            k1, kp, s_star, L, psi_min, phi_s, A_star, B_star, slope_lo, slope_hi, N1, N2
        )

    @property
    def box(self) -> tuple[float, float]:
        """The truncation box [min(nu1, N1), max(nu1, N2)] for x."""
        sc = self.scalars
        return min(self.nu1, sc.N1), max(self.nu1, sc.N2)


def default_mesh(weight: Weight, T: float, n: int = 1000) -> Mesh:
    """n cells on [0, T], graded toward the weight's singular points there."""
    return Mesh.graded(T, n, [p for p in weight.singular_points if 0.0 <= p <= T])


def make_problem(
    phi: PhiOperator,
    weight: Weight,
    rhs: Rhs,
    nu1: float,
    nu2: float,
    T: float,
    branch: MonotoneBranch | None = None,
    branch_hint: tuple[float, float] | None = None,
    p: float = 1.0,
    mesh: Mesh | None = None,
    mesh_n: int = 1000,
) -> BvpProblem:
    """Assemble a problem.  Without a given branch it takes the hint's
    branch, else the branch that holds s*, else None: s* outside it is a
    failed hypothesis for the check to report, as in ProblemConfig."""
    if mesh is None:
        mesh = default_mesh(weight, T, n=mesh_n)
    disc = sample_weight(weight, mesh)
    if branch is None and branch_hint is not None:
        branch = hint_branch(phi, branch_hint)
    elif branch is None:
        try:
            branch = find_branch(phi, (nu2 - nu1) / disc.k1)
        except PhibvpError:
            branch = None
    return BvpProblem(phi, branch, weight, rhs, nu1, nu2, T, p=p, disc=disc.with_psi(rhs))


@dataclass(frozen=True)
class DerivedScalars:
    """Scalar data the existence hypotheses and the solver share.

    A failed hypothesis leaves the fields it undefines NaN, by the rule of
    reference_slopes: phi_s_star when s* lies outside the branch, and A*,
    B*, the slopes and [N1, N2] also when psi < 0 somewhere, Phi(s*) +- 2L
    leaves the branch image or a numeric inverse finds no bracket.
    """

    k1: float
    kp: float
    s_star: float
    L: float
    psi_min: float
    phi_s_star: float
    A_star: float
    B_star: float
    slope_lo: float
    slope_hi: float
    N1: float
    N2: float


def derive_scalars(problem: BvpProblem) -> DerivedScalars:
    """The problem's scalars, BvpProblem.scalars."""
    return problem.scalars


def require_box(problem: BvpProblem) -> None:
    """Raise for the first hypothesis that leaves the slope box undefined.

    BranchError when s* leaves the branch, InvalidInputError when psi is
    negative, CompatibilityError when Phi(s*) +- 2L leaves the image or a
    numeric inverse of it finds no bracket.
    """
    br, sc = problem.branch, problem.scalars
    if not problem.branch_contains(sc.s_star):
        where = "every branch" if br is None else f"branch ({br.lo}, {br.hi})"
        raise BranchError(f"reference slope {sc.s_star!r} outside {where}")
    if sc.psi_min < 0.0:
        raise InvalidInputError("psi must be nonnegative")
    if math.isnan(sc.A_star):
        two_l = f"Phi(s*) +- 2L = {sc.phi_s_star!r} +- {2.0 * sc.L!r}"
        if min(image_margins(br, sc.phi_s_star, sc.L)) > 0.0:
            raise CompatibilityError(f"{two_l} has no numeric inverse on the branch")
        raise CompatibilityError(
            f"{two_l} leaves the branch image ({br.image_lo!r}, {br.image_hi!r})"
        )


def image_margins(
    branch: MonotoneBranch, phi_s: float, L: float
) -> tuple[float, float]:
    """How far Phi(s*) - 2L and Phi(s*) + 2L sit inside the branch image."""
    return (phi_s - 2.0 * L) - branch.image_lo, branch.image_hi - (phi_s + 2.0 * L)


def reference_slopes(
    phi: PhiOperator, branch: MonotoneBranch | None, s: float, L: float, psi_ok: bool
) -> tuple[float, float, float]:
    """Phi(s) and the slope box Phi^{-1}(Phi(s) - 2L), Phi^{-1}(Phi(s) + 2L)
    of a psi of mass L, which psi_ok says is nonnegative; never raises.

    The one rule for finite and half-line problems: Phi(s) is NaN when s
    lies outside the branch (or there is none), and the two slopes are NaN
    then, when psi is negative, when Phi(s) +- 2L does not sit strictly
    inside the branch image, or when a numeric inverse finds no bracket.
    """
    if branch is None or not branch.contains(s):
        return math.nan, math.nan, math.nan
    phi_s = float(phi(s))
    lo_margin, hi_margin = image_margins(branch, phi_s, L)
    if psi_ok and lo_margin > 0.0 and hi_margin > 0.0:
        try:
            # one vector call: the two targets share one zoomed table
            box = partial_inverse_array(
                phi, branch, np.array([phi_s - 2.0 * L, phi_s + 2.0 * L])
            )
            return phi_s, float(box[0]), float(box[1])
        except PhibvpError:
            pass  # a numeric inverse found no bracket: the box stays NaN
    return phi_s, math.nan, math.nan


@dataclass(frozen=True, eq=False)
class Envelopes:
    """Nodal derivative bounds eta1 <= x' <= eta2."""

    eta1: np.ndarray
    eta2: np.ndarray


def envelopes(problem: BvpProblem) -> Envelopes:
    """Derivative envelopes slope/k(t) from problem.scalars; at singular
    nodes, where 1/k holds the placeholder 0, both bounds are 0."""
    sc = problem.scalars
    lo = sc.slope_lo * problem.disc.recip_n
    hi = sc.slope_hi * problem.disc.recip_n
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidInputError("derivative envelopes must be finite")
    if np.any(lo > hi):
        raise EnvelopeError("derivative envelopes are inverted")
    return Envelopes(eta1=lo, eta2=hi)
