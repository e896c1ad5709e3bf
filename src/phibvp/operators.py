"""Scalar operators Phi and their strictly monotone branches.

A branch is an interval on which Phi is strictly monotone together with
its image interval; inversion is only ever performed branch-wise.  The
catalog operators carry their monotone pieces analytically (exact piece
endpoints, exact images, and a stable closed-form inverse where one
exists); any other branch is certified by one rule, hint_branch: dense
sampling on the interval, the located-turn test next to its finite ends
and _limit_at at its ends.  Without a closed form the inverse is solved
inside certified brackets by one step from an anchor per element: a
Newton step, Phi there and a secant step give the estimate, and one
evaluation on each side of it closes the bracket.  The anchors live in
an InverseStart record.  A caller that inverts a sequence of nearby
targets keeps one, so that each call starts from the last one's
brackets; an empty record is seeded from a zoomed table of samples, each
element at its cell's regula falsi point.  Elements the step misses take
it once more, and vectorized Illinois regula falsi with a bisection
safeguard (bracketed_root) closes only what is still open, inside table
cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BranchNotFoundError,
    DomainError,
    ImageDomainError,
    InvalidInputError,
)

# No branch search or inversion ever leaves |s| <= WORK_WINDOW.
WORK_WINDOW = 1.0e8

BISECT_TOL = 1e-13
# Cap on the steps of bracketed_root (one map evaluation each) and on the
# table zoom levels of a generic inversion.
INVERSE_MAX_ITER = 120
# Samples of the table that gives each element of a generic inversion its
# own bracket.
INVERSE_TABLE_SIZE = 33
# Elements that one call of bracketed_root closes in a generic inversion.
INVERSE_BLOCK = 4096
# Samples of the dense monotonicity test on a branch's window.
BRANCH_SAMPLES = 2048
# Half-width of the central increment that locates a turn (see _rise).
TURN_STEP = 5e-6
# Span, relative to the scale of s, below which a secant is mostly
# rounding: one over 1e-8 of it has about 1e-8 relative error.
SECANT_REACH = 1e-8


@dataclass(frozen=True)
class MonotoneBranch:
    """Certified strictly monotone interval with its oriented image.

    A catalog operator's analytic pieces of monotonicity are branches too.
    """

    lo: float
    hi: float
    increasing: bool
    image_lo: float
    image_hi: float
    inverse: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidInputError("branch endpoints must satisfy lo < hi")
        if not self.image_lo < self.image_hi:
            raise InvalidInputError("branch image must be a nonempty open interval")

    def contains(self, s: float) -> bool:
        return self.lo < s < self.hi


@dataclass(frozen=True, eq=False)
class PhiOperator:
    """Operator s -> Phi(s) on an open domain, with optional piece metadata."""

    name: str
    fn: Callable = field(repr=False)
    domain: tuple[float, float] = (-math.inf, math.inf)
    odd: bool = False
    piece_at: Callable[[float], MonotoneBranch | None] | None = field(
        default=None, repr=False
    )
    params: tuple[tuple[str, float], ...] = ()

    def __call__(self, s):
        with np.errstate(all="ignore"):
            return self.fn(np.asarray(s, dtype=float))


# -- catalog -----------------------------------------------------------------


def _selftest_inverse(fn: Callable, piece: MonotoneBranch, name: str) -> None:
    a = max(piece.lo, -1e6)
    b = min(piece.hi, 1e6)
    ss = a + (b - a) * np.linspace(0.02, 0.98, 17)
    with np.errstate(all="ignore"):
        y = fn(ss)
        back = piece.inverse(y)
        resid = np.abs(fn(back) - y)
    if not np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(y))):
        raise InvalidInputError(f"analytic inverse self-test failed for {name}")


def _static_pieces(pieces: tuple[MonotoneBranch, ...]) -> Callable:
    def piece_at(s: float) -> MonotoneBranch | None:
        for p in pieces:
            if p.lo <= s <= p.hi:
                return p
        return None

    return piece_at


def r_laplacian(r: float = 2.0) -> PhiOperator:
    """Phi(s) = |s|^(r-2) s on the whole line, strictly increasing."""
    if not r > 1.0:
        raise InvalidInputError("r_laplacian needs r > 1")
    e = r - 1.0

    def fn(s):
        return np.sign(s) * np.abs(s) ** e

    def inv(y):
        return np.sign(y) * np.abs(y) ** (1.0 / e)

    piece = MonotoneBranch(-math.inf, math.inf, True, -math.inf, math.inf, inv)
    _selftest_inverse(fn, piece, "r_laplacian")
    return PhiOperator(
        "r_laplacian",
        fn,
        odd=True,
        piece_at=_static_pieces((piece,)),
        params=(("r", float(r)),),
    )


def mean_curvature() -> PhiOperator:
    """Phi(s) = s / sqrt(1 + s^2): increasing, image (-1, 1)."""

    def fn(s):
        return s / np.sqrt(1.0 + s * s)

    def inv(y):
        return y / np.sqrt(1.0 - y * y)

    piece = MonotoneBranch(-math.inf, math.inf, True, -1.0, 1.0, inv)
    _selftest_inverse(fn, piece, "mean_curvature")
    return PhiOperator("mean_curvature", fn, odd=True, piece_at=_static_pieces((piece,)))


def relativistic() -> PhiOperator:
    """Phi(s) = s / sqrt(1 - s^2) on (-1, 1): increasing onto the whole line."""

    def fn(s):
        return s / np.sqrt(1.0 - s * s)

    def inv(y):
        return y / np.hypot(1.0, y)

    piece = MonotoneBranch(-1.0, 1.0, True, -math.inf, math.inf, inv)
    _selftest_inverse(fn, piece, "relativistic")
    return PhiOperator(
        "relativistic", fn, domain=(-1.0, 1.0), odd=True, piece_at=_static_pieces((piece,))
    )


def p_relativistic(p: float = 2.0) -> PhiOperator:
    """Phi(s) = |s|^(p-2) s / (1 - |s|^p)^((p-1)/p) on (-1, 1), onto the line."""
    if not p > 1.0:
        raise InvalidInputError("p_relativistic needs p > 1")

    def fn(s):
        a = np.abs(s)
        return np.sign(s) * a ** (p - 1.0) / (1.0 - a**p) ** ((p - 1.0) / p)

    def inv(y):
        # w = |s|^p = 1 / (1 + |y|^(-p/(p-1))), stable for tiny and huge y
        a = np.abs(np.asarray(y, dtype=float))
        with np.errstate(divide="ignore"):
            w = 1.0 / (1.0 + a ** (-p / (p - 1.0)))
        return np.sign(y) * w ** (1.0 / p)

    piece = MonotoneBranch(-1.0, 1.0, True, -math.inf, math.inf, inv)
    _selftest_inverse(fn, piece, "p_relativistic")
    return PhiOperator(
        "p_relativistic",
        fn,
        domain=(-1.0, 1.0),
        odd=True,
        piece_at=_static_pieces((piece,)),
        params=(("p", float(p)),),
    )


def perona_malik() -> PhiOperator:
    """Phi(s) = s / (1 + s^2): increasing only on (-1, 1), peak value 1/2."""

    def fn(s):
        return s / (1.0 + s * s)

    def inv_mid(y):
        # 2y / (1 + sqrt(1 - 4y^2)) avoids cancellation at y = 0
        return 2.0 * y / (1.0 + np.sqrt(1.0 - 4.0 * y * y))

    def inv_outer(y):
        return (1.0 + np.sqrt(1.0 - 4.0 * y * y)) / (2.0 * y)

    mid = MonotoneBranch(-1.0, 1.0, True, -0.5, 0.5, inv_mid)
    right = MonotoneBranch(1.0, math.inf, False, 0.0, 0.5, inv_outer)
    left = MonotoneBranch(-math.inf, -1.0, False, -0.5, 0.0, inv_outer)
    _selftest_inverse(fn, mid, "perona_malik")

    def piece_at(s: float) -> MonotoneBranch | None:
        if -1.0 <= s <= 1.0:
            return mid
        return right if s > 1.0 else left

    return PhiOperator("perona_malik", fn, odd=True, piece_at=piece_at)


def sine() -> PhiOperator:
    """Phi(s) = sin s: monotone on each ((m-1/2)pi, (m+1/2)pi)."""

    def piece_at(s: float) -> MonotoneBranch | None:
        m = math.floor(s / math.pi + 0.5)
        lo = (m - 0.5) * math.pi
        hi = (m + 0.5) * math.pi
        increasing = m % 2 == 0
        sign = 1.0 if increasing else -1.0
        shift = m * math.pi

        def inv(y, shift=shift, sign=sign):
            return shift + sign * np.arcsin(y)

        piece = MonotoneBranch(lo, hi, increasing, -1.0, 1.0, inv)
        return piece

    op = PhiOperator("sine", np.sin, odd=True, piece_at=piece_at)
    _selftest_inverse(np.sin, piece_at(0.0), "sine")
    _selftest_inverse(np.sin, piece_at(math.pi), "sine (shifted piece)")
    return op


def difference(alpha: float, beta: float) -> PhiOperator:
    """Phi(s) = |s|^alpha s - |s|^beta s with alpha != beta: non-monotone."""
    if alpha < 0 or beta < 0:
        raise InvalidInputError("difference exponents must be nonnegative")
    if alpha == beta:
        raise InvalidInputError("difference needs alpha != beta")

    def fn(s):
        # in place: three arrays of s's size at the peak, not five
        a = np.abs(s)
        out = a ** (alpha + 1.0)
        out -= a ** (beta + 1.0)
        out *= np.sign(s)
        return out

    # critical |s| where (alpha+1)|s|^alpha = (beta+1)|s|^beta
    s_c = ((beta + 1.0) / (alpha + 1.0)) ** (1.0 / (alpha - beta))
    f_c = float(fn(np.asarray(s_c)))
    outer_increasing = alpha > beta  # outer pieces follow the larger exponent
    if outer_increasing:
        mid = MonotoneBranch(-s_c, s_c, False, f_c, -f_c)
        right = MonotoneBranch(s_c, math.inf, True, f_c, math.inf)
        left = MonotoneBranch(-math.inf, -s_c, True, -math.inf, -f_c)
    else:
        mid = MonotoneBranch(-s_c, s_c, True, -f_c, f_c)
        right = MonotoneBranch(s_c, math.inf, False, -math.inf, f_c)
        left = MonotoneBranch(-math.inf, -s_c, False, -f_c, math.inf)

    def piece_at(s: float) -> MonotoneBranch | None:
        if -s_c <= s <= s_c:
            return mid
        return right if s > s_c else left

    return PhiOperator(
        "difference",
        fn,
        odd=True,
        piece_at=piece_at,
        params=(("alpha", float(alpha)), ("beta", float(beta))),
    )


OPERATOR_CATALOG: dict[str, Callable[..., PhiOperator]] = {
    "r_laplacian": r_laplacian,
    "mean_curvature": mean_curvature,
    "relativistic": relativistic,
    "p_relativistic": p_relativistic,
    "perona_malik": perona_malik,
    "sine": sine,
    "difference": difference,
}


def make_operator(name: str, **params) -> PhiOperator:
    if name not in OPERATOR_CATALOG:
        known = ", ".join(sorted(OPERATOR_CATALOG))
        raise InvalidInputError(f"unknown operator {name!r}; catalog: {known}")
    return OPERATOR_CATALOG[name](**params)


# -- branch selection ---------------------------------------------------------


def _limit_at(phi: PhiOperator, s: float, toward: float) -> float:
    """Limit of Phi approaching s from the side of `toward`: infinite when
    the probes, each 100 to 1000 times nearer s, step by increments that
    keep their sign and do not shrink."""
    if math.isfinite(s):
        v = float(phi(s))
        if math.isfinite(v):
            return v
        seq = [s + math.copysign(d, toward - s) for d in (1e-6, 1e-9, 1e-12)]
    else:
        sign = 1.0 if s > 0 else -1.0
        seq = [sign * 1e4, sign * 1e6, sign * WORK_WINDOW]
    vals = [float(phi(t)) for t in seq]
    vals = [v for v in vals if math.isfinite(v)]
    if not vals:
        raise BranchNotFoundError(f"cannot estimate image endpoint near s={s!r}")
    if len(vals) == 3:
        before, last = vals[1] - vals[0], vals[2] - vals[1]
        if last != 0.0 and last * before > 0.0 and abs(last) >= abs(before):
            return math.copysign(math.inf, last)
    return vals[-1]


def _sample_window(phi: PhiOperator, a: float, b: float):
    # off both ends, by at least one float where the pad rounds away; a
    # window only a few floats wide has fewer distinct samples
    pad = (b - a) * 1e-9
    ss = np.unique(np.linspace(
        max(a + pad, np.nextafter(a, b)), min(b - pad, np.nextafter(b, a)), BRANCH_SAMPLES
    ))
    with np.errstate(all="ignore"):
        vv = np.asarray(phi.fn(ss), dtype=float)
    return ss, vv


def _monotone_direction(vv: np.ndarray) -> int | None:
    """+1 increasing, -1 decreasing, None otherwise: the samples are finite,
    their nonzero steps share one sign, and equal neighbours sit only at
    the window's ends, where floating point cannot resolve a turn or a
    tail that has underflowed."""
    if not np.all(np.isfinite(vv)):
        return None
    d = np.diff(vv)
    moving = np.flatnonzero(d)
    if moving.size == 0:
        return None
    d = d[moving[0]:moving[-1] + 1]
    if np.all(d > 0):
        return 1
    if np.all(d < 0):
        return -1
    return None


def _rise(phi: PhiOperator, s: float) -> float:
    """The central increment Phi(s + h) - Phi(s - h); h = TURN_STEP
    (relative beyond |s| = 1) balances its h^2 bias against rounding, and
    shrinks to keep s +- h inside the domain."""
    lo, hi = phi.domain
    h = min(TURN_STEP * max(1.0, abs(s)), 0.5 * (s - lo), 0.5 * (hi - s))
    return float(phi(s + h)) - float(phi(s - h))


def _branch_end(phi: PhiOperator, s_star: float, sign: float, end: float) -> float:
    """The end of the branch through s_star on the side of the domain end
    `end`, where Phi's increments have the sign `sign`.

    The window from s_star toward `end` doubles until sampling sees a turn
    or it reaches `end` clipped to |s| <= WORK_WINDOW, which gives `end`.
    A turn is located by bisection on the sign of _rise, between the last
    sample before the first step against `sign` and the sample after it.
    """
    out = math.copysign(1.0, end - s_star)
    edge = max(-WORK_WINDOW, min(end, WORK_WINDOW))
    # fewer than two floats between s_star and the edge show no step, so
    # nothing there can turn
    if float(np.nextafter(np.nextafter(s_star, edge), edge)) in (edge, s_star):
        return end
    radius = max(1e-3, 1e-3 * abs(s_star))
    while True:
        far = s_star + out * radius
        far = min(far, edge) if out > 0 else max(far, edge)
        ss, vv = _sample_window(phi, min(s_star, far), max(s_star, far))
        if _monotone_direction(vv) != sign:
            break
        if far == edge:
            return end
        radius *= 2.0
    if out < 0:
        ss, vv = ss[::-1], vv[::-1]
    # the first outward step that does not go with sign, zero or NaN too
    j = int(np.argmin(sign * out * np.diff(vv) > 0))
    inside, outside = (float(ss[j - 1]) if j else s_star), float(ss[j + 1])
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return inside
        if sign * _rise(phi, mid) > 0:
            inside = mid
        else:
            outside = mid


def _turns_at(phi: PhiOperator, end: float, toward: float, direction: int) -> bool:
    """Whether Phi goes against `direction` next to the finite end `end`
    of a window that reaches toward `toward`: find_branch's located-turn
    test, _rise, two of its steps inside the end, so that a turn located
    to rounding at the end itself passes.  Samples spread over a wide
    window miss a turn that close to an end.  Only a step against
    `direction` counts: a tail that saturates or underflows has equal
    neighbours, as _monotone_direction allows."""
    p = end + math.copysign(2.0 * TURN_STEP * max(1.0, abs(end)), toward - end)
    if not min(end, toward) < p < max(end, toward):
        return False
    return direction * _rise(phi, p) < 0.0


def find_branch(phi: PhiOperator, s_star: float) -> MonotoneBranch:
    """The strictly monotone branch of Phi that holds s_star.

    A catalog operator's piece metadata gives the branch.  Otherwise
    sampling only locates it, and hint_branch certifies it.  Each side
    grows on its own from s_star (_branch_end) and ends at a turn located
    to rounding, or at the domain's end when its window reached the edge
    of the domain clipped to |s| <= WORK_WINDOW.
    """
    dom_lo, dom_hi = phi.domain
    if not dom_lo < s_star < dom_hi:
        raise DomainError(f"slope {s_star!r} outside operator domain ({dom_lo}, {dom_hi})")

    if phi.piece_at is not None:
        piece = phi.piece_at(s_star)
        if piece is not None and piece.contains(s_star):
            return piece
        raise BranchNotFoundError(
            f"no strictly monotone piece has {s_star!r} in its interior"
        )

    rise = _rise(phi, s_star)
    if not (rise > 0.0 or rise < 0.0):
        raise BranchNotFoundError(f"Phi is locally flat at s={s_star!r}")
    sign = math.copysign(1.0, rise)
    lo = _branch_end(phi, s_star, sign, dom_lo)
    hi = _branch_end(phi, s_star, sign, dom_hi)
    if not lo < s_star < hi:
        raise BranchNotFoundError(
            f"no strictly monotone sampled run contains s={s_star!r}"
        )
    return hint_branch(phi, (lo, hi))


def hint_branch(phi: PhiOperator, hint: tuple[float, float]) -> MonotoneBranch:
    """Certify the hint interval itself as a strictly monotone branch.

    Monotonicity is validated by dense sampling on the hint and, next to
    each finite end, by the located-turn test (_turns_at); catalog piece
    metadata supplies exact images and inverses when the hint sits inside
    a known piece, and _limit_at every other image end.  Every error
    names the hint, never a slope.
    """
    dom_lo, dom_hi = phi.domain
    a, b = float(hint[0]), float(hint[1])
    if not a < b:
        raise InvalidInputError("branch hint must be a nonempty interval")
    if a < dom_lo or b > dom_hi:
        raise DomainError("branch hint leaves the operator domain")
    ss, vv = _sample_window(phi, max(a, -WORK_WINDOW), min(b, WORK_WINDOW))
    direction = _monotone_direction(vv)
    if direction is None or any(
        _turns_at(phi, end, toward, direction)
        for end, toward in ((a, b), (b, a))
        if math.isfinite(end)
    ):
        raise BranchNotFoundError(
            f"sampled monotonicity violation inside hint ({a}, {b})"
        )
    mid = 0.5 * (max(a, -WORK_WINDOW) + min(b, WORK_WINDOW))
    piece = phi.piece_at(mid) if phi.piece_at else None
    if piece is not None and a >= piece.lo - 1e-12 and b <= piece.hi + 1e-12:
        inc = piece.increasing
        img_a = piece.image_lo if inc else piece.image_hi
        img_b = piece.image_hi if inc else piece.image_lo
        if a > piece.lo + 1e-12:
            img_a = _limit_at(phi, a, b)
        if b < piece.hi - 1e-12:
            img_b = _limit_at(phi, b, a)
        lo_img, hi_img = sorted((img_a, img_b))
        return MonotoneBranch(a, b, inc, lo_img, hi_img, piece.inverse)
    img_a = _limit_at(phi, a, b)
    img_b = _limit_at(phi, b, a)
    lo_img, hi_img = sorted((img_a, img_b))
    return MonotoneBranch(a, b, direction > 0, lo_img, hi_img, None)


# -- branch-wise inversion ----------------------------------------------------


def _oriented(phi: PhiOperator, branch: MonotoneBranch):
    if branch.increasing:
        return (lambda s: phi(s)), 1.0
    return (lambda s: -phi(s)), -1.0


def _bracket_endpoint(f, lo, hi, target, side: str):
    """Move inward from an open endpoint until f is finite and brackets target."""
    base, other = (lo, hi) if side == "lo" else (hi, lo)
    for eps in (0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.4):
        s = base + (other - base) * eps
        v = float(f(s))
        if not math.isfinite(v):
            continue
        if side == "lo" and v <= target:
            return s, v
        if side == "hi" and v >= target:
            return s, v
    return None


def _check_in_image(branch: MonotoneBranch, y) -> None:
    arr = np.asarray(y, dtype=float)
    ok = (arr > branch.image_lo) & (arr < branch.image_hi)
    if not np.all(ok):
        bad = float(arr.reshape(-1)[int(np.argmax(~ok.reshape(-1)))])
        raise ImageDomainError(bad, branch.image_lo, branch.image_hi)


def bracketed_root(
    g: Callable,
    a,
    b,
    ga,
    gb,
    xtol: float = 0.0,
    ftol: float = 0.0,
    max_iter: int = INVERSE_MAX_ITER,
) -> np.ndarray:
    """Roots of increasing maps inside sign-changing brackets, vectorized.

    Element i starts from a[i] < b[i] with ga[i] <= 0 <= gb[i], the values
    of its map there; g(x, idx) evaluates the maps of the elements idx at
    the points x.  Each step evaluates g once, on the unfinished elements
    only, at the regula falsi point with the Illinois modification
    (Dowell & Jarratt, BIT 11, 1971): an end kept twice in a row has its
    value halved.  A bracket that has not halved within two steps is
    bisected instead.  As in Brent (1973, ch. 4), a trial point stays at
    least xtol/2 inside its bracket, so a root next to an end is closed
    in by a bracket of width xtol/2; a trial point that is not strictly
    inside its bracket is replaced by the midpoint.

    An element finishes when |g| <= ftol at an evaluated point (its
    bracket collapses onto that point), when its bracket is no wider than
    xtol, or when no float lies strictly inside it.  Returns the regula
    falsi point of each final bracket, in the order of a.
    """
    a, b, ga, gb = (np.array(v, dtype=float).reshape(-1) for v in (a, b, ga, gb))
    out = np.empty(a.size)
    pos = np.arange(a.size)  # where each unfinished element goes in out
    at_a = np.abs(ga) <= ftol
    b[at_a] = a[at_a]
    at_b = np.abs(gb) <= ftol
    a[at_b] = b[at_b]
    kept = np.zeros(a.size, dtype=np.int8)  # -1: a moved last, +1: b moved last
    w1 = np.full(a.size, np.inf)  # bracket widths one and two steps back
    w2 = np.full(a.size, np.inf)
    half = 0.5 * xtol
    for step in range(max_iter + 1):
        W = b - a
        M = 0.5 * (a + b)
        live = (W > xtol) & (a < M) & (M < b)
        if step == max_iter:
            live[:] = False
        if not live.all():
            end = ~live
            out[pos[end]] = _falsi_point(a[end], b[end], ga[end], gb[end])
            a, b, ga, gb, kept, w1, w2, pos, W, M = (
                v[live] for v in (a, b, ga, gb, kept, w1, w2, pos, W, M)
            )
            if not pos.size:
                break
        x = b - gb * (W / (gb - ga))
        stall = W > 0.5 * w2
        if stall.any():
            x = np.where(stall, M, x)
        if half:
            x = np.clip(x, a + half, b - half)
        # a point on an end of its bracket (regula falsi rounds onto an end
        # whose g is at rounding level) would only repeat an evaluation
        inside = (a < x) & (x < b)
        if not inside.all():
            x = np.where(inside, x, M)
        idx = slice(None) if pos.size == out.size else pos
        gx = np.asarray(g(x, idx), dtype=float).reshape(-1)
        low = gx < 0.0
        ga = np.where(low, gx, np.where(kept > 0, 0.5 * ga, ga))
        gb = np.where(low, np.where(kept < 0, 0.5 * gb, gb), gx)
        a = np.where(low, x, a)
        b = np.where(low, b, x)
        kept = np.where(low, -1, 1).astype(np.int8)
        w2, w1 = w1, W
        exact = np.abs(gx) <= ftol
        if exact.any():
            a[exact] = b[exact] = x[exact]
    return out


def _falsi_point(a, b, ga, gb):
    """Regula falsi point of brackets [a, b]; a itself where a == b."""
    with np.errstate(all="ignore"):
        # b - gb ((b - a) / (gb - ga)), in place
        est = np.subtract(b, a)
        est /= np.subtract(gb, ga)
        est *= gb
        np.subtract(b, est, out=est)
    np.copyto(est, a, where=~((a <= est) & (est <= b)))
    return est


@dataclass(eq=False)
class InverseStart:
    """Where the generic inversions of one sequence of nearby targets start.

    Per element: an anchor on the branch, Phi at the anchor as evaluated,
    and Phi's slope there.  Empty until partial_inverse_array seeds it
    from a table: each anchor at its cell's regula falsi point, with the
    cell's slope.  Each call refreshes it in place.  Only estimates are
    taken from it, never a sign, so a record that fits the targets badly
    costs a second step or a closed table cell, not a wrong bracket.
    """

    s: np.ndarray | None = None
    phi: np.ndarray | None = None
    slope: np.ndarray | None = None


def partial_inverse(phi: PhiOperator, branch: MonotoneBranch, y: float) -> float:
    """Solve Phi(s) = y for s on the branch; y must lie strictly inside the image."""
    return float(partial_inverse_array(phi, branch, np.asarray([y], dtype=float))[0])


def _table(f, a: float, b: float):
    """INVERSE_TABLE_SIZE samples of the increasing f on [a, b], ends included.

    Spacing is geometric while the ends differ by more than a factor of
    four; the running maximum of the values keeps searches sorted where
    rounding makes a flat Phi wobble.
    """
    if a * b > 0.0 and max(abs(a), abs(b)) > 4.0 * min(abs(a), abs(b)):
        nodes = np.geomspace(a, b, INVERSE_TABLE_SIZE)
    else:
        nodes = np.linspace(a, b, INVERSE_TABLE_SIZE)
    nodes[0], nodes[-1] = a, b
    vals = np.asarray(f(nodes), dtype=float)
    return nodes, vals, np.maximum.accumulate(vals)


def _cell(mono: np.ndarray, t):
    """Index j of the table cell with vals[j] <= t <= vals[j + 1].

    Needs vals[0] <= t <= vals[-1].  vals[j] <= mono[j] <= t, and where
    mono first exceeds t it equals vals, so the cell changes sign.
    """
    return np.clip(np.searchsorted(mono, t, side="right") - 1, 0, mono.size - 2)


def _zoomed_table(phi: PhiOperator, branch: MonotoneBranch, window, y: np.ndarray):
    """The table of the oriented Phi that gives each target of y its own
    cell: it zooms onto [s(min y), s(max y)] until the targets spread
    over half the table's cells, or the range is resolved."""
    f, orient = _oriented(phi, branch)
    lo, hi = window
    t_lo, t_hi = sorted((orient * float(np.min(y)), orient * float(np.max(y))))
    below = _bracket_endpoint(f, lo, hi, t_lo, "lo")
    above = _bracket_endpoint(f, lo, hi, t_hi, "hi")
    if below is None or above is None:
        raise ImageDomainError(
            float(y[0]), branch.image_lo, branch.image_hi,
            "no bisection bracket inside the working window",
        )
    a, b = below[0], above[0]
    for _ in range(INVERSE_MAX_ITER):
        nodes, vals, mono = _table(f, a, b)
        j_lo = int(_cell(mono, t_lo))
        j_hi = int(_cell(mono, t_hi)) + 1
        a2, b2 = float(nodes[j_lo]), float(nodes[j_hi])
        if 2 * (j_hi - j_lo) > nodes.size or b2 - a2 <= BISECT_TOL or b2 - a2 >= b - a:
            break
        a, b = a2, b2
    return nodes, vals, mono


def _cells(table, ty: np.ndarray):
    """Each oriented target's table cell: its index j, its ends a < b and
    the oriented Phi - ty there, ga <= 0 <= gb."""
    nodes, vals, mono = table
    j = _cell(mono, ty)
    return j, nodes[j], nodes[j + 1], vals[j] - ty, vals[j + 1] - ty


def partial_inverse_array(
    phi: PhiOperator,
    branch: MonotoneBranch,
    y: np.ndarray,
    start: InverseStart | None = None,
) -> np.ndarray:
    """Branch-wise inversion of Phi, elementwise over y.

    A closed-form inverse is used when the branch carries one, and
    `start` is left as it is.  Otherwise each result is the regula falsi
    point of a certified bracket: Phi - y changes sign across it and it
    is no wider than BISECT_TOL (or its ends are adjacent floats), or
    Phi(s) = y holds exactly.

    Every element steps from its anchor in `start` (see InverseStart).
    A `start` that is missing, empty or of another size is seeded first:
    a scalar search zooms a table of INVERSE_TABLE_SIZE samples onto the
    solutions of min y and max y, and each element is anchored at the
    regula falsi point of its table cell, with Phi there (one vector
    evaluation) and the cell's slope.  The step: a Newton step from the
    anchor, Phi there, and a secant step through the anchor give the
    estimate; Phi at max(BISECT_TOL/4, one ulp) on each side of it
    closes the bracket where both sides have the right sign.  That is
    three vector evaluations of Phi, and the step refreshes the record.
    The elements whose two sides do not change sign take the step once
    more, from their refreshed anchors.  bracketed_root closes what is
    still open inside its table cell (a call that was not seeded zooms a
    table onto those targets only), INVERSE_BLOCK elements at a time, so
    that a call holds about a dozen arrays of the input's size.
    """
    y = np.asarray(y, dtype=float)
    _check_in_image(branch, y)
    if branch.inverse is not None:
        s = np.asarray(branch.inverse(y), dtype=float)
        return np.clip(s, branch.lo, branch.hi)
    flat = y.reshape(-1)
    window = (max(branch.lo, -WORK_WINDOW), min(branch.hi, WORK_WINDOW))
    orient = 1.0 if branch.increasing else -1.0
    if start is None:
        start = InverseStart()
    table = None
    if start.s is None or start.s.size != flat.size:
        table = _zoomed_table(phi, branch, window, flat)
        j, *cell = _cells(table, flat if orient > 0 else -flat)
        start.s = _falsi_point(*cell)
        del cell
        start.phi = np.asarray(phi(start.s), dtype=float)
        nodes, vals, _ = table
        with np.errstate(all="ignore"):
            start.slope = (orient * np.diff(vals) / np.diff(nodes))[j]
        del j
    s, missed = _warm_inverse(phi, branch, window, flat, start)
    if missed.size:
        part, still = _warm_inverse(phi, branch, window, flat, start, missed)
        s[missed] = part
        missed = still
    if missed.size:
        ty = orient * flat[missed]
        if table is None:
            table = _zoomed_table(phi, branch, window, flat[missed])
        _, *cell = _cells(table, ty)
        part = _falsi_point(*cell)
        _close_open(_oriented(phi, branch)[0], ty, part, *cell)
        s[missed] = part
    return s.reshape(y.shape)


def _half_width(x: np.ndarray) -> np.ndarray:
    """max(BISECT_TOL/4, one ulp of x): how far each side of an estimate x
    lies from it when it is certified."""
    d = np.spacing(np.abs(x))
    np.maximum(d, 0.25 * BISECT_TOL, out=d)
    return d


def _close_open(f, ty, s, a, b, ga, gb) -> None:
    """bracketed_root on the brackets wider than BISECT_TOL, INVERSE_BLOCK
    elements at a time so that its work arrays stay small; their results
    go to s."""
    rest = np.flatnonzero(b - a > BISECT_TOL)
    for first in range(0, rest.size, INVERSE_BLOCK):
        k = rest[first : first + INVERSE_BLOCK]
        s[k] = bracketed_root(
            lambda x, idx, t=ty[k]: np.asarray(f(x), dtype=float) - t[idx],
            a[k], b[k], ga[k], gb[k], BISECT_TOL,
        )


def _warm_inverse(
    phi: PhiOperator,
    branch: MonotoneBranch,
    window: tuple[float, float],
    y: np.ndarray,
    start: InverseStart,
    k: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of partial_inverse_array from the record, on the elements
    k of the flat targets y (all of them when k is None).

    Returns the results of those elements and the indices, into y, of
    the ones that missed: the sides of their estimate do not change
    sign, and their results are not set.  The record is refreshed in
    place: each anchor moves to the low side of its estimate, with Phi
    there, and each slope to the secant through the old anchor where the
    two points lie far enough apart for rounding to leave the secant
    accurate.  The elements k are read from the record where they are
    used, and never copied out of it whole.
    """
    lo, hi = window
    at = slice(None) if k is None else k
    s0, p0, m0 = start.s, start.phi, start.slope
    reach = SECANT_REACH * (1.0 + max(float(np.max(s0)), -float(np.min(s0))))
    yk = y[at]
    with np.errstate(all="ignore"):
        # Newton from the anchor, then Phi at that point
        x = np.subtract(yk, p0[at])
        x /= m0[at]
        x += s0[at]
        np.clip(x, lo, hi, out=x)
        fx = phi(x)
        g = np.subtract(fx, yk)
        sec = np.subtract(fx, p0[at])
        del fx
        dx = np.subtract(x, s0[at])
        sec /= dx
        # a secant of the wrong sign (or none, where the two points
        # coincide) leaves a Newton step with the anchor's slope
        fits = sec > 0.0 if branch.increasing else sec < 0.0
        keep = np.abs(dx, out=dx) > reach
        keep &= fits
        del dx
        m = m0[at]
        np.copyto(sec, m, where=~fits)
        np.copyto(m, sec, where=keep)
        if k is not None:
            m0[k] = m
        g /= sec
        x -= g
        del g, sec, fits, keep, m
        # certify: Phi on each side of the estimate, clamped to the
        # window; the low side a is the next anchor, and x moves to the
        # high side
        d = _half_width(x)
        a = s0[at]
        np.subtract(x, d, out=a)
        np.clip(a, lo, hi, out=a)
        x += d
        np.clip(x, lo, hi, out=x)
        del d
        if k is not None:
            s0[k] = a
        p0[at] = phi(a)
        g_hi = np.subtract(phi(x), yk)
        g_lo = np.subtract(p0[at], yk)
    if not branch.increasing:
        np.negative(g_lo, out=g_lo)
        np.negative(g_hi, out=g_hi)
    hit = (g_lo <= 0.0) & (g_hi >= 0.0)
    s = _falsi_point(a, x, g_lo, g_hi)
    # beyond |s| = 256 brackets two ulps wide exceed BISECT_TOL and close
    # in bracketed_root; the missed brackets, which do not change sign,
    # collapse first
    np.copyto(x, a, where=~hit)
    f, orient = _oriented(phi, branch)
    _close_open(f, yk if orient > 0 else -yk, s, a, x, g_lo, g_hi)
    missed = np.flatnonzero(~hit)
    return s, (missed if k is None else k[missed])
