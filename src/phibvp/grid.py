"""Meshes, nodal samples, the cell quadrature, and discrete norms on [0, T].

The quadrature rule is composite trapezoid, written once, in
cell_integrals.  Meshes may flag singular nodes (points where an
integrand such as 1/k blows up).  Every nodal array holds the
placeholder 0 at a singular node (sample_nodes), and no integral or norm
reads it: the cells that touch a singular node are integrated with the
midpoint rule instead, so the integrand is never sampled at the singular
point itself.  Only the data functions 1/k and psi are sampled at those
midpoints (sample_midpoints); every other nodal array, f and whatever
depends on the iterate, takes its finite endpoint's value there
(midvalues).

Graded meshes crowd their nodes toward each singular point p by the power
map u -> u^q, q = GRADING_EXPONENT.  If 1/k ~ |t - p|^-a, the midpoint
cell next to p has width about h^q and adds an error of about
h^(q (1 - a)), so second order needs q >= 2 / (1 - a).  q = 4 serves
a = 1/2, the `sqrt_t` weight; a library weight with a larger exponent a
needs a larger q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError

GRADING_EXPONENT = 4.0


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("expected a one-dimensional array")
    return arr


@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition 0 = t_0 < t_1 < ... < t_n = T.

    singular_indices lists the nodes where an integrand is allowed to be
    undefined; the cells touching them use the midpoint rule (mid_cells),
    every other cell the trapezoid rule.
    """

    nodes: np.ndarray
    singular_indices: tuple[int, ...] = ()

    def __post_init__(self):
        nodes = _as_float_array(self.nodes)
        if nodes.size < 3:
            raise InvalidInputError("mesh needs at least 2 cells")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("mesh nodes must be finite")
        if nodes[0] != 0.0:
            raise InvalidInputError("mesh must start at t = 0")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidInputError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        for i in self.singular_indices:
            if not 0 <= i < nodes.size:
                raise InvalidInputError(f"singular index {i} out of range")

    # -- construction ------------------------------------------------------

    @staticmethod
    def uniform(T: float, n: int) -> "Mesh":
        if not (T > 0 and math.isfinite(T)):
            raise InvalidInputError("T must be positive and finite")
        if n < 2:
            raise InvalidInputError("need at least 2 cells")
        nodes = np.linspace(0.0, T, n + 1)
        nodes[0], nodes[-1] = 0.0, T
        return Mesh(nodes)

    @staticmethod
    def graded(T: float, n: int, singular_points: Sequence[float]) -> "Mesh":
        """n cells, crowded toward each singular point by u -> u^q.

        [0, T] is cut at the singular points.  Each piece gets one cell
        plus its share, by length, of the rest, and its nodes follow the
        power map, q = GRADING_EXPONENT, from each singular end; a piece
        with two singular ends grades each half toward its own end.  An
        end's q is lowered where its innermost cell would span fewer than
        64 ulps of the point, as at an interior point or T with n ~ 1e5.
        """
        if not (T > 0 and math.isfinite(T)):
            raise InvalidInputError("T must be positive and finite")
        points = sorted(set(float(p) for p in singular_points))
        if not points:
            return Mesh.uniform(T, n)
        for p in points:
            if not 0.0 <= p <= T:
                raise InvalidInputError(f"singular point {p} outside [0, T]")
        cuts = np.array(sorted({0.0, float(T), *points}))
        pieces = cuts.size - 1
        if n < max(2, pieces):
            raise InvalidInputError(f"mesh with {n} cells is too coarse for {pieces} pieces")
        edges = np.arange(pieces + 1) + np.round((n - pieces) * cuts / T).astype(int)
        nodes = np.empty(n + 1)
        for a, b, i, j in zip(cuts[:-1], cuts[1:], edges[:-1], edges[1:]):
            piece = _power_nodes(a, b, int(j - i), a in points, b in points)
            nodes[i : j + 1] = piece
            # the midpoint rule samples the cells at the cuts strictly inside
            ends = 0.5 * (piece[[0, -2]] + piece[[1, -1]])
            if np.any(np.diff(piece) <= 0.0) or not a < ends[0] <= ends[1] < b:
                raise InvalidInputError(
                    f"points {float(a)!r} and {float(b)!r} lie too close "
                    f"together for a graded mesh of {n} cells"
                )
        sing = tuple(int(i) for i, c in zip(edges, cuts) if c in points)
        return Mesh(nodes, singular_indices=sing)

    def refine(self, factor: int) -> "Mesh":
        """Split every cell into `factor` equal subcells, keeping the flags."""
        if factor < 1:
            raise InvalidInputError("refinement factor must be >= 1")
        if factor == 1:
            return self
        steps = np.arange(factor) / factor
        sub = self.nodes[:-1, None] + self.widths[:, None] * steps[None, :]
        nodes = np.append(sub.reshape(-1), self.nodes[-1])
        return Mesh(nodes, singular_indices=tuple(i * factor for i in self.singular_indices))

    # -- geometry ----------------------------------------------------------
    # cached read-only arrays: the solver asks for them on every sweep

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @cached_property
    def widths(self) -> np.ndarray:
        return _read_only(np.diff(self.nodes))

    @cached_property
    def midpoints(self) -> np.ndarray:
        return _read_only(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @cached_property
    def mid_cells(self) -> np.ndarray:
        """Indices of the midpoint-rule cells: those touching a singular node."""
        sing = self._singular_mask
        return _read_only(np.nonzero(sing[:-1] | sing[1:])[0])

    @cached_property
    def _singular_mask(self) -> np.ndarray:
        mask = np.zeros(self.nodes.size, dtype=bool)
        mask[list(self.singular_indices)] = True
        return _read_only(mask)

    def singular_mask(self) -> np.ndarray:
        return self._singular_mask


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _power_nodes(a: float, b: float, m: int, grade_a: bool, grade_b: bool) -> np.ndarray:
    """m + 1 nodes from a to b, crowded toward each graded end by u -> u^q.

    Nodes up to `split` are measured from a, the rest from b.
    """
    split = m / 2 if grade_a and grade_b else (m if grade_a else 0)
    i = np.arange(m + 1)
    out = np.empty(m + 1)
    from_a = i <= split
    for end, cells, sel, steps, sign in (
        (a, split, from_a, i, 1.0),
        (b, m - split, ~from_a, m - i, -1.0),
    ):
        if cells > 0:
            span = (b - a) * cells / m
            q = GRADING_EXPONENT
            if cells > 1:
                # the cell next to the end spans span / cells^q: keep it at
                # least 64 ulps of the end, or the nodes there collapse
                room = (math.log(span) - math.log(64.0 * math.ulp(end))) / math.log(cells)
                q = max(1.0, min(q, room))
            out[sel] = end + sign * span * (steps[sel] / cells) ** q
    out[0], out[-1] = a, b
    return out


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values on a mesh: the column type of the solve reports.

    Everything below `solve` runs on plain node arrays of the problem's
    one mesh; a report's x, x' and u carry their mesh with them, so that
    a half-line schedule can compare solutions on different meshes.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.values)
        if vals.shape != self.mesh.nodes.shape:
            raise InvalidInputError("values length must equal node count")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("grid function values must be finite")
        object.__setattr__(self, "values", vals)


def sample_nodes(mesh: Mesh, fn: Callable) -> np.ndarray:
    """fn at the nodes, where it must be finite; flagged singular nodes
    get the placeholder 0 instead."""
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(mesh.nodes), dtype=float)
    if vals.shape == ():
        vals = np.full(mesh.nodes.shape, float(vals))
    vals = np.where(mesh.singular_mask(), 0.0, vals)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise InvalidInputError(
            f"callable produced non-finite value at node {bad} (t={float(mesh.nodes[bad])!r})"
        )
    return vals


def sample_midpoints(mesh: Mesh, fn: Callable) -> np.ndarray:
    """fn at the midpoints of mesh.mid_cells, where it must be finite."""
    cells = mesh.mid_cells
    if not cells.size:
        return np.empty(0)
    with np.errstate(all="ignore"):
        mids = np.asarray(fn(mesh.midpoints[cells]), dtype=float)
    if mids.shape == ():
        mids = np.full(cells.shape, float(mids))
    if not np.all(np.isfinite(mids)):
        bad = int(np.argmax(~np.isfinite(mids)))
        raise InvalidInputError(
            "callable produced non-finite midpoint value near "
            f"t={float(mesh.midpoints[cells[bad]])!r}"
        )
    return mids


def midvalues(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Stand-ins for nodal values at the midpoints of mesh.mid_cells: the
    finite endpoint's value, or the left placeholder on a cell with two
    singular ends."""
    cells = mesh.mid_cells
    if not cells.size:
        return np.empty(0)
    return np.where(mesh.singular_mask()[cells + 1], values[cells], values[cells + 1])


def cell_integrals(
    mesh: Mesh, values: np.ndarray, mid_values: np.ndarray | None = None
) -> np.ndarray:
    """Each cell's integral of nodal `values`, and of `mid_values` at the
    midpoints of `mesh.mid_cells` (by default the endpoint stand-ins of
    midvalues): its trapezoid, or its width times its midpoint value on
    the midpoint-rule cells.

    This is the one cell quadrature: running integrals, masses, norms and
    the per-cell defects all add or compare these.
    """
    if mid_values is None:
        mid_values = midvalues(mesh, values)
    h, cells = mesh.widths, mesh.mid_cells
    # in place: halving is exact, so this rounds as 0.5 * h * (...) does,
    # without the temporaries
    c = values[:-1] + values[1:]
    c *= h
    c *= 0.5
    if cells.size:
        c[cells] = h[cells] * mid_values
    return c


def cumulative_integral(
    mesh: Mesh, values: np.ndarray, mid_values: np.ndarray | None = None
) -> np.ndarray:
    """Running integral at the nodes, 0 at t = 0: the running sum of
    cell_integrals(mesh, values, mid_values)."""
    contrib = cell_integrals(mesh, values, mid_values)
    out = np.empty(values.size)
    out[0] = 0.0
    np.cumsum(contrib, out=out[1:])
    return out


def lp_norm(
    mesh: Mesh, values: np.ndarray, p: float, mid_values: np.ndarray | None = None
) -> float:
    """L^p norm, p >= 1, via the mesh quadrature, or the nodal sup for p = inf.

    |v|^p must be finite at every node.  Flagged singular nodes never
    contribute: the sup skips them and the quadrature cells around them
    take the finite endpoint's value, or mid_values, when given: samples
    at the midpoints of mesh.mid_cells (as from sample_midpoints).
    """
    if not (p >= 1.0):
        raise InvalidInputError("norm exponent must satisfy p >= 1")
    if math.isinf(p):
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("grid function values must be finite")
        return float(np.max(np.abs(values[~mesh.singular_mask()]), initial=0.0))
    with np.errstate(over="ignore"):
        powered = np.abs(values) ** p
        mids = midvalues(mesh, powered) if mid_values is None else np.abs(mid_values) ** p
    if not (np.all(np.isfinite(powered)) and np.all(np.isfinite(mids))):
        raise InvalidInputError("grid function values must be finite")
    total = float(cumulative_integral(mesh, powered, mids)[-1])
    return float(total ** (1.0 / p))


# Numeric half-line integrals stop here; the last decade is reported as a
# truncation proxy so callers can tell a vanishing tail from a fat one.
TAIL_CUTOFF = 1.0e6


def halfline_integral(fn: Callable) -> tuple[float, float]:
    """Integral of fn over [0, TAIL_CUTOFF] plus the mass of the last decade.

    Linear nodes cover [0, 1]; geometric nodes cover [1, TAIL_CUTOFF].
    Values that evaluate non-finite (isolated singularities) are dropped
    from the quadrature, so use exact antiderivatives where accuracy
    matters.
    """
    head = np.linspace(0.0, 1.0, 2001)
    tail = np.geomspace(1.0, TAIL_CUTOFF, 12001)[1:]
    mesh = Mesh(np.concatenate([head, tail]))
    with np.errstate(all="ignore"):
        v = np.asarray(fn(mesh.nodes), dtype=float)
    v = np.where(np.isfinite(v), v, 0.0)
    seg = cell_integrals(mesh, v)
    total = float(np.sum(seg))
    tail_mass = float(np.sum(seg[mesh.nodes[:-1] >= TAIL_CUTOFF / 10.0]))
    return total, tail_mass


def difference_residual(mesh: Mesh, u: np.ndarray, rhs: np.ndarray) -> float:
    """Max per-cell defect, in u units, of u against the trapezoid of rhs:
    max_j |u_{j+1} - u_j - h_j (rhs_j + rhs_{j+1}) / 2|.

    Cells touching a flagged singular node are skipped (the data there is
    a placeholder by convention); a non-finite u gives a non-finite
    residual."""
    defect = np.diff(u)
    defect -= cell_integrals(mesh, rhs)
    np.abs(defect, out=defect)
    singular = mesh.singular_mask()
    keep = ~(singular[:-1] | singular[1:])
    if not np.any(keep):
        raise InvalidInputError("no admissible cells for the residual")
    return float(np.max(defect[keep]))
