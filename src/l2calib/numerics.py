"""Quadrature, box-constrained minimization and finite differences.

Shared numerical machinery for the calibrators: tensor-product
Gauss-Legendre rules over rectangular domains, the unit-weight rule at
a design, a deterministic grid-scan-plus-refinement minimizer, and
central-difference derivatives from one batched stencil.  Refinement is
one loop for every q, batched zoom rounds ended by one confirmed Newton
step, so an objective sees a few large batches, not many single rows.

Objectives passed to :func:`scan` and :func:`minimize` are batched: they
take a ``(k, q)`` array of parameter vectors and return ``(k,)`` values.
A non-finite value counts as ``+inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

Objective = Callable[[np.ndarray], np.ndarray]  # (k, q) -> (k,)

# Largest tensor grid a scan may build: the default 401 points per axis
# at q = 2.
MAX_GRID_POINTS = 401 ** 2
# Most Gauss-Legendre nodes per dimension: leggauss eigendecomposes an m x m
# matrix, which takes 0.2 s at m = 1,024 and fills 7 GB near m = 30,000.
MAX_QUADRATURE_NODES = 1024
# Most design points: the phi sweep's n x n arrays (distances, Gram, eigh) take 134 MB each.
MAX_DESIGN_POINTS = 4096
# Most parameter vectors one objective call receives during a grid scan.
SCAN_BLOCK_ROWS = 401
# Most interior points a coordinate of a zoom round's lattice has.  Odd, so
# the middle point is the previous best; the box shrinks 8x a round.
REFINE_POINTS = 15
# Box width at which zoom rounds hand over to one Newton step (three rounds
# from the default grid's bracket on [-2, 2]), and the curvature error the
# stencil at the step may show, relative to the model's.
PARABOLA_BRACKET = 1e-4
PARABOLA_AGREEMENT = 0.1


class FitError(ValueError):
    """The one class for a numerical outcome; invalid input is a plain ``ValueError``."""


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.  Nothing calls it;
    ROADMAP item 1 drops it with perfbench's patch of its ``calibrate`` re-export."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def as_points(x, d: int | None = None) -> np.ndarray:
    """Coerce ``x`` to an ``(n, d)`` float array.

    One-dimensional input is treated as n points in R^1.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2:
        raise ValueError(f"points must be at most 2-d, got shape {pts.shape}")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"expected points in R^{d}, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``[lower_1, upper_1] x ... x [lower_d, upper_d]``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have the same length")
        if not all(np.isfinite(lo)) or not all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"need lower < upper in every coordinate, got {lo} / {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def on_boundary(self, x) -> bool:
        """True when some coordinate of ``x`` is within 1e-12 of a face."""
        return any(min(abs(v - a), abs(v - b)) <= 1e-12
                   for v, a, b in zip(np.ravel(x).tolist(), self.lower, self.upper))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights pair; weights sum to the volume of the source box."""

    nodes: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("nodes must be (n, d), weights (n,)")
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights length mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    """:func:`minimize`'s grid points per axis, stopping box width and call cap."""

    grid_points: int = 401
    tolerance: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self):
        if not 3 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"need 3 to {MAX_GRID_POINTS} grid points, got {self.grid_points}")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    iterations: int
    on_boundary: bool = False


def gauss_legendre(domain: BoxDomain, m: int) -> QuadratureRule:
    """Tensor-product Gauss-Legendre rule with ``m`` nodes per dimension.

    Exact for polynomials of coordinate degree up to ``2m - 1``.
    """
    if not 1 <= m <= MAX_QUADRATURE_NODES:
        raise ValueError(f"need 1 to {MAX_QUADRATURE_NODES} nodes per dimension, got {m}")
    xi, wi = leggauss(m)
    axes, wts = [], []
    for lo, hi in zip(domain.lower, domain.upper):
        half = 0.5 * (hi - lo)
        axes.append(half * xi + 0.5 * (hi + lo))
        wts.append(half * wi)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = wts[0]
    for w in wts[1:]:
        weights = np.multiply.outer(weights, w)
    return QuadratureRule(nodes=nodes, weights=np.asarray(weights).ravel())


def design_rule(points) -> QuadratureRule:
    """Unit weights at the design points: rule means become sample means."""
    pts = as_points(points)
    return QuadratureRule(nodes=pts, weights=np.ones(pts.shape[0]))


def tensor_grid(box: BoxDomain, per_axis: int) -> np.ndarray:
    """Row-major tensor grid over ``box``, ``per_axis`` points per
    coordinate with endpoints included, shape ``(per_axis**q, q)``.

    Raises ``ValueError`` before building a grid of more than
    ``MAX_GRID_POINTS`` points.
    """
    q, total = box.dim, per_axis ** box.dim
    if total > MAX_GRID_POINTS:
        raise ValueError(f"a tensor grid over q={q} parameters with {per_axis} points per "
                         f"axis has {total} points; the cap is {MAX_GRID_POINTS}")
    grid = np.empty((per_axis,) * q + (q,))
    for j, (lo, hi) in enumerate(zip(box.lower, box.upper)):
        grid[..., j] = np.linspace(lo, hi, per_axis).reshape((-1,) + (1,) * (q - 1 - j))
    return grid.reshape(-1, q)


def _evaluate(objective: Objective, thetas: np.ndarray) -> np.ndarray:
    """Objective values at the rows of ``thetas``, non-finite ones as ``+inf``;
    numpy's overflow and invalid-value warnings on the way are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(objective(thetas), dtype=float)
    if vals.shape != (thetas.shape[0],):
        raise ValueError(f"objective returned shape {vals.shape} for "
                         f"{thetas.shape[0]} parameter vectors")
    return np.where(np.isfinite(vals), vals, np.inf)


def scan(objective: Objective, thetas: np.ndarray) -> np.ndarray:
    """Values of ``objective`` at each row of the ``(k, q)`` ``thetas``,
    evaluated in blocks of at most ``SCAN_BLOCK_ROWS`` rows."""
    return np.concatenate([_evaluate(objective, thetas[i:i + SCAN_BLOCK_ROWS])
                           for i in range(0, len(thetas), SCAN_BLOCK_ROWS)])


def minimize(objective: Objective, box: BoxDomain,
             config: OptimizerConfig = OptimizerConfig(),
             coarse: np.ndarray | None = None) -> MinimizeResult:
    """Minimize a batched objective over a box: grid scan, then refinement.

    :func:`scan` evaluates the ``grid_points``-per-axis :func:`tensor_grid`,
    unless the caller passes the objective's values there as ``coarse``
    (same rules, same result bit for bit).  Refinement, one loop for every
    q, starts from the box spanned by the best grid point's neighbours.
    Zoom rounds, one batch each (p = 15 at q = 1 and 2, 5 at q = 3), narrow
    it to the best point's neighbours, or move and widen it (:func:`_recentred`)
    around a better point on a face and while such moves improve, as a pattern
    search does (Torczon, SIAM J. Optim. 7, 1997).  A ``PARABOLA_BRACKET`` box
    gets one :func:`_newton_step`, which may end the loop; else rounds go on to
    a ``tolerance`` box.  The result is the step's point or the last round's
    best, or the grid best where lower; ``iterations`` counts rounds and step."""
    q = box.dim
    pts = tensor_grid(box, config.grid_points)
    vals = scan(objective, pts) if coarse is None else _evaluate(lambda _: coarse, pts)
    if not np.any(np.isfinite(vals)):
        raise FitError("objective is non-finite on the whole coarse grid")
    best = int(np.argmin(vals))

    # a round's batch: p + 2 points a coordinate less the 2^q corners, p odd
    p = max([3] + [k for k in range(3, REFINE_POINTS + 1, 2)
                   if (k + 2) ** q - 2 ** q <= SCAN_BLOCK_ROWS])
    index = np.indices((p + 2,) * q).reshape(q, -1).T
    ends = index % (p + 1) == 0  # where a lattice point is on a face of the box
    corner, fresh = ends.all(axis=1), np.flatnonzero(~ends.all(axis=1))
    lo, hi, near = _neighbourhood(pts, vals.reshape((config.grid_points,) * q),
                                  np.unravel_index(best, (config.grid_points,) * q))
    xs, fs, it, tried, moved = pts[best], float(vals[best]), 0, False, False
    while (width := (hi - lo).max()) > config.tolerance and it < config.max_iterations:
        it += 1
        if width <= PARABOLA_BRACKET and not tried:
            tried, step = True, _newton_step(objective, lo, xs, hi, near, config.tolerance)
            if step is not None:
                xs, fs = step
                break
            continue
        # np.linspace(lo_j, hi_j, p + 2) in each coordinate, to the bit
        grid = np.where(index == p + 1, hi, lo + index * ((hi - lo) / (p + 1)))
        values = np.empty(len(grid))
        values[corner] = near[tuple(slice(None, None, m - 1) for m in near.shape)].ravel()
        values[fresh] = scanned = scan(objective, grid[fresh])
        k = int(fresh[np.argmin(scanned)])
        moved = values[k] < fs and (moved or ends[k].any()) and _recentred(box, lo, hi, grid[k], p)
        lo, hi, near = moved or _neighbourhood(grid, values.reshape((p + 2,) * q),
                                               index[k].tolist())
        xs, fs = grid[k], float(values[k])
    if vals[best] < fs:
        xs, fs, it = pts[best], float(vals[best]), 0

    return MinimizeResult(np.asarray(xs, dtype=float), float(fs), it, box.on_boundary(xs))


def _recentred(box: BoxDomain, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, p: int):
    """``(lo, hi, near)``, corners unknown, of a box twice as wide as ``[lo, hi]`` where ``box``
    has room, its lattice point ``x`` near the centre; None unless it passes ``x``'s faces."""
    up, down, s = box.upper - x, x - box.lower, (hi - lo) / (p + 1)
    at, face = np.rint((x - lo) / s), (x == lo) | (x == hi)
    s = np.where(np.floor(down / (2 * s)) + np.floor(up / (2 * s)) >= p + 1, 2 * s, s)
    below = np.clip((p + 1) // 2, p + 1 - np.floor(up / s), np.floor(down / s))  # steps below x
    return (None if face.any() and np.all((below == at)[face]) else
            (np.maximum(x - below * s, box.lower), np.minimum(x + (p + 1 - below) * s, box.upper),
             np.full((2,) * x.size, np.inf)))


def _neighbourhood(grid: np.ndarray, values: np.ndarray, at) -> tuple:
    """``(lo, hi, near)``: the box spanned by a lattice point's neighbours, and their values."""
    near = tuple(slice(max(i - 1, 0), i + 2) for i in at)
    box = grid.reshape(values.shape + grid.shape[1:])[near]
    return box[(0,) * len(at)], box[(-1,) * len(at)], values[near]


def _newton_step(objective: Objective, lo: np.ndarray, x: np.ndarray, hi: np.ndarray,
                 near: np.ndarray, tolerance: float) -> tuple[np.ndarray, float] | None:
    """``(v, f(v))`` for the Newton step v from the lattice point ``x``, or
    None unless confirmed.  The model's g and H are the :func:`fd_derivatives`
    formula on the values ``near`` of x's ``3^q`` neighbours, which span
    ``[lo, hi]``; x must be their lowest and H positive definite.  One call
    of the stencil at v (clipped to the box's middle half, steps a sixteenth
    of the box) confirms v: its Hessian within ``PARABOLA_AGREEMENT`` times
    H's least eigenvalue (Frobenius norm) of H, its own Newton step within
    ``tolerance``; Brent's safeguard (1973, ch. 5) on a quadratic model."""
    q = near.ndim
    if near.shape != (3,) * q or near.min() < near[(1,) * q]:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails a check below
        # x lowest on each axis line bounds |g_j| by H_jj (hi_j - lo_j) / 4
        _, g, H = fd_derivatives(lambda _: near[tuple(_stencil(q).T + 1)], x, 0.5 * (hi - lo))
        if not np.isfinite(H).all():
            return None
        w, V = np.linalg.eigh(H)
        if not w[0] > 0.0:
            return None
        quarter = 0.25 * (hi - lo)
        v = np.minimum(np.maximum(x - V @ (V.T @ g / w), lo + quarter), hi - quarter)
        f_v, G_v, H_v = fd_derivatives(lambda t: _evaluate(objective, t), v, 0.0625 * (hi - lo))
        # a non-finite stencil value makes H_v or G_v non-finite, and fails
        confirmed = (np.linalg.norm(H_v - H) <= PARABOLA_AGREEMENT * w[0]
                     and np.abs(np.linalg.solve(H_v, G_v)).max() <= tolerance)
    return (v, float(f_v)) if confirmed else None


def fd_step(x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per-coordinate central-difference step: ``max(h, h * |x_j|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.maximum(h, h * np.abs(x))


@lru_cache
def _stencil(q: int) -> np.ndarray:
    """Read-only row offsets, in steps: ``0``, ``+-e_i``, ``+-e_i +-e_j`` (i < j)."""
    E = np.eye(q, dtype=int)
    offsets = np.concatenate([np.zeros((1, q), dtype=int), E, -E] + [
        np.stack([E[i] + E[j], E[i] - E[j], -E[i] + E[j], -E[i] - E[j]])
        for i in range(q) for j in range(i + 1, q)])
    offsets.setflags(write=False)
    return offsets


def fd_derivatives(f: Callable[[np.ndarray], np.ndarray], x,
                   steps: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), G, H)``: value, central-difference gradient ``f(x).shape + (q,)`` and
    symmetric Hessian ``f(x).shape + (q, q)`` of a batched ``f``, ``(k, q) -> (k, ...)``, from
    one call at the ``2 q^2 + 1`` :func:`_stencil` rows with ``steps`` (:func:`fd_step` by
    default), under :func:`_evaluate`'s errstate: non-finite output, non-finite derivatives."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q, steps = x.size, fd_step(x) if steps is None else steps
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(f(x + _stencil(q) * steps), dtype=float)
        f0, plus, minus, mixed = out[0], out[1:q + 1], out[q + 1:2 * q + 1], out[2 * q + 1:]
        G = np.empty(f0.shape + (q,))
        H = np.empty(f0.shape + (q, q))
        for j in range(q):
            G[..., j] = (plus[j] - minus[j]) / (2.0 * steps[j])
            H[..., j, j] = (plus[j] - 2.0 * f0 + minus[j]) / steps[j] ** 2
        for (j, k), (pp, pm, mp, mm) in zip(pairs, mixed.reshape((len(pairs), 4) + f0.shape)):
            H[..., j, k] = H[..., k, j] = (pp - pm - mp + mm) / (4.0 * steps[j] * steps[k])
    return f0, G, H
