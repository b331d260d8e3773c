"""Quadrature, box-constrained minimization and finite differences.

Shared numerical machinery for the calibrators: tensor-product
Gauss-Legendre rules over rectangular domains, a deterministic
grid-scan-plus-refinement minimizer, and central-difference
derivatives.

Evaluators passed to the quadrature helpers are vectorized: they take
an ``(n, d)`` array of points and return an ``(n,)`` array of values.
Objectives passed to :func:`minimize` are batched the same way: they
take a ``(k, q)`` array of parameter vectors and return ``(k,)`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize as _scipy_minimize

Evaluator = Callable[[np.ndarray], np.ndarray]
Objective = Callable[[np.ndarray], np.ndarray]  # (k, q) -> (k,)

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# Largest tensor grid a scan may build: the default 401 points per axis
# at q = 2.
MAX_GRID_POINTS = 401 ** 2
# Most parameter vectors one objective call receives during a grid scan.
SCAN_BLOCK_ROWS = 401


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
        x = np.asarray(x, dtype=float)
        return bool(np.any(np.abs(x - np.asarray(self.lower)) <= 1e-12)
                    or np.any(np.abs(x - np.asarray(self.upper)) <= 1e-12))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


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
    """Grid-scan plus local-refinement settings for :func:`minimize`."""

    grid_points: int = 401
    tolerance: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError("need at least 3 grid points per dimension")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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
    if m < 1:
        raise ValueError("need at least one node per dimension")
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


def l2_distance_sq(f: Evaluator, g: Evaluator, rule: QuadratureRule) -> float:
    """Squared L2 distance ``integral (f - g)^2 dz`` over the rule's box.

    Uses the raw ``dz`` measure; no volume normalization.
    """
    fv = _eval_on_nodes(f, rule, "f")
    gv = _eval_on_nodes(g, rule, "g")
    diff = fv - gv
    return float(rule.weights @ (diff * diff))


def _eval_on_nodes(f: Evaluator, rule: QuadratureRule, name: str) -> np.ndarray:
    vals = np.asarray(f(rule.nodes), dtype=float).reshape(-1)
    if vals.shape[0] != rule.nodes.shape[0]:
        raise ValueError(f"evaluator {name} returned {vals.shape[0]} values for "
                         f"{rule.nodes.shape[0]} nodes")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"evaluator {name} is non-finite at node {rule.nodes[i]}")
    return vals


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-9, max_iterations: int = 200) -> tuple[float, float, int]:
    """Golden-section search for a minimum of ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x), iterations)``; assumes a single minimum in the
    bracket but degrades gracefully (stays inside the bracket) otherwise.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < max_iterations:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x), it


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
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _evaluate(objective: Objective, thetas: np.ndarray) -> np.ndarray:
    vals = np.asarray(objective(thetas), dtype=float)
    if vals.shape != (thetas.shape[0],):
        raise ValueError(f"objective returned shape {vals.shape} for "
                         f"{thetas.shape[0]} parameter vectors")
    return vals


def minimize(objective: Objective, box: BoxDomain,
             config: OptimizerConfig = OptimizerConfig()) -> MinimizeResult:
    """Minimize a batched objective over a box: grid scan, then local refinement.

    ``objective`` maps a ``(k, q)`` array of parameter vectors to ``(k,)``
    values.  The coarse scan evaluates a full tensor grid (``grid_points``
    per dimension, endpoints included) in blocks of at most
    ``SCAN_BLOCK_ROWS`` rows, and refinement starts from the best grid
    cell: golden-section for one-dimensional boxes, Nelder-Mead clamped
    to the box otherwise, one ``(1, q)`` batch per evaluation.
    Deterministic given the config.
    """
    q = box.dim
    pts = tensor_grid(box, config.grid_points)
    vals = np.concatenate([_evaluate(objective, pts[i:i + SCAN_BLOCK_ROWS])
                           for i in range(0, len(pts), SCAN_BLOCK_ROWS)])
    finite = np.isfinite(vals)
    if not np.any(finite):
        raise ValueError("objective is non-finite on the whole coarse grid")
    vals = np.where(finite, vals, np.inf)
    best = int(np.argmin(vals))

    if q == 1:
        ax = pts[:, 0]
        lo = ax[max(best - 1, 0)]
        hi = ax[min(best + 1, len(ax) - 1)]
        x, fx, it = golden_section(lambda t: float(_evaluate(objective, np.array([[t]]))[0]),
                                   lo, hi, config.tolerance, config.max_iterations)
        xs, fs = np.array([x]), fx
        if vals[best] < fs:
            xs, fs = pts[best], float(vals[best])
            it = 0
    else:
        x0 = pts[best]
        def clamped(t):
            return float(_evaluate(objective, box.clip(t)[None])[0])
        res = _scipy_minimize(clamped, x0, method="Nelder-Mead",
                              options={"xatol": config.tolerance,
                                       "fatol": 1e-14,
                                       "maxiter": config.max_iterations * q * 10})
        xs, fs, it = box.clip(res.x), float(res.fun), int(res.nit)
        if vals[best] < fs:
            xs, fs, it = pts[best], float(vals[best]), 0

    return MinimizeResult(x=np.asarray(xs, dtype=float), fun=float(fs),
                          iterations=it, on_boundary=box.on_boundary(xs))


def fd_step(x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per-coordinate central-difference step: ``max(h, h * |x_j|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.maximum(h, h * np.abs(x))


def fd_grad(f: Callable[[np.ndarray], np.ndarray], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``f`` on R^q, shape ``f(x).shape + (q,)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = fd_step(x, h)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = steps[j]
        cols.append((f(x + e) - f(x - e)) / (2.0 * steps[j]))
    return np.stack(cols, axis=-1)


def fd_hess(f: Callable[[np.ndarray], np.ndarray], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of ``f`` on R^q (symmetrized), shape
    ``f(x).shape + (q, q)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = fd_step(x, h)
    q = x.size
    f0 = np.asarray(f(x), dtype=float)
    H = np.empty(f0.shape + (q, q))
    for j in range(q):
        ej = np.zeros_like(x)
        ej[j] = steps[j]
        H[..., j, j] = (f(x + ej) - 2.0 * f0 + f(x - ej)) / steps[j] ** 2
        for k in range(j + 1, q):
            ek = np.zeros_like(x)
            ek[k] = steps[k]
            H[..., j, k] = H[..., k, j] = (
                f(x + ej + ek) - f(x + ej - ek)
                - f(x - ej + ek) + f(x - ej - ek)) / (4.0 * steps[j] * steps[k])
    return H
