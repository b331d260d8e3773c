"""Quadrature, box-constrained minimization and finite differences.

Shared numerical machinery for the calibrators: tensor-product
Gauss-Legendre rules over rectangular domains, the unit-weight rule at
a design, a deterministic grid-scan-plus-refinement minimizer, and
central-difference derivatives from one batched stencil.  One-parameter
refinement zooms in on the best grid cell by batched rounds through
:func:`scan` and ends with one safeguarded parabolic step, so an
objective sees a few large batches rather than many single rows.

Objectives passed to :func:`scan` and :func:`minimize` are batched: they
take a ``(k, q)`` array of parameter vectors and return ``(k,)`` values.
A non-finite value counts as ``+inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# Most parameter vectors one objective call receives during a grid scan.
SCAN_BLOCK_ROWS = 401
# Interior points of the bracket one one-parameter zoom round scans.  Odd,
# so the middle point is the previous best; the bracket shrinks 8x a round.
REFINE_POINTS = 15
# Bracket width at which one-parameter zoom rounds hand over to one
# parabolic step (three rounds from the default grid's bracket on [-2, 2]),
# and the relative curvature error the probes beside its vertex may show.
PARABOLA_BRACKET = 1e-4
PARABOLA_AGREEMENT = 0.1


class FitError(ValueError):
    """The one class for a numerical outcome; invalid input is a plain ``ValueError``."""


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: only q >= 2 needs
    it, and importing it takes longer than a one-parameter calibration."""
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
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


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
    """Minimize a batched objective over a box: grid scan, then local refinement.

    ``objective`` maps a ``(k, q)`` array of parameter vectors to ``(k,)``
    values.  The coarse :func:`scan` evaluates a full tensor grid
    (``grid_points`` per dimension, endpoints included), and refinement
    starts from the best grid point.  A caller holding the objective's
    values on that grid passes them as ``coarse`` and the scan is skipped;
    they go through the scan's rules, so the result is the same bit for bit.

    * One parameter: zoom rounds on a bracket that starts as the best grid
      point's two neighbours.  Each round scans ``REFINE_POINTS`` equally
      spaced interior points of the bracket as one batch and narrows it
      to the best point's two neighbours.  Once the bracket is at most
      ``PARABOLA_BRACKET`` wide, one :func:`_parabola_step` call tries the
      vertex of the parabola through the best point and the bracket ends;
      where the step is not confirmed, rounds go on until the bracket is at
      most ``tolerance`` wide.  At most ``max_iterations`` calls follow the
      scan, and ``iterations`` counts them.  The result is the vertex or
      the best point of the last round, or the grid best if neither beat it.
    * Two or more: Nelder-Mead clamped to the box, one ``(1, q)`` batch
      per evaluation, at most ``10 q max_iterations`` iterations.

    Deterministic given the config.
    """
    q = box.dim
    pts = tensor_grid(box, config.grid_points)
    vals = scan(objective, pts) if coarse is None else _evaluate(lambda _: coarse, pts)
    if not np.any(np.isfinite(vals)):
        raise FitError("objective is non-finite on the whole coarse grid")
    best = int(np.argmin(vals))

    if q == 1:
        ax = pts[:, 0]
        i, j = max(best - 1, 0), min(best + 1, len(ax) - 1)
        # the bracket, its best point, and their values
        ts, fts = (ax[i], ax[best], ax[j]), (vals[i], vals[best], vals[j])
        xs, fs, it, tried = None, np.inf, 0, False
        while ts[2] - ts[0] > config.tolerance and it < config.max_iterations:
            it += 1
            if ts[2] - ts[0] <= PARABOLA_BRACKET and not tried:
                tried, step = True, _parabola_step(objective, ts, fts, config.tolerance)
                if step is not None:
                    xs, fs = np.array(step[:1]), step[1]
                    break
                continue
            grid = np.linspace(ts[0], ts[2], REFINE_POINTS + 2)
            fgrid = np.concatenate([fts[:1], scan(objective, grid[1:-1, None]), fts[2:]])
            k = int(np.argmin(fgrid[1:-1])) + 1
            ts, fts = tuple(grid[k - 1:k + 2]), tuple(fgrid[k - 1:k + 2])
            xs, fs = grid[k:k + 1], float(fgrid[k])
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


def _parabola_step(objective: Objective, ts: tuple, fs: tuple,
                   tolerance: float) -> tuple[float, float] | None:
    """``(v, f(v))`` for the vertex ``v`` of the parabola through the points
    ``ts = (lo, mid, hi)`` with values ``fs``, or None where it is not
    confirmed.

    The step needs ``lo < mid < hi``, ``mid`` the lowest of the three and a
    finite positive curvature ``c``, so that ``v`` lies in the middle half
    of the bracket.  One call evaluates ``v`` and probes ``v +- s``,
    ``s = (hi - lo)/16``.  It is confirmed when the three values are finite,
    the probes' second difference is within ``PARABOLA_AGREEMENT * c`` of
    ``c``, and the vertex of the parabola through the probes is within
    ``tolerance`` of ``v``.  A non-finite or lower bracket end, a flat
    bracket, a cusp or a kink fails one of these: a safeguarded parabolic
    step, as in Brent, *Algorithms for Minimization without Derivatives*
    (1973), ch. 5.
    """
    (lo, mid, hi), (f_lo, f_mid, f_hi) = ts, fs
    if not (lo < mid < hi and f_mid <= min(f_lo, f_hi)):
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails a check below
        slope_lo, slope_hi = (f_mid - f_lo) / (mid - lo), (f_hi - f_mid) / (hi - mid)
        c = 2.0 * (slope_hi - slope_lo) / (hi - lo)
        if not 0.0 < c < np.inf:  # a flat bracket, or a non-finite end
            return None
        v = 0.5 * (lo + mid) - slope_lo / c
        s = (hi - lo) / 16.0
        f_minus, f_v, f_plus = _evaluate(objective, np.array([[v - s], [v], [v + s]]))
        c_v = (f_minus - 2.0 * f_v + f_plus) / s ** 2
        confirmed = (np.isfinite(f_minus + f_v + f_plus)
                     and abs(c_v - c) <= PARABOLA_AGREEMENT * c
                     and abs(f_plus - f_minus) <= 2.0 * s * c_v * tolerance)
    return (float(v), float(f_v)) if confirmed else None


def fd_step(x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per-coordinate central-difference step: ``max(h, h * |x_j|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.maximum(h, h * np.abs(x))


def fd_derivatives(f: Callable[[np.ndarray], np.ndarray], x,
                   h: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), G, H)``: value, central-difference gradient ``f(x).shape + (q,)``
    and symmetric Hessian ``f(x).shape + (q, q)`` of a batched ``f``,
    ``(k, q) -> (k, ...)``.  One call evaluates the stencil ``x``, ``x +- e_i``
    and, for ``i < j``, ``x +- e_i +- e_j`` (``e_i`` the :func:`fd_step` of
    coordinate ``i``), under :func:`_evaluate`'s errstate: a non-finite output
    gives a non-finite derivative, not a warning."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q, steps = x.size, fd_step(x, h)
    E = np.diag(steps)
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    rows = [x[None], x + E, x - E] + [
        np.stack([x + E[j] + E[k], x + E[j] - E[k], x - E[j] + E[k], x - E[j] - E[k]])
        for j, k in pairs]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(f(np.concatenate(rows)), dtype=float)
        f0, plus, minus, mixed = out[0], out[1:q + 1], out[q + 1:2 * q + 1], out[2 * q + 1:]
        G = np.empty(f0.shape + (q,))
        H = np.empty(f0.shape + (q, q))
        for j in range(q):
            G[..., j] = (plus[j] - minus[j]) / (2.0 * steps[j])
            H[..., j, j] = (plus[j] - 2.0 * f0 + minus[j]) / steps[j] ** 2
        for (j, k), (pp, pm, mp, mm) in zip(pairs, mixed.reshape((len(pairs), 4) + f0.shape)):
            H[..., j, k] = H[..., k, j] = (pp - pm - mp + mm) / (4.0 * steps[j] * steps[k])
    return f0, G, H
