"""Penalized kernel regression, tuning-parameter selection, emulators.

The regressor solves

    min_f  (1/n) sum_i (y_i - f(x_i))^2 + lambda * ||f||_K^2

whose solution is f(x) = sum_i u_i K(x_i, x) with ``(K + n*lambda*I) u = y``.
Adding a nugget ``sigma^2 = n * lambda`` to the Gram matrix is the same
linear system, so the fit doubles as the predictive mean of a GP with
i.i.d. Gaussian noise.

Every fit runs one symmetric eigendecomposition of the Gram matrix;
lambda sweeps (GCV) and hat-matrix diagonals (leave-one-out scores) are
then O(n)-O(n^2) per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import KernelSpec
from .numerics import as_points

DEFAULT_JITTER = 1e-10

# Log-spaced defaults wide enough that selected values for the bundled
# synthetic systems land strictly inside.
DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(np.logspace(-8.0, 0.0, 25))
DEFAULT_PHI_GRID: tuple[float, ...] = tuple(np.logspace(-2.0, 1.5, 15))


class FitError(ValueError):
    """Raised when the penalized linear system cannot be solved reliably."""


@dataclass(frozen=True)
class FixedLambda:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class GcvLambda:
    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("GCV grid must be nonempty")
        if any(g <= 0 for g in grid):
            raise ValueError("GCV grid values must be positive")
        if list(grid) != sorted(grid):
            raise ValueError("GCV grid must be sorted ascending")


@dataclass(frozen=True)
class RateLambda:
    """lambda = c * n^(-2*mu / (2*mu + d)) for smoothness mu > d/2."""

    mu: float
    c: float = 1.0
    d: int = 1

    def __post_init__(self):
        if self.mu <= self.d / 2:
            raise ValueError("need mu > d/2")
        if self.c <= 0:
            raise ValueError("need c > 0")


LambdaRule = FixedLambda | GcvLambda | RateLambda


@dataclass(frozen=True)
class KrrConfig:
    lambda_rule: LambdaRule = GcvLambda()
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


@dataclass(frozen=True)
class KrrModel:
    """Fitted penalized regressor (immutable)."""

    kernel: KernelSpec
    design: np.ndarray      # (n, d)
    coeffs: np.ndarray      # (n,)
    lam: float
    fitted: np.ndarray      # (n,)
    hat_trace: float
    # eigenpairs (w, Q) of the jittered Gram matrix; None for interpolants
    gram_eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.design.shape[0]

    def __call__(self, x) -> np.ndarray:
        return predict(self, x)


class _EigenPanel:
    """Eigendecomposition of a (jittered) Gram matrix, reused across lambdas."""

    def __init__(self, points, y, spec: KernelSpec, jitter: float = DEFAULT_JITTER):
        self.points = as_points(points)
        self.y = np.asarray(y, dtype=float).reshape(-1)
        if self.y.shape[0] != self.points.shape[0]:
            raise ValueError("points and responses length mismatch")
        if np.any(~np.isfinite(self.y)):
            raise FitError("responses contain NaN or infinity")
        self.spec = spec
        self.n = self.y.shape[0]
        K = kernels.gram(spec, self.points)
        if jitter:
            K = K + jitter * np.eye(self.n)
        self.w, self.Q = np.linalg.eigh(K)
        self.qty = self.Q.T @ self.y

    def _shift(self, lam: float) -> np.ndarray:
        shifted = self.w + self.n * lam
        tol = self.n * np.finfo(float).eps * max(float(shifted.max()), 1.0)
        if shifted.min() <= tol:
            raise FitError(
                "penalized system is numerically singular: smallest shifted "
                f"eigenvalue {shifted.min():.3e} (Gram eigenvalue {self.w.min():.3e})")
        return shifted

    def coeffs(self, lam: float) -> np.ndarray:
        return self.Q @ (self.qty / self._shift(lam))

    def fitted(self, lam: float) -> np.ndarray:
        return self.Q @ (self.w * self.qty / self._shift(lam))

    def hat_trace(self, lam: float) -> float:
        return float(np.sum(self.w / self._shift(lam)))

    def hat_diag(self, lam: float) -> np.ndarray:
        return np.einsum("ij,j,ij->i", self.Q, self.w / self._shift(lam), self.Q)

    def gcv(self, lam: float) -> float:
        shrink = self.n * lam / self._shift(lam)
        rss_term = float(np.sum((shrink * self.qty) ** 2)) / self.n
        denom = (float(np.sum(shrink)) / self.n) ** 2
        return rss_term / denom if denom > 0.0 else np.inf

    def model(self, lam: float) -> KrrModel:
        return KrrModel(kernel=self.spec, design=self.points,
                        coeffs=self.coeffs(lam), lam=float(lam),
                        fitted=self.fitted(lam), hat_trace=self.hat_trace(lam),
                        gram_eig=(self.w, self.Q))


def fit(points, y, kernel: KernelSpec, lam: float,
        jitter: float = DEFAULT_JITTER) -> KrrModel:
    """Fit the penalized regressor at a fixed ``lambda > 0``.

    Raises :class:`FitError` when the shifted Gram matrix is numerically
    singular or the responses contain NaN.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return _EigenPanel(points, y, kernel, jitter).model(lam)


def predict(model: KrrModel, x) -> np.ndarray:
    """Evaluate ``sum_i u_i K(x_i, x)`` at one or many points."""
    pts = as_points(x, model.design.shape[1])
    return kernels.cross_gram(model.kernel, pts, model.design) @ model.coeffs


def rkhs_norm_sq(model: KrrModel) -> float:
    """Squared native-space norm ``u^T K u`` of the fitted function."""
    K = kernels.gram(model.kernel, model.design)
    val = float(model.coeffs @ (K @ model.coeffs))
    return max(val, 0.0)


def default_lambda(n: int, mu: float, d: int = 1, c: float = 1.0) -> float:
    """Rate-optimal penalty ``c * n^(-2*mu / (2*mu + d))``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu <= d / 2:
        raise ValueError("need mu > d/2")
    if c <= 0:
        raise ValueError("need c > 0")
    return c * float(n) ** (-2.0 * mu / (2.0 * mu + d))


def _gcv_pick(panel: _EigenPanel, grid) -> tuple[float, np.ndarray]:
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    scores = np.array([panel.gcv(lam) for lam in grid])
    if not np.any(np.isfinite(scores)):
        raise FitError("all GCV scores are non-finite")
    best_i = 0
    for i in range(1, len(grid)):
        if not np.isfinite(scores[i]):
            continue
        better = scores[i] < scores[best_i]
        tie_to_smoother = scores[i] == scores[best_i] and grid[i] > grid[best_i]
        if better or tie_to_smoother or not np.isfinite(scores[best_i]):
            best_i = i
    return grid[best_i], scores


def gcv_select(points, y, kernel: KernelSpec, lambda_grid=DEFAULT_LAMBDA_GRID,
               jitter: float = DEFAULT_JITTER) -> tuple[float, np.ndarray]:
    """Pick lambda minimizing the GCV score over a grid.

    Score: ``[(1/n)||(I-A)y||^2] / [(1/n) tr(I-A)]^2`` with the smoother
    ``A = K (K + n*lambda*I)^{-1}``.  Ties break toward the larger
    (smoother) lambda.  Returns ``(lambda, scores)``.
    """
    return _gcv_pick(_EigenPanel(points, y, kernel, jitter), lambda_grid)


def _resolve_lambda(panel: _EigenPanel, rule: LambdaRule) -> float:
    if isinstance(rule, FixedLambda):
        return rule.value
    if isinstance(rule, RateLambda):
        return default_lambda(panel.n, rule.mu, rule.d, rule.c)
    return _gcv_pick(panel, rule.grid)[0]


def fit_with_rule(points, y, kernel: KernelSpec,
                  config: KrrConfig = KrrConfig()) -> KrrModel:
    """Fit with lambda resolved from the configured rule."""
    panel = _EigenPanel(points, y, kernel, config.jitter)
    return panel.model(_resolve_lambda(panel, config.lambda_rule))


def loo_scores_phi(points, y, family: str, phi_grid,
                   lambda_rule: LambdaRule = GcvLambda(),
                   nu: float | None = None,
                   jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Mean squared leave-one-out residual for each phi candidate.

    The closed form ``e_i / (1 - A_ii)`` avoids refits; a candidate with
    any ``A_ii >= 1 - 1e-12`` scores +inf rather than raising.
    """
    out = np.empty(len(phi_grid))
    for k, phi in enumerate(phi_grid):
        spec = KernelSpec(family, float(phi), nu)
        panel = _EigenPanel(points, y, spec, jitter)
        lam = _resolve_lambda(panel, lambda_rule)
        diag = panel.hat_diag(lam)
        if np.any(diag >= 1.0 - 1e-12):
            out[k] = np.inf
            continue
        resid = (panel.y - panel.fitted(lam)) / (1.0 - diag)
        out[k] = float(np.mean(resid * resid))
    return out


def loo_cv_phi(points, y, family: str, phi_grid,
               lambda_rule: LambdaRule = GcvLambda(),
               nu: float | None = None,
               jitter: float = DEFAULT_JITTER) -> float:
    """Pick phi by leave-one-out cross-validation.

    Ties break toward the smaller (smoother) phi; the grid order is kept
    as given, scanned in ascending-phi order.
    """
    grid = sorted(float(p) for p in phi_grid)
    if not grid:
        raise ValueError("phi grid must be nonempty")
    scores = loo_scores_phi(points, y, family, grid, lambda_rule, nu, jitter)
    if not np.any(np.isfinite(scores)):
        raise FitError("all leave-one-out scores are non-finite")
    return grid[int(np.argmin(scores))]


def sigma2_hat(points, y, model: KrrModel) -> float:
    """Noise-variance estimate ``||(I-A)y||^2 / (n - tr A)``."""
    yv = np.asarray(y, dtype=float).reshape(-1)
    dof = model.n - model.hat_trace
    if dof <= 0:
        raise FitError(f"effective degrees of freedom {dof:.3e} <= 0; "
                       "cannot estimate the noise variance")
    resid = yv - model.fitted
    return float(resid @ resid) / dof


def interpolate_emulator(points, values, kernel: KernelSpec) -> KrrModel:
    """Kernel interpolant through sampled simulator outputs.

    Interpolation regime: no ridge penalty.  The linear solve truncates
    eigenvalues at the numerical-rank cutoff ``n * eps * max(eig)``,
    which keeps coefficients bounded on smooth designs whose Gram
    matrices are singular to working precision.  Reproduction of the
    sampled outputs is then limited only by the spectral tail of the
    data, not by an arbitrary ridge.  Duplicate sample locations are
    rejected up front, naming the offending rows.
    """
    pts = as_points(points)
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError("points and values length mismatch")
    _, inverse, counts = np.unique(pts.round(decimals=12), axis=0,
                                   return_inverse=True, return_counts=True)
    if np.any(counts > 1):
        dup_rows = np.nonzero(counts[inverse] > 1)[0]
        raise FitError(f"duplicate sample locations at rows {dup_rows.tolist()}; "
                       "interpolation needs distinct points")
    if np.any(~np.isfinite(vals)):
        raise FitError("sample values contain NaN or infinity")
    K = kernels.gram(kernel, pts)
    w, Q = np.linalg.eigh(K)
    cutoff = pts.shape[0] * np.finfo(float).eps * max(w.max(), 0.0)
    keep = w > cutoff
    if not np.any(keep):
        raise FitError(f"Gram matrix numerically zero: largest eigenvalue {w.max():.3e}")
    qty = Q.T @ vals
    coeffs = Q[:, keep] @ (qty[keep] / w[keep])
    return KrrModel(kernel=kernel, design=pts, coeffs=coeffs, lam=0.0,
                    fitted=K @ coeffs, hat_trace=float(np.count_nonzero(keep)))
