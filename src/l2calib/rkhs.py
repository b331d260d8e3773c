"""Penalized kernel regression and tuning-parameter selection.

The regressor solves

    min_f  (1/n) sum_i (y_i - f(x_i))^2 + lambda * ||f||_K^2

whose solution is f(x) = sum_i u_i K(x_i, x) with ``(K + n*lambda*I) u = y``.
Adding a nugget ``sigma^2 = n * lambda`` to the Gram matrix is the same
linear system, so the fit doubles as the predictive mean of a GP with
i.i.d. Gaussian noise.

Every fit runs one symmetric eigendecomposition of the Gram matrix;
a GCV sweep then scores the whole lambda grid in one (L x n) array pass,
and a leave-one-out score costs one hat-matrix diagonal.  A phi sweep
computes the pairwise squared distances once and builds each
candidate's Gram matrix from them.

The tuning policy lives here too: ``KernelConfig`` holds the phi and
lambda grids, and ``fit_response_surface`` picks from both in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import KernelSpec
from .numerics import as_points

DEFAULT_JITTER = 1e-10

# Log-spaced defaults; at seed 0, 5 of the 32 calibrate-unif101 benchmark
# datasets still select a grid end (phi = 1e-2 or lambda = 1e-8).
DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(np.logspace(-8.0, 0.0, 25))
DEFAULT_PHI_GRID: tuple[float, ...] = tuple(np.logspace(-2.0, 1.5, 15))


class FitError(ValueError):
    """Raised when the penalized linear system cannot be solved reliably."""


def _grid(name: str, values, ascending: bool = False) -> tuple[float, ...]:
    grid = tuple(float(v) for v in values)
    if not grid or not all(np.isfinite(g) and g > 0 for g in grid):
        raise ValueError(f"{name} must be a nonempty list of positive finite numbers")
    if ascending and list(grid) != sorted(grid):
        raise ValueError(f"{name} must be sorted ascending")
    return grid


@dataclass(frozen=True)
class KernelConfig:
    """Kernel family plus the grids phi (by leave-one-out) and lambda (by GCV,
    per phi candidate) are picked from; a one-value grid fixes its parameter."""

    family: str = "gaussian"
    nu: float | None = None
    phi_grid: tuple[float, ...] = DEFAULT_PHI_GRID
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        object.__setattr__(self, "phi_grid", _grid("phi_grid", self.phi_grid))
        object.__setattr__(self, "lambda_grid",
                           _grid("lambda_grid", self.lambda_grid, ascending=True))
        self.spec(1.0)  # rejects an unknown family or an unsupported nu

    def spec(self, phi: float) -> KernelSpec:
        return KernelSpec(self.family, phi, self.nu)


@dataclass(frozen=True)
class KrrModel:
    """Fitted penalized regressor (immutable)."""

    kernel: KernelSpec
    design: np.ndarray      # (n, d)
    coeffs: np.ndarray      # (n,)
    lam: float
    fitted: np.ndarray      # (n,)
    hat_trace: float
    gram_eig: tuple[np.ndarray, np.ndarray]  # eigenpairs (w, Q) of the jittered Gram matrix

    @property
    def n(self) -> int:
        return self.design.shape[0]

    def __call__(self, x) -> np.ndarray:
        return predict(self, x)


class _EigenPanel:
    """Eigendecomposition of a (jittered) Gram matrix, reused across lambdas.

    ``d2`` is ``kernels.sqdist(points)`` when the caller already has it.
    """

    def __init__(self, points, y, spec: KernelSpec, jitter: float = DEFAULT_JITTER,
                 d2: np.ndarray | None = None):
        self.points = as_points(points)
        self.y = np.asarray(y, dtype=float).reshape(-1)
        if self.y.shape[0] != self.points.shape[0]:
            raise ValueError("points and responses length mismatch")
        if np.any(~np.isfinite(self.y)):
            raise FitError("responses contain NaN or infinity")
        if jitter < 0:
            raise ValueError("jitter must be nonnegative")
        self.spec = spec
        self.n = self.y.shape[0]
        self.d2 = kernels.sqdist(self.points) if d2 is None else d2
        K = kernels.gram(spec, self.d2)
        if jitter:
            K = K + jitter * np.eye(self.n)
        self.w, self.Q = np.linalg.eigh(K)
        self.qty = self.Q.T @ self.y

    def _shift(self, lam) -> np.ndarray:
        """``w + n*lam`` for a scalar or, row by row, an ``(L, 1)`` column of
        lambdas; raises at the first numerically singular row."""
        shifted = self.w + self.n * lam
        tol = self.n * np.finfo(float).eps * np.maximum(shifted.max(axis=-1), 1.0)
        low = np.atleast_1d(shifted.min(axis=-1))
        singular = np.flatnonzero(low <= tol)
        if singular.size:
            raise FitError(
                "penalized system is numerically singular: smallest shifted "
                f"eigenvalue {low[singular[0]]:.3e} (Gram eigenvalue {self.w.min():.3e})")
        return shifted

    def coeffs(self, lam: float) -> np.ndarray:
        return self.Q @ (self.qty / self._shift(lam))

    def fitted(self, lam: float) -> np.ndarray:
        return self.Q @ (self.w * self.qty / self._shift(lam))

    def hat_trace(self, lam: float) -> float:
        return float(np.sum(self.w / self._shift(lam)))

    def hat_diag(self, lam: float) -> np.ndarray:
        return np.einsum("ij,j,ij->i", self.Q, self.w / self._shift(lam), self.Q)

    def gcv_scores(self, grid: tuple[float, ...]) -> np.ndarray:
        """GCV score of every lambda in ``grid``, one row per lambda."""
        lams = np.asarray(grid)[:, None]
        shrink = self.n * lams / self._shift(lams)
        rss_term = np.sum((shrink * self.qty) ** 2, axis=1) / self.n
        # Python's float ** 2 (libm pow), not x * x, which can differ in the last bit
        denom = np.array([float(m) ** 2 for m in np.sum(shrink, axis=1) / self.n])
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0.0, rss_term / denom, np.inf)

    def model(self, lam: float) -> KrrModel:
        return KrrModel(kernel=self.spec, design=self.points,
                        coeffs=self.coeffs(lam), lam=float(lam),
                        fitted=self.fitted(lam), hat_trace=self.hat_trace(lam),
                        gram_eig=(self.w, self.Q))


def predict(model: KrrModel, x) -> np.ndarray:
    """Evaluate ``sum_i u_i K(x_i, x)`` at one or many points."""
    pts = as_points(x, model.design.shape[1])
    return kernels.cross_gram(model.kernel, pts, model.design) @ model.coeffs


def rkhs_norm_sq(model: KrrModel) -> float:
    """Squared native-space norm ``u^T K u`` of the fitted function."""
    K = kernels.gram(model.kernel, kernels.sqdist(model.design))
    val = float(model.coeffs @ (K @ model.coeffs))
    return max(val, 0.0)


def _gcv_pick(panel: _EigenPanel, grid: tuple[float, ...]) -> tuple[float, np.ndarray]:
    """The lambda with the least finite GCV score; among tied scores the
    largest lambda, and the first of equal lambdas."""
    scores = panel.gcv_scores(grid)
    finite = np.isfinite(scores)
    if not np.any(finite):
        raise FitError("all GCV scores are non-finite")
    ties = np.flatnonzero(scores == scores[finite].min())
    return grid[ties[np.argmax(np.asarray(grid)[ties])]], scores


def gcv_select(points, y, kernel: KernelSpec, lambda_grid=DEFAULT_LAMBDA_GRID,
               jitter: float = DEFAULT_JITTER) -> tuple[float, np.ndarray]:
    """Pick lambda minimizing the GCV score over an ascending grid.

    Score: ``[(1/n)||(I-A)y||^2] / [(1/n) tr(I-A)]^2`` with the smoother
    ``A = K (K + n*lambda*I)^{-1}``.  Ties break toward the larger
    (smoother) lambda.  Returns ``(lambda, scores)``.
    """
    grid = _grid("lambda_grid", lambda_grid, ascending=True)
    return _gcv_pick(_EigenPanel(points, y, kernel, jitter), grid)


def fit_with_rule(points, y, kernel: KernelSpec, lambda_grid=DEFAULT_LAMBDA_GRID,
                  jitter: float = DEFAULT_JITTER) -> KrrModel:
    """Fit with the given kernel at the lambda GCV picks from ``lambda_grid``;
    a one-value grid fits at that lambda.

    Raises :class:`FitError` when the shifted Gram matrix is numerically
    singular, every GCV score is non-finite or the responses contain NaN.
    """
    grid = _grid("lambda_grid", lambda_grid, ascending=True)
    panel = _EigenPanel(points, y, kernel, jitter)
    return panel.model(_gcv_pick(panel, grid)[0])


def _loo_score(panel: _EigenPanel, lam: float) -> float:
    """Mean squared leave-one-out residual at ``lam``.

    The closed form ``e_i / (1 - A_ii)`` avoids refits; a candidate with
    any ``A_ii >= 1 - 1e-12`` scores +inf rather than raising.
    """
    diag = panel.hat_diag(lam)
    if np.any(diag >= 1.0 - 1e-12):
        return np.inf
    resid = (panel.y - panel.fitted(lam)) / (1.0 - diag)
    return float(np.mean(resid * resid))


def loo_cv_phi(points, y, config: KernelConfig,
               jitter: float = DEFAULT_JITTER) -> KrrModel:
    """Fit at the phi in ``config.phi_grid`` with the least leave-one-out
    score, lambda per candidate by GCV over ``config.lambda_grid``.

    The grid is scanned in ascending-phi order and the first minimum
    wins, so ties break toward the smaller (smoother) phi.  The winner's
    model comes from the eigendecomposition the sweep already made.
    """
    best_score, best, d2 = np.inf, None, None
    for phi in sorted(config.phi_grid):
        panel = _EigenPanel(points, y, config.spec(phi), jitter, d2)
        d2 = panel.d2
        lam = _gcv_pick(panel, config.lambda_grid)[0]
        score = _loo_score(panel, lam)
        if score < best_score:
            best_score, best = score, (panel, lam)
    if best is None:
        raise FitError("all leave-one-out scores are non-finite")
    panel, lam = best
    return panel.model(lam)


def fit_response_surface(points, y, config: KernelConfig) -> KrrModel:
    """Pick (phi, lambda) from the config grids and fit the regressor.

    The model (with its Gram eigenpairs, and its phi as ``kernel.phi``)
    can be passed as ``surface`` to ``l2_calibrate`` and ``ko_calibrate``
    on the same data.
    """
    return loo_cv_phi(points, y, config)


def sigma2_hat(points, y, model: KrrModel) -> float:
    """Noise-variance estimate ``||(I-A)y||^2 / (n - tr A)``."""
    yv = np.asarray(y, dtype=float).reshape(-1)
    dof = model.n - model.hat_trace
    if dof <= 0:
        raise FitError(f"effective degrees of freedom {dof:.3e} <= 0; "
                       "cannot estimate the noise variance")
    resid = yv - model.fitted
    return float(resid @ resid) / dof
