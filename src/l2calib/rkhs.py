"""Penalized kernel regression and tuning-parameter selection.

The regressor solves

    min_f  (1/n) sum_i (y_i - f(x_i))^2 + lambda * ||f||_K^2

whose solution is f(x) = sum_i u_i K(x_i, x) with ``(K + n*lambda*I) u = y``.
Adding a nugget ``sigma^2 = n * lambda`` to the Gram matrix is the same
linear system, so the fit doubles as the predictive mean of a GP with
i.i.d. Gaussian noise.

Every fitted model comes from one symmetric eigendecomposition of the
Gram matrix; a GCV sweep then scores the whole lambda grid in one
(L x n) array pass, and a leave-one-out score costs one hat-matrix
diagonal.  A phi sweep computes the pairwise squared distances once,
builds each candidate's Gram matrix from them and scores it, by
Woodbury, from a pivoted Cholesky factor C and the eigendecomposition
of its r x r Gram C C^T, at O(n r) per lambda; the candidates it cannot
score that way are decomposed in full.  The winner's model comes from
that full panel or from its factor's thin SVD (the jitter is then the
eigenvalue of the other n - r directions).  Only ``numpy.linalg`` is
called, so one OpenBLAS is loaded, and ``cli`` runs cap its busy-waiting
threads at one (``cli.one_blas_thread``).

The tuning policy lives here too: ``KernelConfig`` holds the phi and
lambda grids, and ``fit_response_surface`` picks from both in one pass.
The fitted ``KrrModel`` keeps its design, responses and Gram eigenpairs,
so the calibrators and the sandwich read a dataset only through it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import KernelSpec
from .numerics import FitError, as_points  # FitError: re-exported

DEFAULT_JITTER = 1e-10

# Log-spaced defaults; at seed 0, 5 of the 32 calibrate-unif101 benchmark
# datasets still select a grid end (phi = 1e-2 or lambda = 1e-8).
DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(np.logspace(-8.0, 0.0, 25))
DEFAULT_PHI_GRID: tuple[float, ...] = tuple(np.logspace(-2.0, 1.5, 15))


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
    """Fitted penalized regressor (immutable) with the data it was fitted to."""

    kernel: KernelSpec
    design: np.ndarray      # (n, d)
    y: np.ndarray           # (n,) responses
    coeffs: np.ndarray      # (n,)
    lam: float
    fitted: np.ndarray      # (n,)
    hat_trace: float
    gram_eig: tuple[np.ndarray, np.ndarray]  # (w, Q) on r <= n directions, jitter on the rest

    @property
    def n(self) -> int:
        return self.design.shape[0]

    def __call__(self, x) -> np.ndarray:
        return predict(self, x)


def _data(points, y) -> tuple[np.ndarray, np.ndarray]:
    """The design as ``(n, d)`` points and the responses as an ``(n,)`` array."""
    points = as_points(points)
    y = np.asarray(y, dtype=float).reshape(-1)
    if points.shape[0] < 1:
        raise ValueError("points must hold at least one design point, got 0 rows")
    if y.shape[0] != points.shape[0]:
        raise ValueError("points and responses length mismatch")
    if np.any(~np.isfinite(y)):
        raise FitError("responses contain NaN or infinity")
    return points, y


class _Panel:
    """Eigenpairs ``(w, Q)`` of a jittered Gram matrix on r of its n
    directions, reused across lambdas.

    ``full`` decomposes the whole matrix (r = n).  ``low_rank`` takes the
    r leading eigenpairs of ``C^T C + jitter*I`` from the thin SVD of the
    factor ``C``, and scores at O(n r) per lambda; its other ``n_out`` =
    n - r directions have eigenvalue ``jitter`` and hold ``perp``, the part
    of y outside ``Q``, and ``perp_lev``, that of each leverage: zeros when
    r = n.  ``model`` serves either rank, its ``gram_eig`` the panel's ``(w, Q)``.
    """

    def __init__(self, y, w, Q, jitter, points, spec):
        self.y, self.n, self.w, self.Q, self.jitter = y, y.shape[0], w, Q, jitter
        self.points, self.spec = points, spec
        self.qty = Q.T @ y
        self.n_out = self.n - w.size
        self.perp, self.perp_lev = ((y - Q @ self.qty, 1.0 - np.sum(Q * Q, axis=1))
                                    if self.n_out else (np.zeros(self.n), np.zeros(self.n)))

    @classmethod
    def full(cls, points, y, spec: KernelSpec, jitter: float = DEFAULT_JITTER,
             gram: np.ndarray | None = None) -> _Panel:
        """``gram`` is the unjittered ``kernels.gram`` of the points when the
        caller already has it; its diagonal takes the jitter in place."""
        points, y = _data(points, y)
        if jitter < 0:
            raise ValueError("jitter must be nonnegative")
        K = kernels.gram(spec, kernels.sqdist(points)) if gram is None else gram
        K.flat[::K.shape[0] + 1] += jitter
        w, Q = np.linalg.eigh(K)
        return cls(y, w, Q, jitter, points, spec)

    @classmethod
    def low_rank(cls, factor: np.ndarray, y: np.ndarray, points, spec: KernelSpec) -> _Panel:
        Q, s, _ = np.linalg.svd(factor.T, full_matrices=False)
        return cls(y, s * s + DEFAULT_JITTER, Q, DEFAULT_JITTER, points, spec)

    def _shift(self, lam) -> np.ndarray:
        """``w + n*lam`` for a scalar or, row by row, an ``(L, 1)`` column of
        lambdas; raises at the first numerically singular row."""
        shifted = self.w + self.n * lam
        tol = self.n * np.finfo(float).eps * np.maximum(shifted.max(axis=-1), 1.0)
        # with r < n the least shifted eigenvalue is jitter + n*lam, as w >= jitter
        low = (np.ravel(self.jitter + self.n * lam) if self.n_out
               else np.atleast_1d(shifted.min(axis=-1)))
        singular = np.flatnonzero(low <= tol)
        if singular.size:
            raise FitError(
                "penalized system is numerically singular: smallest shifted "
                f"eigenvalue {low[singular[0]]:.3e} (Gram eigenvalue {self.w.min():.3e})")
        return shifted

    def _outside(self, lam: float) -> float:  # the smoother's eigenvalue outside Q
        return self.jitter / (self.jitter + self.n * lam)

    def coeffs(self, lam: float) -> np.ndarray:
        return self.Q @ (self.qty / self._shift(lam)) + self.perp / (self.jitter + self.n * lam)

    def fitted(self, lam: float) -> np.ndarray:
        return self.Q @ (self.w * self.qty / self._shift(lam)) + self._outside(lam) * self.perp

    def hat_trace(self, lam: float) -> float:
        return float(np.sum(self.w / self._shift(lam)) + self.n_out * self._outside(lam))

    def hat_diag(self, lam: float) -> np.ndarray:
        diag = (self.Q * self.Q) @ (self.w / self._shift(lam))
        return diag + self._outside(lam) * self.perp_lev

    def gcv_scores(self, grid: tuple[float, ...]) -> np.ndarray:
        """GCV score of every lambda in ``grid``, one row per lambda; overflow scores +inf."""
        lams = np.asarray(grid)[:, None]
        shrink = self.n * lams / self._shift(lams)
        rest = (self.n * lams / (self.jitter + self.n * lams))[:, 0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rss = np.sum((shrink * self.qty) ** 2, axis=1) + rest ** 2 * (self.perp @ self.perp)
            denom = ((np.sum(shrink, axis=1) + self.n_out * rest) / self.n) ** 2
            return np.where(denom > 0.0, rss / self.n / denom, np.inf)

    def model(self, lam: float) -> KrrModel:
        return KrrModel(kernel=self.spec, design=self.points, y=self.y,
                        coeffs=self.coeffs(lam), lam=float(lam),
                        fitted=self.fitted(lam), hat_trace=self.hat_trace(lam),
                        gram_eig=(self.w, self.Q))


class _FactorPanel:
    """A candidate scored by Woodbury from its factor ``C`` (r x n): with
    ``C C^T = V diag(L) V^T``, ``B = V^T C`` and ``c = jitter + n*lam``,
    ``(C^T C + c I)^{-1} = (I - B^T diag(1/(L + c)) B) / c``.  It serves ``_gcv_pick``
    and ``_loo_score`` like a ``_Panel``; ``model`` is the factor's ``_Panel.low_rank``."""

    def __init__(self, factor, y, points, spec: KernelSpec):
        self.factor, self.y, self.n, self.points, self.spec = factor, y, y.shape[0], points, spec
        self.L, V = np.linalg.eigh(factor @ factor.T)
        self.B = V.T @ factor

    def _resid(self, lam) -> tuple:
        """``c``, ``n*lam/c`` and ``(I - A) y = (n*lam/c) (y - B^T (B y / (L + c)))``
        for a scalar or, one row each, an ``(L, 1)`` column of lambdas."""
        c = DEFAULT_JITTER + self.n * lam
        s = self.n * lam / c
        return c, s, s * (self.y - (self.B @ self.y / (self.L + c)) @ self.B)

    def fitted(self, lam: float) -> np.ndarray:
        return self.y - self._resid(lam)[2]

    def hat_diag(self, lam: float) -> np.ndarray:  # 1 - (n*lam/c) (1 - sum_j B_ji^2 / (L_j + c))
        c = DEFAULT_JITTER + self.n * lam
        return 1.0 - self.n * lam / c * (1.0 - (1.0 / (self.L + c)) @ (self.B * self.B))

    def gcv_scores(self, grid: tuple[float, ...]) -> np.ndarray:
        """As ``_Panel.gcv_scores``, with ``tr(I - A) = (n*lam/c) (n - sum L / (L + c))``."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c, s, resid = self._resid(np.asarray(grid)[:, None])
            if np.any(c <= self.n * np.finfo(float).eps * np.maximum(self.L[-1] + c, 1.0)):
                raise FitError("penalized system is numerically singular")  # as _Panel._shift
            denom = (s[:, 0] * (self.n - np.sum(self.L / (self.L + c), axis=1)) / self.n) ** 2
            return np.where(denom > 0.0, np.sum(resid * resid, axis=1) / self.n / denom, np.inf)

    def model(self, lam: float) -> KrrModel:
        return _Panel.low_rank(self.factor, self.y, self.points, self.spec).model(lam)


def gram_spectrum(model: KrrModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gram_eig`` as ``(rho, mult, Q)``: r eigenvalues, then the jitter counted n - r times."""
    w, Q = model.gram_eig
    return np.append(w, DEFAULT_JITTER), np.append(np.ones(w.size), model.n - w.size), Q


def predict(model: KrrModel, x) -> np.ndarray:
    """Evaluate ``sum_i u_i K(x_i, x)`` at one or many points."""
    pts = as_points(x, model.design.shape[1])
    return kernels.cross_gram(model.kernel, pts, model.design) @ model.coeffs


def rkhs_norm_sq(model: KrrModel) -> float:
    """Squared native-space norm ``u^T K u`` of the fitted function."""
    K = kernels.gram(model.kernel, kernels.sqdist(model.design))
    val = float(model.coeffs @ (K @ model.coeffs))
    return max(val, 0.0)


def _gcv_pick(panel, grid: tuple[float, ...]) -> tuple[float, np.ndarray]:
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
    return _gcv_pick(_Panel.full(points, y, kernel, jitter), grid)


def fit_with_rule(points, y, kernel: KernelSpec, lambda_grid=DEFAULT_LAMBDA_GRID,
                  jitter: float = DEFAULT_JITTER) -> KrrModel:
    """Fit with the given kernel at the lambda GCV picks from ``lambda_grid``;
    a one-value grid fits at that lambda.

    Raises :class:`FitError` when the shifted Gram matrix is numerically
    singular, every GCV score is non-finite or the responses contain NaN.
    """
    grid = _grid("lambda_grid", lambda_grid, ascending=True)
    panel = _Panel.full(points, y, kernel, jitter)
    return panel.model(_gcv_pick(panel, grid)[0])


def _loo_score(panel, lam: float) -> float:
    """Mean squared leave-one-out residual at ``lam``.

    The closed form ``e_i / (1 - A_ii)`` avoids refits; a candidate with
    any ``A_ii >= 1 - 1e-12`` or an overflowing mean scores +inf.
    """
    diag = panel.hat_diag(lam)
    if np.any(diag >= 1.0 - 1e-12):
        return np.inf
    resid = (panel.y - panel.fitted(lam)) / (1.0 - diag)
    with np.errstate(over="ignore"):
        return float(np.mean(resid * resid))


def _pivoted_cholesky(K: np.ndarray, tol: float, max_rank: int) -> np.ndarray | None:
    """Rows ``C`` of a pivoted Cholesky factor ``K ~ C^T C`` of a positive
    semidefinite ``K``, or None when ``max_rank`` rows leave a residual
    diagonal above ``tol``.

    Each step takes the largest residual diagonal as its pivot and stops
    once none exceeds ``tol``; the residual is then positive semidefinite
    with trace at most ``n * tol``, which bounds its 2-norm.
    """
    d = K.diagonal().copy()
    C = np.empty((max_rank, K.shape[0]))
    for k, c in enumerate(C):
        p = d.argmax()
        if (dp := float(d[p])) <= tol:  # a Python float: numpy scalars are slower
            return C[:k]
        np.subtract(K[p], C[:k, p] @ C[:k], out=c)
        c /= math.sqrt(dp)
        d -= c * c
    return C if d.max() <= tol else None


# Low-rank sweep constants, timed on a 2-core host with numpy 2.4 and
# OpenBLAS.  The factor stops at PIVOT_TOL: the residual K - C^T C is then
# positive semidefinite with 2-norm <= n * 1e-14, the order of eigh's own
# backward error, and the default phi grid's Gram matrices on one n = 201
# example2 design have rank 9 to 130.
PIVOT_TOL = 1e-14
# It gives up past RANK_CAP_FRACTION * n rows, near where a factor and the
# eigh of its r x r Gram cost one n x n eigh: at n = 201 a rank-130 factor
# took 0.8 ms and that eigh 1.3-1.5 ms, against 2.0-3.2 ms for the n x n one.
RANK_CAP_FRACTION = 0.75


def loo_cv_phi(points, y, config: KernelConfig) -> KrrModel:
    """Fit at the phi in ``config.phi_grid`` with the least leave-one-out
    score, lambda per candidate by GCV over ``config.lambda_grid``.

    The grid is scanned in ascending-phi order and the first minimum
    wins, so ties break toward the smaller (smoother) phi.  Candidates
    are scored from a pivoted Cholesky factor of their Gram matrix until
    one's rank passes ``RANK_CAP_FRACTION * n``; that candidate, every
    larger phi (rank grows with phi) and any candidate whose low-rank
    scores meet a singular shift, no finite GCV score or a unit leverage
    get a full panel.  The winner's model comes from the panel it was
    scored on, at the lambda it was scored at.
    """
    points, y = _data(points, y)
    d2 = kernels.sqdist(points)
    grid, cap = config.lambda_grid, int(RANK_CAP_FRACTION * y.shape[0])
    low_rank, best = True, (np.inf, None, None)
    for phi in sorted(config.phi_grid):
        spec = config.spec(phi)
        K = kernels.gram(spec, d2)
        factor = _pivoted_cholesky(K, PIVOT_TOL, cap) if low_rank else None
        score, low_rank = np.inf, factor is not None
        if low_rank:
            with suppress(FitError):
                panel = _FactorPanel(factor, y, points, spec)
                score = _loo_score(panel, lam := _gcv_pick(panel, grid)[0])
        if not np.isfinite(score):
            panel = _Panel.full(points, y, spec, gram=K)
            score = _loo_score(panel, lam := _gcv_pick(panel, grid)[0])
        if score < best[0]:
            best = score, panel, lam
    _, panel, lam = best
    if panel is None:
        raise FitError("all leave-one-out scores are non-finite")
    return panel.model(lam)


def fit_response_surface(points, y, config: KernelConfig) -> KrrModel:
    """Pick (phi, lambda) from the config grids and fit the regressor.

    The model (with its data, its Gram eigenpairs, and its phi as
    ``kernel.phi``) is the surface ``l2_calibrate``, ``ko_calibrate`` and
    ``inference.estimate_sandwich`` take.
    """
    return loo_cv_phi(points, y, config)


def sigma2_hat(model: KrrModel) -> float:
    """Noise-variance estimate ``||(I-A)y||^2 / (n - tr A)`` on the fitted data."""
    dof = model.n - model.hat_trace
    if dof <= 0:
        raise FitError(f"effective degrees of freedom {dof:.3e} <= 0; "
                       "cannot estimate the noise variance")
    resid = model.y - model.fitted
    return float(resid @ resid) / dof
