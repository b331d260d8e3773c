"""The three calibration estimators.

* ``l2_calibrate`` smooths the physical data into a nonparametric
  response-surface estimate, then moves the simulator parameter to
  minimize the squared L2 distance between surface and simulator.
* ``ols_calibrate`` minimizes the residual sum of squares of the
  simulator against the raw observations.
* ``ko_calibrate`` is the frequentist Gaussian-process variant: the
  observations are modeled as the simulator mean plus a stationary GP
  discrepancy plus white noise, and the parameter maximizes the profiled
  marginal likelihood.

All three search the parameter box with the same deterministic
grid-plus-refinement minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import rkhs
from .numerics import (BoxDomain, OptimizerConfig, QuadratureRule,
                       as_points, fd_grad, fd_hess, minimize, tensor_grid)
from .rkhs import KernelConfig, KrrModel, fit_response_surface

ETA_BOUNDS = (1e-8, 1e8)  # noise-to-process variance ratio search range


@dataclass
class ComputerModel:
    """Vectorized simulator wrapper.

    ``eval(points, thetas)`` maps an ``(n, d)`` array of control points
    and a ``(k, q)`` batch of parameter vectors to a ``(k, n)`` output
    array, one row per parameter vector; calling the model evaluates one
    parameter vector as a batch of one.  ``grad``, when given, maps the
    points and one parameter vector ``(q,)`` to the ``(n, q)`` Jacobian;
    otherwise central differences are used, as they always are for the
    Hessian.  ``smooth_in_theta`` gates derivative-based inference.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_domain: BoxDomain
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    smooth_in_theta: bool = True
    name: str = "computer-model"

    @property
    def q(self) -> int:
        return self.theta_domain.dim

    def batch(self, x, thetas) -> np.ndarray:
        """Outputs at ``x`` for each row of the ``(k, q)`` ``thetas``, shape ``(k, n)``."""
        pts = as_points(x)
        ths = np.asarray(thetas, dtype=float)
        if ths.ndim != 2 or ths.shape[1] != self.q:
            raise ValueError(f"expected a (k, {self.q}) batch of parameters, "
                             f"got shape {ths.shape}")
        out = np.asarray(self.eval(pts, ths), dtype=float)
        if out.shape != (ths.shape[0], pts.shape[0]):
            raise ValueError(f"model eval returned shape {out.shape}, "
                             f"expected {(ths.shape[0], pts.shape[0])}")
        return out

    def __call__(self, x, theta) -> np.ndarray:
        return self.batch(x, np.atleast_1d(np.asarray(theta, dtype=float))[None])[0]

    def grad_theta(self, x, theta) -> np.ndarray:
        """Jacobian of the output in theta, shape ``(n, q)``."""
        pts = as_points(x)
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.grad is not None:
            g = np.asarray(self.grad(pts, th), dtype=float)
            return g.reshape(pts.shape[0], self.q)
        return fd_grad(lambda t: self(pts, t), th)

    def hess_theta(self, x, theta) -> np.ndarray:
        """Per-point Hessian of the output in theta, shape ``(n, q, q)``."""
        pts = as_points(x)
        return fd_hess(lambda t: self(pts, t), theta)


@dataclass(frozen=True)
class CalibrationEstimate:
    theta_hat: np.ndarray
    method: str                      # "L2" | "OLS" | "KO"
    objective_value: float
    covariance: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _check_data(points, y) -> tuple[np.ndarray, np.ndarray]:
    pts = as_points(points)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if pts.shape[0] == 0:
        raise ValueError("data must be nonempty")
    if yv.shape[0] != pts.shape[0]:
        raise ValueError("points and responses length mismatch")
    return pts, yv


def l2_calibrate(points, y, kernel_cfg: KernelConfig, model: ComputerModel,
                 rule: QuadratureRule,
                 opt: OptimizerConfig = OptimizerConfig(),
                 surface: KrrModel | None = None) -> CalibrationEstimate:
    """L2 calibration: smooth, then project onto the simulator sweep.

    The reported objective value is the achieved L2 distance (square
    root of the minimized squared distance).  ``meta`` records the
    selected tuning parameters and flags boundary solutions.  A given
    ``surface`` replaces the smoothing step.
    """
    pts, yv = _check_data(points, y)
    zeta_hat = surface or fit_response_surface(pts, yv, kernel_cfg)
    zeta_nodes = rkhs.predict(zeta_hat, rule.nodes)

    def objective(thetas: np.ndarray) -> np.ndarray:
        diff = zeta_nodes - model.batch(rule.nodes, thetas)
        return np.array([rule.weights @ d2 for d2 in diff * diff])

    res = minimize(objective, model.theta_domain, opt)
    return CalibrationEstimate(
        theta_hat=res.x, method="L2",
        objective_value=float(np.sqrt(max(res.fun, 0.0))),
        meta={"phi": zeta_hat.kernel.phi, "lambda": zeta_hat.lam,
              "iterations": res.iterations, "boundary": res.on_boundary},
    )


def ols_calibrate(points, y, model: ComputerModel,
                  opt: OptimizerConfig = OptimizerConfig()) -> CalibrationEstimate:
    """Least-squares calibration; the objective value is the minimized RSS."""
    pts, yv = _check_data(points, y)

    def objective(thetas: np.ndarray) -> np.ndarray:
        resid = yv - model.batch(pts, thetas)
        return np.array([r @ r for r in resid])

    res = minimize(objective, model.theta_domain, opt)
    return CalibrationEstimate(
        theta_hat=res.x, method="OLS", objective_value=res.fun,
        meta={"iterations": res.iterations, "boundary": res.on_boundary},
    )


class _ProfiledGpLikelihood:
    """Concentrated negative log marginal likelihood for the GP calibrator.

    With correlation matrix ``R`` (fixed phi), noise-to-process ratio
    ``eta`` and residual ``r(theta)``, the process variance profiles to
    ``tau2 = r^T (R + eta I)^{-1} r / n`` and the objective becomes
    ``(n/2) log tau2 + (1/2) log det(R + eta I)``; ``(rho, Q)`` are the
    eigenpairs of ``R``.
    """

    def __init__(self, points: np.ndarray, y: np.ndarray, model: ComputerModel,
                 rho: np.ndarray, Q: np.ndarray):
        self.pts = points
        self.y = y
        self.model = model
        self.n = y.shape[0]
        self.rho, self.Q = rho, Q
        if self.rho.min() <= 0:
            raise rkhs.FitError("GP correlation matrix is not positive definite "
                                f"after jitter (smallest eigenvalue {self.rho.min():.3e})")
        self._lo = np.append(model.theta_domain.lower, np.log(ETA_BOUNDS[0]))
        self._hi = np.append(model.theta_domain.upper, np.log(ETA_BOUNDS[1]))

    def residual_sq(self, thetas: np.ndarray) -> np.ndarray:
        """``(Q^T r)^2`` for the residual ``r`` of each row of ``thetas``, shape ``(k, n)``."""
        resid = self.y - self.model.batch(self.pts, thetas)
        return np.array([(self.Q.T @ r) ** 2 for r in resid])

    def _tau2(self, qtr2: np.ndarray, log_eta) -> tuple[np.ndarray, np.ndarray]:
        """``(tau2, rho + eta)``, summing along the last axis of ``qtr2``, whose
        leading axes broadcast against those of ``log_eta``."""
        denom = self.rho + np.exp(log_eta)[..., None]
        return np.sum(qtr2 / denom, axis=-1) / self.n, denom

    def value_from_parts(self, qtr2: np.ndarray, log_eta: float) -> float:
        tau2, denom = self._tau2(qtr2, log_eta)
        tau2 = float(tau2)
        if not np.isfinite(tau2) or tau2 <= 0.0:
            tau2 = np.finfo(float).tiny
        return 0.5 * self.n * np.log(tau2) + 0.5 * float(np.sum(np.log(denom)))

    def __call__(self, params: np.ndarray) -> float:
        if not ((params >= self._lo).all() and (params <= self._hi).all()):
            return np.inf
        return self.value_from_parts(self.residual_sq(params[None, :-1])[0], params[-1])

    def grid_start(self, theta_grid: np.ndarray, log_etas: np.ndarray) -> np.ndarray:
        """First minimizer of ``value_from_parts`` over ``theta_grid x log_etas``,
        scanned row-major."""
        qtr2 = self.residual_sq(theta_grid)
        tau2, denom = self._tau2(qtr2[:, None, :], log_etas)
        tau2 = np.where(np.isfinite(tau2) & (tau2 > 0.0), tau2, np.finfo(float).tiny)
        vals = 0.5 * self.n * np.log(tau2) + 0.5 * np.sum(np.log(denom), axis=-1)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        return np.append(theta_grid[i], log_etas[j])

    def tau2_sigma2(self, theta: np.ndarray, log_eta: float) -> tuple[float, float]:
        tau2 = float(self._tau2(self.residual_sq(theta[None])[0], log_eta)[0])
        return tau2, tau2 * np.exp(log_eta)


def ko_calibrate(points, y, model: ComputerModel,
                 kernel_cfg: KernelConfig = KernelConfig(),
                 opt: OptimizerConfig = OptimizerConfig(),
                 seed: int = 0,
                 surface: KrrModel | None = None) -> CalibrationEstimate:
    """Gaussian-process calibration by profiled maximum likelihood.

    The kernel (phi by leave-one-out over ``kernel_cfg.phi_grid``) and the
    eigenpairs of its jittered Gram matrix come from ``fit_response_surface``,
    or from a given ``surface``; then (theta, log eta) are searched jointly:
    a coarse grid pass, Nelder-Mead from the best cell, and five seeded
    random restarts to dodge likelihood multimodality.
    """
    pts, yv = _check_data(points, y)
    if yv.shape[0] < 3:
        raise ValueError("GP calibration needs at least 3 observations")
    box = model.theta_domain
    # Coarse deterministic pass over theta x log(eta), checked before tuning.
    theta_grid = tensor_grid(box, max(9, opt.grid_points // 5))
    surface = surface or fit_response_surface(pts, yv, kernel_cfg)
    nll = _ProfiledGpLikelihood(pts, yv, model, *surface.gram_eig)
    log_etas = np.linspace(np.log(ETA_BOUNDS[0]), np.log(ETA_BOUNDS[1]), 17)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6B6F]))
    starts = [nll.grid_start(theta_grid, log_etas)]
    for _ in range(5):
        th0 = rng.uniform(box.lower, box.upper)
        le0 = rng.uniform(np.log(1e-6), np.log(1e4))
        starts.append(np.append(th0, le0))

    best = None
    for s0 in starts:
        res = _scipy_minimize(nll, s0, method="Nelder-Mead",
                              options={"xatol": opt.tolerance, "fatol": 1e-12,
                                       "maxiter": 400 * (box.dim + 1)})
        if best is None or res.fun < best.fun:
            best = res
    theta_hat = box.clip(best.x[:-1])
    log_eta = float(np.clip(best.x[-1], np.log(ETA_BOUNDS[0]), np.log(ETA_BOUNDS[1])))
    tau2, sigma2 = nll.tau2_sigma2(theta_hat, log_eta)
    return CalibrationEstimate(
        theta_hat=np.asarray(theta_hat, dtype=float), method="KO",
        objective_value=float(best.fun),
        meta={"phi": surface.kernel.phi, "eta": float(np.exp(log_eta)), "tau2": tau2,
              "sigma2": sigma2, "boundary": box.on_boundary(theta_hat),
              "iterations": int(best.nit)},
    )
