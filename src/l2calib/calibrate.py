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
from .kernels import KernelSpec
from .numerics import (BoxDomain, OptimizerConfig, QuadratureRule,
                       as_points, fd_grad, fd_hess, minimize)
from .rkhs import GcvLambda, KrrModel, LambdaRule

ETA_BOUNDS = (1e-8, 1e8)  # noise-to-process variance ratio search range


@dataclass(frozen=True)
class FixedPhi:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("phi must be positive")


@dataclass(frozen=True)
class LooCvPhi:
    """phi by leave-one-out over ``grid``, lambda per candidate by the
    ``KernelConfig``'s lambda rule."""

    grid: tuple[float, ...] = rkhs.DEFAULT_PHI_GRID

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid or any(g <= 0 for g in grid):
            raise ValueError("phi grid must be nonempty and positive")


PhiRule = FixedPhi | LooCvPhi


@dataclass(frozen=True)
class KernelConfig:
    """Kernel family plus the rules that pick its tuning parameters."""

    family: str = "gaussian"
    nu: float | None = None
    phi_rule: PhiRule = field(default_factory=LooCvPhi)
    lambda_rule: LambdaRule = field(default_factory=GcvLambda)

    def __post_init__(self):
        self.spec(1.0)  # rejects an unknown family or an unsupported nu

    def spec(self, phi: float) -> KernelSpec:
        return KernelSpec(self.family, phi, self.nu)


@dataclass
class ComputerModel:
    """Vectorized simulator wrapper.

    ``eval(points, theta)`` maps an ``(n, d)`` array of control points
    and a parameter vector ``theta`` to an ``(n,)`` output array.
    ``grad`` and ``hess``, when given, must be vectorized the same way
    (returning ``(n, q)`` and ``(n, q, q)``); otherwise central
    differences are used.  ``smooth_in_theta`` gates derivative-based
    inference.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_domain: BoxDomain
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    smooth_in_theta: bool = True
    name: str = "computer-model"

    @property
    def q(self) -> int:
        return self.theta_domain.dim

    def __call__(self, x, theta) -> np.ndarray:
        pts = as_points(x)
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.asarray(self.eval(pts, th), dtype=float).reshape(-1)
        if out.shape[0] != pts.shape[0]:
            raise ValueError("model eval returned wrong number of values")
        return out

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
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.hess is not None:
            H = np.asarray(self.hess(pts, th), dtype=float)
            return H.reshape(pts.shape[0], self.q, self.q)
        return fd_hess(lambda t: self(pts, t), th)


def emulator_model(surrogate: KrrModel, theta_domain: BoxDomain,
                   smooth_in_theta: bool = True) -> ComputerModel:
    """Wrap a kernel interpolant over (x, theta) space as a ComputerModel.

    The surrogate's design lives in R^(d+q) with the parameter
    coordinates last; gradients come from central differences.
    """
    q = theta_domain.dim

    def _eval(pts: np.ndarray, th: np.ndarray) -> np.ndarray:
        joint = np.hstack([pts, np.broadcast_to(th, (pts.shape[0], q))])
        return rkhs.predict(surrogate, joint)

    return ComputerModel(eval=_eval, theta_domain=theta_domain,
                         smooth_in_theta=smooth_in_theta, name="emulator")


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


def fit_response_surface(points, y, config: KernelConfig) -> tuple[KrrModel, float]:
    """Resolve (phi, lambda) per the config rules and fit the regressor.

    The model (with its Gram eigenpairs) can be passed as ``surface`` to
    ``l2_calibrate`` and ``ko_calibrate`` on the same data.
    """
    if isinstance(config.phi_rule, FixedPhi):
        phi = config.phi_rule.value
    else:
        phi = rkhs.loo_cv_phi(points, y, config.family, config.phi_rule.grid,
                              config.lambda_rule, config.nu)
    model = rkhs.fit_with_rule(points, y, config.spec(phi),
                               rkhs.KrrConfig(config.lambda_rule))
    return model, phi


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
    zeta_hat = surface or fit_response_surface(pts, yv, kernel_cfg)[0]
    zeta_nodes = rkhs.predict(zeta_hat, rule.nodes)
    ys_nodes = lambda th: model(rule.nodes, th)

    def objective(th: np.ndarray) -> float:
        diff = zeta_nodes - ys_nodes(th)
        return float(rule.weights @ (diff * diff))

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

    def objective(th: np.ndarray) -> float:
        resid = yv - model(pts, th)
        return float(resid @ resid)

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

    def residual_sq(self, theta: np.ndarray) -> np.ndarray:
        r = self.y - self.model(self.pts, theta)
        return (self.Q.T @ r) ** 2

    def value_from_parts(self, qtr2: np.ndarray, log_eta: float) -> float:
        denom = self.rho + np.exp(log_eta)
        tau2 = float(np.sum(qtr2 / denom)) / self.n
        if not np.isfinite(tau2) or tau2 <= 0.0:
            tau2 = np.finfo(float).tiny
        return 0.5 * self.n * np.log(tau2) + 0.5 * float(np.sum(np.log(denom)))

    def __call__(self, params: np.ndarray) -> float:
        if not ((params >= self._lo).all() and (params <= self._hi).all()):
            return np.inf
        return self.value_from_parts(self.residual_sq(params[:-1]), params[-1])

    def grid_start(self, theta_grid: np.ndarray, log_etas: np.ndarray) -> np.ndarray:
        """First minimizer over ``theta_grid x log_etas``, scanned row-major.

        tau2 sums run along the last axis, as in ``value_from_parts``."""
        qtr2 = np.array([self.residual_sq(th) for th in theta_grid])
        denom = self.rho + np.exp(log_etas)[:, None]
        tau2 = np.sum(qtr2[:, None, :] / denom, axis=-1) / self.n
        tau2 = np.where(np.isfinite(tau2) & (tau2 > 0.0), tau2, np.finfo(float).tiny)
        vals = 0.5 * self.n * np.log(tau2) + 0.5 * np.sum(np.log(denom), axis=-1)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        return np.append(theta_grid[i], log_etas[j])

    def tau2_sigma2(self, theta: np.ndarray, log_eta: float) -> tuple[float, float]:
        denom = self.rho + np.exp(log_eta)
        tau2 = float(np.sum(self.residual_sq(theta) / denom)) / self.n
        return tau2, tau2 * np.exp(log_eta)


def ko_calibrate(points, y, model: ComputerModel,
                 kernel_cfg: KernelConfig = KernelConfig(),
                 opt: OptimizerConfig = OptimizerConfig(),
                 seed: int = 0,
                 n_starts: int = 5,
                 surface: KrrModel | None = None) -> CalibrationEstimate:
    """Gaussian-process calibration by profiled maximum likelihood.

    The kernel (phi by ``kernel_cfg``'s rule) and the eigenpairs of its
    jittered Gram matrix come from ``fit_response_surface``, or from a
    given ``surface``; then (theta, log eta) are searched jointly: a
    coarse grid pass, Nelder-Mead from the best cell, and ``n_starts``
    seeded random restarts to dodge likelihood multimodality.
    """
    pts, yv = _check_data(points, y)
    if yv.shape[0] < 3:
        raise ValueError("GP calibration needs at least 3 observations")
    surface = surface or fit_response_surface(pts, yv, kernel_cfg)[0]
    if surface.gram_eig is None:
        raise ValueError("surface has no Gram eigenpairs; fit it with fit_response_surface")
    nll = _ProfiledGpLikelihood(pts, yv, model, *surface.gram_eig)
    box = model.theta_domain

    # Coarse deterministic pass over theta x log(eta).
    n_theta = max(9, opt.grid_points // 5)
    axes = [np.linspace(lo, hi, n_theta) for lo, hi in zip(box.lower, box.upper)]
    theta_grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    log_etas = np.linspace(np.log(ETA_BOUNDS[0]), np.log(ETA_BOUNDS[1]), 17)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6B6F]))
    starts = [nll.grid_start(theta_grid, log_etas)]
    for _ in range(n_starts):
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
