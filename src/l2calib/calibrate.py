"""The three calibration estimators.

* ``l2_calibrate`` takes the response surface fitted to the physical
  data (``fit_response_surface``) and moves the simulator parameter to
  minimize the squared L2 distance between surface and simulator.
* ``ols_calibrate`` minimizes the same squared distance to the raw
  observations, with unit weights at the design points.
* ``ko_calibrate`` is the frequentist Gaussian-process variant: the
  observations are modeled as the simulator mean plus a stationary GP
  discrepancy plus white noise, and the parameter maximizes the
  marginal likelihood with the noise ratio and the process variance
  profiled out.  It reads the data, the kernel and the Gram eigenpairs
  from the same fitted surface.

All three reduce one residual, data minus simulator, and are searched
over the box by the same grid-plus-refinement minimizer.  Each takes the
simulator's outputs on the minimizer's coarse grid (:func:`coarse_block`)
as an optional ``block`` and reduces it as its objective would: the same
estimate from fewer simulator rows.  A simulator is its batched ``eval``
alone: the sandwich takes its theta-derivatives by central differences
of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rkhs
# nothing calls _scipy_minimize; ROADMAP item 1 drops it with perfbench's patch of it
from .numerics import (SCAN_BLOCK_ROWS, BoxDomain, FitError, OptimizerConfig, QuadratureRule,
                       _scipy_minimize, as_points, design_rule, minimize, tensor_grid)
# cli fits every surface through calibrate.fit_response_surface
from .rkhs import KrrModel, fit_response_surface

ETA_BOUNDS = (1e-8, 1e8)  # noise-to-process variance ratio search range
ETA_GRID_POINTS = 65      # log-eta grid that starts KO's profiling of eta
ETA_NEWTON_STEPS = 6      # Newton steps in log eta from the best grid value


@dataclass
class ComputerModel:
    """Vectorized simulator wrapper.

    ``eval(points, thetas)`` maps an ``(n, d)`` array of control points
    and a ``(k, q)`` batch of parameter vectors to a ``(k, n)`` output
    array, one row per parameter vector; calling the model evaluates one
    parameter vector as a batch of one.  ``smooth_in_theta`` gates
    derivative-based inference, whose theta-derivatives are central
    differences of ``eval``.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_domain: BoxDomain
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


@dataclass(frozen=True)
class CalibrationEstimate:
    theta_hat: np.ndarray
    method: str                      # "L2" | "OLS" | "KO"
    objective_value: float
    covariance: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _residual_objective(model: ComputerModel, points: np.ndarray, target: np.ndarray,
                        reduce: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Every estimator's batched objective: the simulator's ``(k, n)`` residuals
    ``target - model.batch(points, thetas)``, reduced by ``reduce``."""
    return lambda thetas: reduce(target - model.batch(points, thetas))


def coarse_block(model: ComputerModel, points, opt: OptimizerConfig = OptimizerConfig()
                 ) -> np.ndarray | None:
    """``model.batch(points, tensor_grid(model.theta_domain, opt.grid_points))``,
    the block an estimator's ``block`` argument takes, under the errstate of
    the minimizer's evaluations: overflow gives non-finite outputs, not warnings.
    None where the grid is more rows than one scan call (``SCAN_BLOCK_ROWS``),
    so a block never holds more than the scan it replaces."""
    if opt.grid_points ** model.q > SCAN_BLOCK_ROWS:
        return None
    grid = tensor_grid(model.theta_domain, opt.grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        return model.batch(points, grid)


def _minimize_residual(model: ComputerModel, points: np.ndarray, target: np.ndarray,
                       reduce: Callable, opt: OptimizerConfig, block: np.ndarray | None):
    """:func:`minimize` of ``_residual_objective(model, points, target, reduce)``
    over the model's box; a ``block`` at ``points`` gives the coarse values."""
    coarse = None
    if block is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # as minimize's evaluations
            coarse = reduce(target - block)
    return minimize(_residual_objective(model, points, target, reduce), model.theta_domain,
                    opt, coarse=coarse)


def _squares(weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Each row's weighted residual sum ``(diff * diff) @ weights``."""
    return lambda diff: (diff * diff) @ weights


def l2_objective(zeta_nodes: np.ndarray, model: ComputerModel,
                 rule: QuadratureRule) -> Callable[[np.ndarray], np.ndarray]:
    """Batched weighted residual sum ``sum_i w_i (zeta_i - y^s(x_i, theta))^2``
    over ``rule``, ``zeta`` given at ``rule.nodes``: ``(k, q)`` parameters to
    ``(k,)`` values.  A Gauss-Legendre rule gives the squared L2 distance over its
    box (raw ``dz``); unit weights at the design give the residual sum of squares."""
    return _residual_objective(model, rule.nodes, zeta_nodes, _squares(rule.weights))


def l2_calibrate(surface: KrrModel, model: ComputerModel, rule: QuadratureRule,
                 opt: OptimizerConfig = OptimizerConfig(),
                 block: np.ndarray | None = None) -> CalibrationEstimate:
    """L2 calibration: project the fitted surface onto the simulator sweep.

    The reported objective value is the achieved L2 distance (square
    root of the minimized squared distance).  ``meta`` records the
    surface's tuning parameters and flags boundary solutions.  ``block``
    is the optional :func:`coarse_block` at ``rule.nodes``.
    """
    res = _minimize_residual(model, rule.nodes, rkhs.predict(surface, rule.nodes),
                             _squares(rule.weights), opt, block)
    return CalibrationEstimate(
        theta_hat=res.x, method="L2",
        objective_value=float(np.sqrt(max(res.fun, 0.0))),
        meta={"phi": surface.kernel.phi, "lambda": surface.lam,
              "iterations": res.iterations, "boundary": res.on_boundary},
    )


def ols_calibrate(points, y, model: ComputerModel, opt: OptimizerConfig = OptimizerConfig(),
                  block: np.ndarray | None = None) -> CalibrationEstimate:
    """Least-squares calibration; the objective value is the minimized RSS.
    ``block`` is the optional :func:`coarse_block` at ``points``."""
    pts, yv = rkhs._data(points, y)
    res = _minimize_residual(model, pts, yv, _squares(design_rule(pts).weights), opt, block)
    return CalibrationEstimate(
        theta_hat=res.x, method="OLS", objective_value=res.fun,
        meta={"iterations": res.iterations, "boundary": res.on_boundary},
    )


class _ProfiledGpLikelihood:
    """Concentrated negative log marginal likelihood of the GP calibrator,
    a batched function of theta alone.

    With ``(rho, Q)`` the eigenpairs of the surface's jittered Gram matrix,
    ``s = Q^T r(theta)`` for the residual ``r``, ``u = log eta`` (the
    noise-to-process ratio) and ``d = rho + e^u``, the process variance
    profiles to ``tau2 = a / n`` with ``a = sum s^2 / d``, and the objective
    is ``f(u) = (n/2) log tau2 + (1/2) sum log d``.  ``u`` is profiled out per
    theta by Newton steps from the best of a grid over ``ETA_BOUNDS``.
    """

    def __init__(self, surface: KrrModel, model: ComputerModel):
        self.n = surface.n
        self.rho, self.Q = surface.gram_eig
        if self.rho.min() <= 0:
            raise FitError("GP correlation matrix is not positive definite "
                           f"after jitter (smallest eigenvalue {self.rho.min():.3e})")
        self.model, self.design, self.y = model, surface.design, surface.y
        self.u_bounds = np.log(ETA_BOUNDS)
        self.u_grid = np.linspace(*self.u_bounds, ETA_GRID_POINTS)
        d_grid = self.rho + np.exp(self.u_grid)[:, None]
        self.inv_d_grid, self.logdet_grid = 1.0 / d_grid, np.log(d_grid).sum(axis=1)

    def _f(self, a: np.ndarray, logdet: np.ndarray):
        """``(f, tau2)``; ``tau2`` is floored at the smallest normal float where
        ``a`` is 0, and ``f`` is +inf where ``a`` is not finite (NaN or inf output)."""
        finite = np.isfinite(a)
        tau2 = np.where(finite & (a > 0.0), a / self.n, np.finfo(float).tiny)
        return np.where(finite, 0.5 * self.n * np.log(tau2) + 0.5 * logdet, np.inf), tau2

    def _newton_parts(self, s2: np.ndarray, u: np.ndarray):
        """``(f, f', f'', tau2)`` at ``u``, derivatives in ``u``, one row of
        ``s2`` per entry of ``u``."""
        eta = np.exp(u)
        d = self.rho + eta[:, None]
        inv = 1.0 / d
        w1 = s2 * inv
        w2 = w1 * inv
        f, tau2 = self._f(w1.sum(axis=1), np.log(d).sum(axis=1))
        a = self.n * tau2  # floored where s = 0 (m2 = m3 = 0) or f = +inf (no step kept)
        m2, m3 = w2.sum(axis=1) / a, (w2 * inv).sum(axis=1) / a
        f1 = eta * (0.5 * inv.sum(axis=1) - 0.5 * self.n * m2)
        f2 = f1 + eta ** 2 * (0.5 * self.n * (2.0 * m3 - m2 ** 2)
                              - 0.5 * (inv * inv).sum(axis=1))
        return f, f1, f2, tau2

    def profile(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(f, u, tau2)`` for each row of the ``(k, q)`` ``thetas``."""
        return self.profile_residuals(self.y - self.model.batch(self.design, thetas))

    def profile_residuals(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(f, u, tau2)`` at the profiled ``u`` of each row of the ``(k, n)``
        residuals ``r``.  Newton steps are clipped to +-1 and to the bounds and
        kept only where they lower ``f``; where ``f'' <= 0`` the step is 1
        downhill.  The loop ends early once a step moves no row, since from
        the same ``u`` every later step would be the same."""
        s2 = (r @ self.Q) ** 2
        grid_f = self._f(s2 @ self.inv_d_grid.T, self.logdet_grid)[0]
        u = self.u_grid[np.argmin(grid_f, axis=1)]
        parts = self._newton_parts(s2, u)
        for _ in range(ETA_NEWTON_STEPS):
            f, f1, f2, _ = parts
            step = np.divide(-f1, f2, out=-np.sign(f1), where=f2 > 0.0)
            u_new = np.clip(u + np.clip(step, -1.0, 1.0), *self.u_bounds)
            new = self._newton_parts(s2, u_new)
            lower = new[0] < f
            if not lower.any():
                break
            u = np.where(lower, u_new, u)
            parts = tuple(np.where(lower, n, o) for n, o in zip(new, parts))
        return parts[0], u, parts[3]


def ko_calibrate(surface: KrrModel, model: ComputerModel,
                 opt: OptimizerConfig = OptimizerConfig(),
                 block: np.ndarray | None = None) -> CalibrationEstimate:
    """Gaussian-process calibration by profiled maximum likelihood.

    The data, the kernel (its phi picked by leave-one-out) and the
    eigenpairs of its jittered Gram matrix come from the fitted
    ``surface``.  The noise-to-process ratio eta and the process variance
    are profiled out at each theta, and the profiled likelihood is
    minimized over the box by :func:`minimize`, as L2 and OLS are.  The
    objective value is the concentrated negative log likelihood at theta.
    ``block`` is the optional :func:`coarse_block` at ``surface.design``.
    """
    if surface.n < 3:
        raise FitError("GP calibration needs at least 3 observations")
    nll = _ProfiledGpLikelihood(surface, model)
    res = _minimize_residual(model, surface.design, surface.y,
                             lambda r: nll.profile_residuals(r)[0], opt, block)
    with np.errstate(over="ignore", invalid="ignore"):  # as minimize's evaluations
        _, u, tau2 = nll.profile(res.x[None])
    eta, tau2 = float(np.exp(u[0])), float(tau2[0])
    return CalibrationEstimate(
        theta_hat=res.x, method="KO", objective_value=res.fun,
        meta={"phi": surface.kernel.phi, "eta": eta, "tau2": tau2, "sigma2": tau2 * eta,
              "boundary": res.on_boundary, "iterations": res.iterations},
    )
