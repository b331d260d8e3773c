"""Plug-in sandwich covariances for the L2 and least-squares calibrators.

Writing ``g = d(simulator)/d(theta)`` and ``delta = surface - simulator``
at the estimate, the two building blocks are

    W = E[g g^T]                 (positive semidefinite)
    V = E[2 (g g^T - delta * H)] (objective curvature, H the theta-Hessian)

with the expectation taken under the uniform distribution on the
control domain.  It is estimated as a weighted mean over the nodes of a
rule, divided by the sum of its weights: unit weights at the design
points give the plug-in estimate, a quadrature rule over the domain the
population oracle.  The asymptotic covariances are one sandwich, one
bread ``V`` and two middles:

    cov(L2)  = (1 / n) V^{-1} (4 sigma^2 W) V^{-1}
    cov(OLS) = (1 / n) V^{-1} Sigma2 V^{-1},
    Sigma2   = 4 sigma^2 W + 4 E[delta^2 g g^T]

so cov(OLS) - cov(L2) = (1 / n) V^{-1} (Sigma2 - 4 sigma^2 W) V^{-1}, which
``efficiency_gap(4 sigma^2 W, Sigma2)`` checks: the least-squares spread
exceeds the L2 spread exactly when the model discrepancy is nonzero where
the sweep moves.  The plug-in estimate reads the design, the responses
and sigma^2 from the fitted surface alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rkhs
from .calibrate import ComputerModel
from .numerics import FitError, QuadratureRule, design_rule, fd_derivatives
from .rkhs import KrrModel


class SingularCurvatureError(np.linalg.LinAlgError):
    """The estimated curvature matrix is not invertible.

    The sandwich form needs an invertible second derivative of the
    population objective at the estimate; a singular estimate usually
    means the parameter is not locally identified.
    """


@dataclass(frozen=True)
class SandwichEstimate:
    """Everything the sandwich formulas produce for one fit."""

    V_hat: np.ndarray
    W_hat: np.ndarray
    sigma2_hat: float
    Sigma2_hat: np.ndarray
    cov_l2: np.ndarray
    cov_ols: np.ndarray
    n: int

    @property
    def se_l2(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov_l2))

    @property
    def se_ols(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov_ols))


@dataclass(frozen=True)
class Expansion:
    """Simulator derivatives and discrepancy at theta on a rule's nodes.

    ``G`` (n, q) and ``H`` (n, q, q) are the theta-gradient and Hessian,
    ``delta`` (n,) is surface minus simulator.
    """

    G: np.ndarray
    H: np.ndarray
    delta: np.ndarray
    weights: np.ndarray

    def _sum_ggT(self, u: np.ndarray) -> np.ndarray:
        return (self.G * u[:, None]).T @ self.G

    def W(self) -> np.ndarray:
        """``E[g g^T]``."""
        return self._sum_ggT(self.weights) / float(np.sum(self.weights))

    def V(self) -> np.ndarray:
        """Curvature ``E[2 (g g^T - delta * H)]``, symmetrized."""
        w = self.weights
        curv = self._sum_ggT(w) - np.einsum("i,ijk->jk", w * self.delta, self.H)
        V = 2.0 * curv / float(np.sum(w))
        return 0.5 * (V + V.T)

    def Sigma2(self, sigma2: float) -> np.ndarray:
        """Least-squares middle matrix ``4 sigma^2 W + 4 E[delta^2 g g^T]``."""
        w = self.weights
        extra = 4.0 * self._sum_ggT(w * self.delta ** 2) / float(np.sum(w))
        S = 4.0 * sigma2 * self.W() + extra
        return 0.5 * (S + S.T)


def expand(model: ComputerModel, zeta: Callable[[np.ndarray], np.ndarray],
           theta, rule: QuadratureRule) -> Expansion:
    """Evaluate the sandwich ingredients of ``model`` at ``theta`` in one
    simulator call: the central-difference stencil of :func:`fd_derivatives`."""
    if not model.smooth_in_theta:
        raise ValueError(
            f"model {model.name!r} is flagged non-smooth in theta; "
            "derivative-based covariance estimation is not valid for it")
    ys, G, H = fd_derivatives(lambda thetas: model.batch(rule.nodes, thetas), theta)
    if np.any(~np.isfinite(G)):
        raise FitError("model gradient is non-finite at some design point")
    if np.any(~np.isfinite(H)):
        raise FitError("model derivatives are non-finite at some design point")
    delta = np.asarray(zeta(rule.nodes), dtype=float).reshape(-1) - ys
    return Expansion(G=G, H=H, delta=delta, weights=rule.weights)


def _sandwich(V_hat, M, n: int) -> np.ndarray:
    """``V^{-1} M V^{-1} / n``, symmetrized; the bread ``V`` must be invertible."""
    V = np.atleast_2d(np.asarray(V_hat, dtype=float))
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularCurvatureError(
            f"curvature matrix is singular or near-singular (cond={cond:.3e}); "
            "the asymptotic covariance requires invertible curvature at the estimate")
    Vinv = np.linalg.inv(V)
    cov = (Vinv @ np.atleast_2d(np.asarray(M, dtype=float)) @ Vinv) / n
    return 0.5 * (cov + cov.T)


def l2_cov(V_hat, W_hat, sigma2_hat: float, n: int) -> np.ndarray:
    """Covariance of the L2 estimate: ``(1/n) V^{-1} (4 sigma^2 W) V^{-1}``."""
    return _sandwich(V_hat, 4.0 * sigma2_hat * np.asarray(W_hat, dtype=float), n)


def ols_cov(V_hat, Sigma2_hat, n: int) -> np.ndarray:
    """Covariance of the least-squares estimate: ``(1/n) V^{-1} Sigma2 V^{-1}``."""
    return _sandwich(V_hat, Sigma2_hat, n)


@dataclass(frozen=True)
class EfficiencyGap:
    gap: np.ndarray
    min_eigenvalue: float
    psd: bool


def efficiency_gap(Sigma1_hat, Sigma2_hat, tol: float = 1e-8) -> EfficiencyGap:
    """``Sigma2 - Sigma1`` with a PSD verdict.

    A nonnegative gap certifies that least squares cannot beat the L2
    calibration in asymptotic spread.
    """
    S1 = np.atleast_2d(np.asarray(Sigma1_hat, dtype=float))
    S2 = np.atleast_2d(np.asarray(Sigma2_hat, dtype=float))
    if S1.shape != S2.shape:
        raise ValueError(f"shape mismatch: {S1.shape} vs {S2.shape}")
    gap = S2 - S1
    gap = 0.5 * (gap + gap.T)
    min_eig = float(np.linalg.eigvalsh(gap).min())
    return EfficiencyGap(gap=gap, min_eigenvalue=min_eig, psd=min_eig >= -tol)


def estimate_sandwich(zeta_hat: KrrModel, model: ComputerModel,
                      theta_hat) -> SandwichEstimate:
    """Assemble every sandwich quantity from the fitted surface at ``theta_hat``."""
    s2 = rkhs.sigma2_hat(zeta_hat)
    ex = expand(model, lambda p: rkhs.predict(zeta_hat, p), theta_hat,
                design_rule(zeta_hat.design))
    n = zeta_hat.n
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves a non-finite cov
        W, V, S2m = ex.W(), ex.V(), ex.Sigma2(s2)
        cov_l2, cov_ols = l2_cov(V, W, s2, n), ols_cov(V, S2m, n)
    return SandwichEstimate(V_hat=V, W_hat=W, sigma2_hat=s2, Sigma2_hat=S2m,
                            cov_l2=cov_l2, cov_ols=cov_ols, n=n)
