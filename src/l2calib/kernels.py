"""Correlation kernels and Gram-matrix construction.

Two stationary isotropic families are supported, both parameterized by
an inverse lengthscale ``phi > 0`` and normalized to unit variance:

* ``gaussian``:  ``k(s, t) = exp(-phi * ||s - t||^2)``
* ``matern``:    half-integer smoothness ``nu`` in {3/2, 5/2}, written
  in terms of ``a = 2 * sqrt(nu) * phi * ||s - t||`` as
  ``(1 + a) exp(-a)`` for ``nu = 3/2`` and
  ``(1 + a + a^2/3) exp(-a)`` for ``nu = 5/2``.

The half-integer restriction keeps evaluation in closed form; ``r = 0``
is an exact branch returning 1.  Process variance is deliberately not a
kernel parameter: consumers that need one (the GP calibrator) carry it
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_points

SUPPORTED_NU = (1.5, 2.5)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a correlation kernel."""

    family: str
    phi: float
    nu: float | None = None

    def __post_init__(self):
        if self.family not in ("gaussian", "matern"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.phi) and self.phi > 0):
            raise ValueError(f"phi must be a positive finite number, got {self.phi}")
        if self.family == "matern":
            if self.nu not in SUPPORTED_NU:
                raise ValueError(f"matern nu must be one of {SUPPORTED_NU}, got {self.nu}")
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the matern family")


def _corr_from_sqdist(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Correlation values from squared distances (array of any shape)."""
    if spec.family == "gaussian":
        return np.exp(-spec.phi * d2)
    a = 2.0 * np.sqrt(spec.nu) * spec.phi * np.sqrt(d2)
    if spec.nu == 1.5:
        return (1.0 + a) * np.exp(-a)
    return (1.0 + a + a * a / 3.0) * np.exp(-a)


def _pairwise_sqdist(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    diff = pa[:, None, :] - pb[None, :, :]
    return np.sum(diff * diff, axis=2)


def cross_gram(spec: KernelSpec, a, b) -> np.ndarray:
    """Correlation matrix between two point sets, shape ``(len(a), len(b))``."""
    pa = as_points(a)
    pb = as_points(b, pa.shape[1])
    return _corr_from_sqdist(spec, _pairwise_sqdist(pa, pb))


def sqdist(points) -> np.ndarray:
    """Pairwise squared distances of a finite point set, shape ``(n, n)``.

    Every kernel is a function of the squared distance, so one matrix
    serves the Gram matrices of a whole phi grid.
    """
    pts = as_points(points)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return _pairwise_sqdist(pts, pts)


def gram(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Symmetric correlation matrix with exact unit diagonal, from the
    squared distances ``sqdist(points)`` of a point set."""
    K = _corr_from_sqdist(spec, d2)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K
