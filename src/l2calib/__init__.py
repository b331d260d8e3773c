"""Calibration toolkit for imperfect computer models.

Estimates the physical response surface by penalized kernel regression,
calibrates simulator parameters by L2 projection, least squares, or a
frequentist Gaussian-process method, quantifies uncertainty with
plug-in sandwich covariances, and replicates the bundled synthetic
studies through a deterministic Monte-Carlo harness.
"""

from .calibrate import (CalibrationEstimate, ComputerModel, ko_calibrate,
                        l2_calibrate, ols_calibrate)
from .inference import efficiency_gap, estimate_sandwich
from .numerics import BoxDomain, OptimizerConfig, gauss_legendre
from .rkhs import KernelConfig, fit_response_surface, fit_with_rule

__version__ = "0.1.0"

__all__ = [
    "BoxDomain", "CalibrationEstimate", "ComputerModel", "KernelConfig",
    "OptimizerConfig", "efficiency_gap", "estimate_sandwich",
    "fit_response_surface", "fit_with_rule", "gauss_legendre", "ko_calibrate",
    "l2_calibrate", "ols_calibrate",
]
