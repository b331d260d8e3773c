"""Calibration toolkit for imperfect computer models.

Estimates the physical response surface by penalized kernel regression,
calibrates simulator parameters by L2 projection, least squares, or a
frequentist Gaussian-process method, quantifies uncertainty with
plug-in sandwich covariances, and replicates the bundled synthetic
studies through a deterministic Monte-Carlo harness.
"""

from .calibrate import (CalibrationEstimate, ComputerModel, FixedPhi,
                        KernelConfig, LooCvPhi, emulator_model, ko_calibrate,
                        l2_calibrate, ols_calibrate)
from .inference import (EfficiencyGap, SandwichEstimate, efficiency_gap,
                        estimate_sandwich, l2_cov, ols_cov)
from .kernels import KernelSpec, gram
from .numerics import (BoxDomain, OptimizerConfig, QuadratureRule, fd_grad,
                       fd_hess, gauss_legendre, l2_distance_sq, minimize)
from .rkhs import (FixedLambda, GcvLambda, KrrConfig, KrrModel, RateLambda,
                   default_lambda, fit, gcv_select, interpolate_emulator,
                   loo_cv_phi, predict, rkhs_norm_sq)
from .testbed import (SyntheticSystem, discrepancy_closed_form, generate,
                      make_system, ys_example1, ys_example2, zeta_true)

__version__ = "0.1.0"

__all__ = [
    "BoxDomain", "CalibrationEstimate", "ComputerModel", "EfficiencyGap",
    "FixedLambda", "FixedPhi", "GcvLambda", "KernelConfig", "KernelSpec",
    "KrrConfig", "KrrModel", "LooCvPhi", "OptimizerConfig", "QuadratureRule",
    "RateLambda", "SandwichEstimate", "SyntheticSystem",
    "default_lambda", "discrepancy_closed_form", "efficiency_gap",
    "emulator_model", "estimate_sandwich", "fd_grad", "fd_hess", "fit",
    "gauss_legendre", "gcv_select", "generate", "gram", "interpolate_emulator",
    "ko_calibrate", "l2_calibrate", "l2_cov", "l2_distance_sq", "loo_cv_phi",
    "make_system", "minimize", "ols_calibrate", "ols_cov", "predict",
    "rkhs_norm_sq", "ys_example1", "ys_example2", "zeta_true",
]
