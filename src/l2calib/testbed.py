"""Synthetic calibration systems for the bundled numerical studies.

The physical truth is ``zeta(x) = exp(x/10) sin(x)`` on (0, 2*pi), and
two simulators share the sweep term ``sin(theta*x) + cos(theta*x)``:

* system 1 multiplies it by ``|theta + 1|`` - the simulator equals the
  truth exactly at ``theta = -1`` (perfect model, kinked in theta);
* system 2 multiplies it by ``sqrt(theta^2 - theta + 1)`` - strictly
  positive, so no parameter reproduces the truth (imperfect model) and
  the squared L2 distance to the truth has the closed form
  ``(theta^2 - theta + 1) * (2*pi - (cos(4*pi*theta) - 1) / (2*theta))``
  with a removable singularity at ``theta = 0``.

Observations are the truth plus i.i.d. centered Gaussian noise on
either the fixed 51-point grid ``x_i = 2*pi*i/50`` or a uniform random
design, with one reproducible stream per (seed, replication) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calibrate import ComputerModel
from .numerics import BoxDomain, as_points

OMEGA = BoxDomain(lower=(0.0,), upper=(2.0 * np.pi,))
DEFAULT_THETA_DOMAIN = BoxDomain(lower=(-2.0,), upper=(2.0,))

FIXED_GRID_N = 51

# Minimizer of the closed-form system-2 discrepancy on [-2, 2], solved
# to ~1e-10 by grid scan plus golden-section refinement.
THETA_STAR_EXAMPLE2 = -0.17892537483327925


def zeta_true(x):
    """True process ``exp(x/10) * sin(x)``, vectorized."""
    x = np.asarray(x, dtype=float)
    return np.exp(x / 10.0) * np.sin(x)


def _sweep(x, theta):
    return np.sin(theta * x) + np.cos(theta * x)


def ys_example1(x, theta: float):
    """Perfect-model simulator: truth minus ``|theta+1|`` times the sweep."""
    x = np.asarray(x, dtype=float)
    return zeta_true(x) - np.abs(theta + 1.0) * _sweep(x, theta)


def ys_example2(x, theta: float):
    """Imperfect-model simulator: amplitude ``sqrt(theta^2 - theta + 1)``."""
    x = np.asarray(x, dtype=float)
    return zeta_true(x) - np.sqrt(theta * theta - theta + 1.0) * _sweep(x, theta)


def ys_example2_grad(x, theta: float):
    """Analytic d/dtheta of the imperfect-model simulator."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(theta * theta - theta + 1.0)
    ds = (2.0 * theta - 1.0) / (2.0 * s)
    dsweep = x * np.cos(theta * x) - x * np.sin(theta * x)
    return -ds * _sweep(x, theta) - s * dsweep


def _trig_factor(theta: float) -> float:
    # (2*pi - (cos(4*pi*theta) - 1) / (2*theta)); the series branch near
    # zero avoids catastrophic cancellation in the quotient.
    if abs(theta) < 1e-6:
        return 2.0 * np.pi + 4.0 * np.pi ** 2 * theta
    return 2.0 * np.pi - (np.cos(4.0 * np.pi * theta) - 1.0) / (2.0 * theta)


def discrepancy_closed_form(theta: float) -> float:
    """Closed-form squared L2 distance of simulator 2 from the truth."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return (theta * theta - theta + 1.0) * _trig_factor(theta)


def discrepancy_example1_closed_form(theta: float) -> float:
    """Same trigonometric integral with the perfect model's amplitude."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return (theta + 1.0) ** 2 * _trig_factor(theta)


def example1_model(theta_domain: BoxDomain = DEFAULT_THETA_DOMAIN) -> ComputerModel:
    """Simulator 1 wrapped for the calibrators; kinked at theta = -1."""
    return ComputerModel(
        eval=lambda pts, th: ys_example1(pts[:, 0], float(th[0])),
        theta_domain=theta_domain,
        smooth_in_theta=False,
        name="example1",
    )


def example2_model(theta_domain: BoxDomain = DEFAULT_THETA_DOMAIN) -> ComputerModel:
    """Simulator 2 wrapped for the calibrators, with analytic gradient."""
    return ComputerModel(
        eval=lambda pts, th: ys_example2(pts[:, 0], float(th[0])),
        theta_domain=theta_domain,
        grad=lambda pts, th: ys_example2_grad(pts[:, 0], float(th[0]))[:, None],
        smooth_in_theta=True,
        name="example2",
    )


@dataclass(frozen=True)
class SyntheticSystem:
    """Truth, simulator, noise level and design for one study setup."""

    name: str
    true_process: Callable[[np.ndarray], np.ndarray]   # (n, d) -> (n,)
    computer_model: ComputerModel
    theta_star: float
    noise_sigma2: float = 0.1
    design: str = "fixed_grid"          # "fixed_grid" | "uniform_random"
    n: int = FIXED_GRID_N
    domain: BoxDomain = OMEGA

    def __post_init__(self):
        if self.design not in ("fixed_grid", "uniform_random"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.design == "fixed_grid" and self.n != FIXED_GRID_N:
            raise ValueError(f"the fixed grid has {FIXED_GRID_N} points, got n={self.n}")
        if self.noise_sigma2 < 0:
            raise ValueError("noise variance must be nonnegative")
        if self.n < 1:
            raise ValueError("need at least one design point")


# name -> (simulator wrapper, theta*, closed-form squared L2 discrepancy)
EXAMPLES = {
    "example1": (example1_model, -1.0, discrepancy_example1_closed_form),
    "example2": (example2_model, THETA_STAR_EXAMPLE2, discrepancy_closed_form),
}


def make_system(example: str, noise_sigma2: float,
                design: str = "fixed_grid", n: int = FIXED_GRID_N,
                theta_domain: BoxDomain = DEFAULT_THETA_DOMAIN) -> SyntheticSystem:
    """Assemble one of the two bundled systems."""
    if example not in EXAMPLES:
        raise ValueError(f"unknown example {example!r}")
    make_model, theta_star, _ = EXAMPLES[example]
    return SyntheticSystem(
        name=example,
        true_process=lambda pts: zeta_true(as_points(pts)[:, 0]),
        computer_model=make_model(theta_domain),
        theta_star=theta_star,
        noise_sigma2=noise_sigma2,
        design=design,
        n=n,
    )


def replication_rng(seed: int, replication_index: int) -> np.random.Generator:
    """Counter-based stream derived deterministically from (seed, index).

    Philox keyed by a seed sequence over both integers gives pairwise
    distinct, reproducible streams for every replication.
    """
    ss = np.random.SeedSequence([int(seed), int(replication_index)])
    return np.random.Generator(np.random.Philox(ss))


def generate(system: SyntheticSystem, seed: int,
             replication_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw one dataset ``(points, responses)`` for a replication.

    The fixed grid is ``x_i = 2*pi*i/50`` (51 points); the random design
    draws ``n`` i.i.d. uniform points on the control domain.  Responses
    are the truth plus centered Gaussian noise with the configured
    variance.  The same (seed, index) always produces the same dataset.
    """
    rng = replication_rng(seed, replication_index)
    if system.design == "fixed_grid":
        x = 2.0 * np.pi * np.arange(FIXED_GRID_N) / (FIXED_GRID_N - 1.0)
    else:
        lo, hi = system.domain.lower[0], system.domain.upper[0]
        x = rng.uniform(lo, hi, system.n)
    pts = as_points(x)
    y = system.true_process(pts)
    if system.noise_sigma2 > 0:
        y = y + rng.normal(0.0, np.sqrt(system.noise_sigma2), pts.shape[0])
    return pts, y
