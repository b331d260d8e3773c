"""Acceptance gate: every release-blocking criterion with its tolerance.

The Monte-Carlo criteria are statistical envelopes evaluated on pinned
seeds so the whole gate is deterministic.  Noise levels follow the
bundled study tables, which label settings by the noise standard
deviation: the low-noise rows use std 0.1 (variance 0.01) and the
high-noise rows std 1.  The sandwich-validity run uses variance 0.1
directly since its plug-in formula consumes the variance.
"""

import json
import time

import numpy as np
import pytest

from l2calib import inference, rkhs, testbed
from l2calib.cli import RunConfig, discrepancy_curve, main, simulate
from l2calib.kernels import KernelSpec, gram, sqdist
from l2calib.numerics import BoxDomain, OptimizerConfig, gauss_legendre, minimize
from l2calib.rkhs import (KernelConfig, fit_response_surface, fit_with_rule,
                          gcv_select, predict, rkhs_norm_sq)

SEED = 2
THETA_STAR = testbed.THETA_STAR_EXAMPLE2
LOW_NOISE_VAR = 0.01   # table label "0.1" is the noise std
HIGH_NOISE_VAR = 1.0


def row(report, method):
    return next(r for r in report.rows if r.method == method)


@pytest.fixture(scope="module")
def table1_report():
    cfg = RunConfig(example="example1", methods=("L2", "OLS", "KO"),
                    sigma2=(LOW_NOISE_VAR,), replications=200, seed=SEED)
    return simulate(cfg, log=None)


@pytest.fixture(scope="module")
def table2_report():
    cfg = RunConfig(example="example2", methods=("L2", "OLS", "KO"),
                    sigma2=(LOW_NOISE_VAR,), replications=200, seed=SEED)
    return simulate(cfg, log=None)


@pytest.fixture(scope="module")
def efficiency_report():
    cfg = RunConfig(example="example2", methods=("L2", "OLS"),
                    sigma2=(HIGH_NOISE_VAR,), replications=500, seed=SEED)
    return simulate(cfg, log=None)


@pytest.fixture(scope="module")
def sandwich_report():
    cfg = RunConfig(example="example2", methods=("L2", "OLS"), sigma2=(0.1,),
                    replications=300, seed=SEED, design="uniform_random",
                    design_n=201)
    return simulate(cfg, log=None)


def test_criterion_1_closed_form_consistency():
    t0 = time.perf_counter()
    rows = discrepancy_curve("example2", -2.0, 2.0, 401)
    elapsed = time.perf_counter() - t0
    rel = np.abs(rows[:, 1] - rows[:, 2]) / np.abs(rows[:, 1])
    inner = np.abs(rows[:, 0]) < 1e-3
    worst_outer = rel[~inner].max()
    worst_inner = rel[inner].max() if inner.any() else 0.0
    print(f"[criterion 1] outer rel err {worst_outer:.3e} (tol 1e-9), "
          f"inner {worst_inner:.3e} (tol 1e-6), {elapsed:.2f}s")
    assert worst_outer <= 1e-9
    assert worst_inner <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_theta_star_recovery():
    t0 = time.perf_counter()
    res = minimize(lambda t: np.array([testbed.discrepancy_closed_form(v) for v in t[:, 0]]),
                   BoxDomain((-2.0,), (2.0,)), OptimizerConfig())
    elapsed = time.perf_counter() - t0
    print(f"[criterion 2] argmin {res.x[0]:+.6f} (target -0.1789 +- 5e-4), "
          f"{elapsed:.2f}s")
    assert res.x[0] == pytest.approx(-0.1789, abs=5e-4)
    assert elapsed < 1.0


def test_criterion_3_perfect_model_table(table1_report):
    total = sum(r.wall_time_s for r in table1_report.rows)
    for method in ("L2", "OLS", "KO"):
        r = row(table1_report, method)
        print(f"[criterion 3] {method}: mean {r.mean:+.5f} (tol -1 +- 0.01), "
              f"MSE {r.mse:.3e} (tol 1e-3)")
        assert abs(r.mean - (-1.0)) <= 0.01
        assert r.mse <= 1e-3
    print(f"[criterion 3] method time {total:.0f}s (budget 180s)")
    assert total < 180.0


def test_criterion_4_imperfect_model_table(table2_report):
    l2 = row(table2_report, "L2")
    ols = row(table2_report, "OLS")
    ko = row(table2_report, "KO")
    print(f"[criterion 4] L2 mean {l2.mean:+.5f} sd {l2.sd:.3e}; "
          f"OLS mean {ols.mean:+.5f}; KO bias {abs(ko.mean - (-0.1789)):.4f}")
    assert abs(l2.mean - (-0.1789)) <= 0.01
    assert 1e-3 <= l2.sd <= 6e-3
    assert abs(ols.mean - (-0.1789)) <= 0.01
    # the GP calibrator is structurally biased on the imperfect model;
    # the bound is one-sided because its exact variant is a documented
    # implementation decision
    assert abs(ko.mean - (-0.1789)) >= 0.03


def test_criterion_5_efficiency_ordering(efficiency_report):
    l2 = row(efficiency_report, "L2")
    ols = row(efficiency_report, "OLS")
    total = sum(r.wall_time_s for r in efficiency_report.rows)
    ratio = l2.sd / ols.sd
    print(f"[criterion 5] SD(L2)={l2.sd:.4g} SD(OLS)={ols.sd:.4g} "
          f"ratio {ratio:.3f} (tol <= 0.9); method time {total:.0f}s (budget 600s)")
    assert ratio <= 0.9
    assert total < 600.0


def test_criterion_6_sandwich_validity(sandwich_report):
    sigma2 = 0.1
    n = 201
    rule = gauss_legendre(testbed.OMEGA, 512)
    model = testbed.example2_model()
    theta = np.array([THETA_STAR])
    zeta = lambda p: testbed.zeta_true(p[:, 0])
    ex = inference.expand(model, zeta, theta, rule)
    W, V, S2 = ex.W(), ex.V(), ex.Sigma2(sigma2)
    plug = {"L2": inference.l2_cov(V, W, sigma2, n)[0, 0],
            "OLS": inference.ols_cov(V, S2, n)[0, 0]}
    for method in ("L2", "OLS"):
        r = row(sandwich_report, method)
        ratio = r.sd ** 2 / plug[method]
        print(f"[criterion 6] {method}: empirical var {r.sd ** 2:.4g}, "
              f"plug-in {plug[method]:.4g}, ratio {ratio:.3f} (tol [1/1.5, 1.5])")
        assert 1.0 / 1.5 <= ratio <= 1.5


def _prop_gram_psd():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(2, 50)
        pts = rng.uniform(-4, 4, (n, rng.integers(1, 3)))
        spec = KernelSpec("gaussian", float(rng.uniform(0.1, 4.0)))
        assert np.linalg.eigvalsh(gram(spec, sqdist(pts))).min() >= -1e-8 * n


def _prop_representer_equivalence():
    rng = np.random.default_rng(1)
    spec = KernelSpec("gaussian", 1.0)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        x = rng.uniform(0, 6, (n, 1))
        y = np.sin(x[:, 0]) + rng.normal(0, 0.4, n)
        lam = float(rng.uniform(1e-5, 1e-1))
        m = fit_with_rule(x, y, spec, (lam,), jitter=0.0)
        oracle = np.linalg.solve(gram(spec, sqdist(x)) + n * lam * np.eye(n), y)
        assert np.allclose(m.coeffs, oracle, rtol=1e-10, atol=1e-12)


def _prop_norm_monotone():
    x = np.linspace(0.1, 6.1, 25)[:, None]
    y = testbed.zeta_true(x[:, 0]) + np.random.default_rng(2).normal(0, 0.3, 25)
    spec = KernelSpec("gaussian", 1.0)
    norms = [rkhs_norm_sq(fit_with_rule(x, y, spec, (lam,)))
             for lam in np.logspace(-7, 0, 15)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def _prop_interpolation():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.05, 6.2, 10))[:, None]
    y = testbed.zeta_true(x[:, 0])
    m = fit_with_rule(x, y, KernelSpec("gaussian", 1.0), (1e-12,))
    assert np.abs(m.fitted - y).max() <= 1e-6


def _prop_sigma2_matrix_psd():
    system = testbed.make_system("example2", LOW_NOISE_VAR)
    pts, y = testbed.generate(system, 77, 0)
    zeta_hat = fit_response_surface(pts, y, KernelConfig())
    theta = np.array([THETA_STAR])
    ex = inference.expand(system.computer_model, lambda p: predict(zeta_hat, p),
                          theta, inference.design_rule(pts))
    s2 = rkhs.sigma2_hat(pts, y, zeta_hat)
    W, S2 = ex.W(), ex.Sigma2(s2)
    assert np.linalg.eigvalsh(S2 - 4.0 * s2 * W).min() >= -1e-8


def _prop_perfect_model_identity():
    model = testbed.example2_model()
    pts = np.linspace(0.05, 6.2, 150)[:, None]
    theta = np.array([THETA_STAR])
    surface = lambda p: model(p, theta)
    ex = inference.expand(model, surface, theta, inference.design_rule(pts))
    W, V, S2 = ex.W(), ex.V(), ex.Sigma2(0.3)
    assert np.allclose(S2, 4.0 * 0.3 * W, rtol=1e-12)
    assert np.allclose(inference.ols_cov(V, S2, 150),
                       inference.l2_cov(V, W, 0.3, 150), rtol=1e-12)


def _prop_gradient_consistency():
    x = np.linspace(0.2, 6.1, 33)
    for theta in (-1.5, 0.0, 0.7):
        h = 1e-6
        fd = (testbed.ys_example2(x, theta + h)
              - testbed.ys_example2(x, theta - h)) / (2 * h)
        got = testbed.ys_example2_grad(x, theta)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)


def _prop_gcv_dense_oracle():
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(0, 6, 20))[:, None]
    y = np.sin(x[:, 0]) + rng.normal(0, 0.3, 20)
    spec = KernelSpec("gaussian", 1.0)
    grid = tuple(np.logspace(-6, 0, 7))
    _, scores = gcv_select(x, y, spec, grid, jitter=0.0)
    K = gram(spec, sqdist(x))
    n = 20
    for lam, got in zip(grid, scores):
        A = K @ np.linalg.inv(K + n * lam * np.eye(n))
        resid = (np.eye(n) - A) @ y
        want = (resid @ resid / n) / (np.trace(np.eye(n) - A) / n) ** 2
        assert got == pytest.approx(want, rel=1e-8)


def test_criterion_7_property_suites():
    props = [
        ("gram PSD on random point sets", _prop_gram_psd),
        ("representer equivalence to 1e-10", _prop_representer_equivalence),
        ("norm monotone in lambda", _prop_norm_monotone),
        ("interpolation at lambda=1e-12", _prop_interpolation),
        ("Sigma2 - 4*s2*W PSD", _prop_sigma2_matrix_psd),
        ("perfect-model variance identity", _prop_perfect_model_identity),
        ("analytic vs fd gradient 1e-6", _prop_gradient_consistency),
        ("GCV vs dense hat-matrix oracle 1e-8", _prop_gcv_dense_oracle),
    ]
    for name, prop in props:
        t0 = time.perf_counter()
        prop()
        elapsed = time.perf_counter() - t0
        print(f"[criterion 7] {name}: ok in {elapsed:.2f}s (budget 10s)")
        assert elapsed < 10.0


def test_criterion_8_determinism(tmp_path):
    doc = {"example": "example2", "methods": ["L2", "OLS", "KO"],
           "sigma2": [LOW_NOISE_VAR], "replications": 6, "seed": SEED,
           "design": {"kind": "fixed_grid", "n": 51}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                 "--workers", "1", "--check"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                 "--workers", "3", "--check"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    print(f"[criterion 8] byte-identical across worker counts: {identical}")
    assert identical
