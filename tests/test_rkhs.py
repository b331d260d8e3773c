import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import rkhs, testbed
from l2calib.kernels import KernelSpec, gram
from l2calib.rkhs import (FixedLambda, KrrConfig, RateLambda,
                          default_lambda, fit, fit_with_rule, gcv_select,
                          interpolate_emulator, loo_cv_phi, loo_scores_phi,
                          predict, rkhs_norm_sq, sigma2_hat)

GAUSS = KernelSpec("gaussian", 1.0)


def smooth_data(n=15, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.05, 2 * np.pi - 0.05, n))
    y = testbed.zeta_true(x)
    if noise:
        y = y + rng.normal(0, noise, n)
    return x[:, None], y


class TestFit:
    def test_one_point_ridge(self):
        m = fit([0.0], [2.0], GAUSS, 1.0, jitter=0.0)
        # (1 + 1*1) u = 2
        assert m.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        assert m.fitted[0] == pytest.approx(1.0, rel=1e-14)

    def test_interpolation_limit(self):
        x, y = smooth_data(10, seed=3)
        m = fit(x, y, GAUSS, 1e-12)
        assert np.abs(m.fitted - y).max() <= 1e-6

    def test_nugget_system_equivalence(self):
        # representer identity: (K + n*lam*I)u = y is the nugget solve
        # with sigma^2 = n*lam; oracle is a direct dense solve.
        x, y = smooth_data(12, seed=5, noise=0.3)
        lam = 1e-3
        m = fit(x, y, GAUSS, lam, jitter=0.0)
        K = gram(GAUSS, x)
        sigma2 = len(y) * lam
        oracle = np.linalg.solve(K + sigma2 * np.eye(len(y)), y)
        assert np.allclose(m.coeffs, oracle, rtol=1e-10, atol=1e-13)

    def test_coefficients_solve_penalized_system(self):
        x, y = smooth_data(20, seed=7, noise=0.2)
        lam = 1e-4
        m = fit(x, y, GAUSS, lam)
        K = gram(GAUSS, x)
        resid = (K + len(y) * lam * np.eye(len(y))) @ m.coeffs - y
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_rejects_nan_responses(self):
        with pytest.raises(rkhs.FitError, match="NaN"):
            fit([0.0, 1.0], [1.0, np.nan], GAUSS, 0.1)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            fit([0.0], [1.0], GAUSS, 0.0)

    def test_singular_system_names_eigenvalue(self):
        # duplicated points make K exactly singular; lambda tiny enough
        # that the shift cannot rescue it without jitter
        x = np.array([[0.5], [0.5], [1.0]])
        with pytest.raises(rkhs.FitError, match="eigenvalue"):
            fit(x, [1.0, 1.0, 2.0], GAUSS, 1e-320, jitter=0.0)


class TestPredict:
    def test_reproduces_fitted_at_design(self):
        # agreement is limited only by the stabilizing diagonal jitter
        x, y = smooth_data(12, seed=1, noise=0.1)
        m = fit(x, y, GAUSS, 1e-3)
        assert np.allclose(predict(m, x), m.fitted, rtol=1e-9, atol=1e-9)
        m0 = fit(x, y, GAUSS, 1e-3, jitter=0.0)
        assert np.allclose(predict(m0, x), m0.fitted, rtol=1e-12, atol=1e-13)

    def test_zero_coefficients_predict_zero(self):
        x, _ = smooth_data(8, seed=2)
        m = fit(x, np.zeros(8), GAUSS, 0.5)
        assert np.all(m.coeffs == 0.0)
        assert np.all(predict(m, np.linspace(0, 6, 30)) == 0.0)

    def test_matches_double_loop_oracle(self):
        x, y = smooth_data(15, seed=4, noise=0.2)
        m = fit(x, y, GAUSS, 1e-3)
        xs = np.linspace(0.2, 6.0, 9)
        got = predict(m, xs)
        want = np.array([
            sum(m.coeffs[i] * np.exp(-GAUSS.phi * float(np.sum((x[i] - xx) ** 2)))
                for i in range(len(y)))
            for xx in xs])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


class TestNorm:
    def test_zero_function(self):
        x, _ = smooth_data(6)
        m = fit(x, np.zeros(6), GAUSS, 0.1)
        assert rkhs_norm_sq(m) == 0.0

    def test_one_point_norm(self):
        m = fit([0.0], [2.0], GAUSS, 1.0, jitter=0.0)
        assert rkhs_norm_sq(m) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_in_lambda(self):
        x, y = smooth_data(20, seed=9, noise=0.3)
        lams = np.logspace(-6, 0, 13)
        norms = [rkhs_norm_sq(fit(x, y, GAUSS, lam)) for lam in lams]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestGcv:
    def test_zero_responses_tie_breaks_to_largest(self):
        x, _ = smooth_data(10)
        grid = (1e-4, 1e-2, 1.0)
        lam, scores = gcv_select(x, np.zeros(10), GAUSS, grid)
        assert np.all(scores == 0.0)
        assert lam == 1.0

    def test_scores_match_dense_hat_matrix_oracle(self):
        x, y = smooth_data(18, seed=11, noise=0.2)
        n = len(y)
        grid = tuple(np.logspace(-6, 0, 7))
        _, scores = gcv_select(x, y, GAUSS, grid, jitter=0.0)
        K = gram(GAUSS, x)
        for lam, got in zip(grid, scores):
            A = K @ np.linalg.inv(K + n * lam * np.eye(n))
            resid = (np.eye(n) - A) @ y
            want = (resid @ resid / n) / (np.trace(np.eye(n) - A) / n) ** 2
            assert got == pytest.approx(want, rel=1e-8)

    def test_example2_selection_interior(self):
        sys2 = testbed.make_system("example2", 0.1)
        pts, y = testbed.generate(sys2, 101, 0)
        grid = tuple(np.logspace(-8, 0, 25))
        lam, _ = gcv_select(pts, y, KernelSpec("gaussian", 0.5), grid)
        assert grid[0] < lam < grid[-1]

    def test_shift_invariance(self):
        x, y = smooth_data(14, seed=13, noise=0.2)
        grid = tuple(np.logspace(-5, -1, 5))
        _, s0 = gcv_select(x, y, GAUSS, grid)
        _, s1 = gcv_select(x + 17.3, y, GAUSS, grid)
        assert np.allclose(s0, s1, rtol=1e-10)

    def test_smoother_eigenvalues_in_unit_interval(self):
        x, y = smooth_data(16, seed=15, noise=0.1)
        n = len(y)
        K = gram(GAUSS, x)
        for lam in (1e-6, 1e-3, 1.0):
            A = K @ np.linalg.inv(K + n * lam * np.eye(n))
            eig = np.linalg.eigvalsh(0.5 * (A + A.T))
            assert eig.min() >= -1e-10
            assert eig.max() < 1.0


class TestLooPhi:
    def test_single_candidate_returned(self):
        x, y = smooth_data(10, seed=17, noise=0.2)
        assert loo_cv_phi(x, y, "gaussian", [0.7]) == 0.7

    def test_closed_form_matches_refit_oracle(self):
        x, y = smooth_data(12, seed=19, noise=0.3)
        n = len(y)
        lam = 1e-3
        scores = loo_scores_phi(x, y, "gaussian", [1.0], FixedLambda(lam), jitter=0.0)
        loo_sq = []
        for i in range(n):
            keep = np.arange(n) != i
            mi = fit(x[keep], y[keep], GAUSS, lam * n / (n - 1), jitter=0.0)
            loo_sq.append((y[i] - predict(mi, x[i:i + 1])[0]) ** 2)
        # hold-out fit uses the same nugget n*lam, hence the rescaled penalty
        assert scores[0] == pytest.approx(np.mean(loo_sq), rel=1e-8)

    def test_constant_responses_tie_toward_smallest(self):
        x, _ = smooth_data(10, seed=21)
        phi = loo_cv_phi(x, np.zeros(10), "gaussian", [0.1, 1.0, 10.0])
        assert phi == 0.1

    def test_near_unit_leverage_scores_infinite_not_error(self):
        # widely separated points with a vanishing penalty drive every
        # leverage to 1; the candidate is scored out, not raised
        x = np.arange(5.0)[:, None] * 4.0
        y = np.sin(x[:, 0])
        scores = loo_scores_phi(x, y, "gaussian", [1.0],
                                FixedLambda(1e-16), jitter=0.0)
        assert np.isinf(scores[0])
        with pytest.raises(rkhs.FitError, match="non-finite"):
            loo_cv_phi(x, y, "gaussian", [1.0], FixedLambda(1e-16), jitter=0.0)


class TestDefaultLambda:
    def test_n_one_returns_c(self):
        assert default_lambda(1, mu=2.0, d=1, c=0.37) == 0.37

    def test_known_exponent(self):
        assert default_lambda(32, mu=2.0, d=1, c=1.0) == pytest.approx(32.0 ** (-0.8))

    def test_doubling_scaling(self):
        mu, d = 2.5, 2
        r = default_lambda(64, mu, d) / default_lambda(32, mu, d)
        assert r == pytest.approx(2.0 ** (-2 * mu / (2 * mu + d)), rel=1e-12)

    def test_rate_rule_through_fit(self):
        x, y = smooth_data(16, seed=23, noise=0.1)
        m = fit_with_rule(x, y, GAUSS, KrrConfig(RateLambda(mu=2.0, c=0.5)))
        assert m.lam == pytest.approx(0.5 * 16 ** (-0.8))


class TestSigma2Hat:
    def test_noiseless_interpolating_fit(self):
        x, y = smooth_data(12, seed=25)
        m = fit(x, y, GAUSS, 1e-10)
        assert sigma2_hat(x, y, m) <= 1e-10

    def test_pure_noise_large_lambda_approaches_sample_variance(self):
        rng = np.random.default_rng(27)
        x = np.sort(rng.uniform(0, 2 * np.pi, 60))[:, None]
        y = rng.normal(0, 1.0, 60)
        m = fit(x, y, GAUSS, 1e6)
        # A -> 0, so the estimate approaches ||y||^2 / n
        assert sigma2_hat(x, y, m) == pytest.approx(float(y @ y) / 60, rel=1e-3)


class TestEmulator:
    def test_reproduces_samples(self):
        rng = np.random.default_rng(29)
        pts = rng.uniform([0.0, -2.0], [2 * np.pi, 2.0], (200, 2))
        vals = testbed.ys_example2(pts[:, 0], pts[:, 1])
        em = interpolate_emulator(pts, vals, KernelSpec("gaussian", 2.0))
        assert np.abs(predict(em, pts) - vals).max() <= 1e-6

    def test_constant_simulator(self):
        pts = np.linspace(0.0, 1.0, 20)[:, None]
        em = interpolate_emulator(pts, np.full(20, 3.5), KernelSpec("gaussian", 0.5))
        test = np.linspace(0.01, 0.99, 77)[:, None]
        assert np.abs(predict(em, test) - 3.5).max() <= 1e-6

    def test_example2_surrogate_sup_error(self):
        gx = np.linspace(1e-3, 2 * np.pi - 1e-3, 40)
        gt = np.linspace(-2.0, 2.0, 40)
        GX, GT = np.meshgrid(gx, gt, indexing="ij")
        pts = np.column_stack([GX.ravel(), GT.ravel()])
        vals = testbed.ys_example2(pts[:, 0], pts[:, 1])
        em = interpolate_emulator(pts, vals, KernelSpec("gaussian", 2.0))
        tx = np.linspace(0.1, 2 * np.pi - 0.1, 15)
        tt = np.linspace(-1.9, 1.9, 15)
        TX, TT = np.meshgrid(tx, tt, indexing="ij")
        tp = np.column_stack([TX.ravel(), TT.ravel()])
        err = np.abs(predict(em, tp) - testbed.ys_example2(tp[:, 0], tp[:, 1]))
        assert err.max() < 1e-2

    def test_duplicate_samples_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(rkhs.FitError, match=r"duplicate.*\[0, 2\]"):
            interpolate_emulator(pts, [1.0, 2.0, 1.0], KernelSpec("gaussian", 1.0))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           lam=st.floats(min_value=1e-6, max_value=1.0),
           n=st.integers(min_value=3, max_value=40))
    def test_fit_residual_invariant(self, seed, lam, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (n, 1))
        y = np.sin(x[:, 0]) + rng.normal(0, 0.5, n)
        m = fit(x, y, GAUSS, lam, jitter=0.0)
        K = gram(GAUSS, x)
        resid = (K + n * lam * np.eye(n)) @ m.coeffs - y
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(y), 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_interpolation_limit_drives_fit_to_data(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 6, 8))[:, None]
        if np.min(np.diff(x[:, 0])) < 0.1:
            x = np.linspace(0, 6, 8)[:, None]
        y = np.cos(x[:, 0])
        m = fit(x, y, GAUSS, 1e-12)
        assert np.abs(m.fitted - y).max() <= 1e-6
