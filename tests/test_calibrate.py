import numpy as np
import pytest

from l2calib import kernels, rkhs, testbed
from l2calib.calibrate import (ETA_BOUNDS, ComputerModel, FixedPhi, KernelConfig,
                               _ProfiledGpLikelihood, emulator_model,
                               fit_response_surface, ko_calibrate, l2_calibrate,
                               ols_calibrate)
from l2calib.numerics import BoxDomain, OptimizerConfig, gauss_legendre, \
    l2_distance_sq, minimize
from l2calib.rkhs import FixedLambda

RULE = gauss_legendre(testbed.OMEGA, 256)
OPT = OptimizerConfig()


def noiseless(example: str):
    system = testbed.make_system(example, 0.0)
    pts, y = testbed.generate(system, 0, 0)
    return system, pts, y


def noisy_example2(seed=4, sigma2=0.01):
    system = testbed.make_system("example2", sigma2)
    pts, y = testbed.generate(system, seed, 0)
    return system, pts, y


class TestPerfectModelAgreement:
    def test_all_three_methods_recover_theta_star(self):
        system, pts, y = noiseless("example1")
        kcfg = KernelConfig()
        l2 = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        ols = ols_calibrate(pts, y, system.computer_model, OPT)
        ko = ko_calibrate(pts, y, system.computer_model, seed=0)
        assert l2.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)
        assert ols.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)
        assert ko.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)

    def test_ko_profiled_variance_vanishes_without_noise(self):
        system, pts, y = noiseless("example1")
        ko = ko_calibrate(pts, y, system.computer_model, seed=1)
        assert ko.meta["tau2"] <= 1e-10


class TestL2:
    def test_oracle_surface_recovers_projection(self):
        # with the exact truth in place of the smoother, the estimate
        # must sit at the closed-form minimizer
        system, _, _ = noiseless("example2")
        zeta = lambda p: testbed.zeta_true(p[:, 0])
        obj = lambda th: l2_distance_sq(
            zeta, lambda p: system.computer_model(p, th), RULE)
        res = minimize(obj, system.computer_model.theta_domain, OPT)
        assert res.x[0] == pytest.approx(testbed.THETA_STAR_EXAMPLE2, abs=1e-6)

    def test_objective_value_consistency(self):
        system, pts, y = noisy_example2()
        kcfg = KernelConfig()
        est = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        zeta_hat, phi = fit_response_surface(pts, y, kcfg)
        assert phi == est.meta["phi"]
        recomputed = l2_distance_sq(
            lambda p: rkhs.predict(zeta_hat, p),
            lambda p: system.computer_model(p, est.theta_hat), RULE)
        assert est.objective_value ** 2 == pytest.approx(recomputed, rel=1e-10)

    def test_meta_records_selected_tuning(self):
        system, pts, y = noisy_example2()
        est = l2_calibrate(pts, y, KernelConfig(), system.computer_model, RULE, OPT)
        assert est.meta["phi"] > 0
        assert est.meta["lambda"] > 0
        assert est.method == "L2"

    def test_boundary_solution_flagged(self):
        system, pts, y = noiseless("example2")
        narrow = testbed.example2_model(BoxDomain((1.0,), (2.0,)))
        est = l2_calibrate(pts, y, KernelConfig(), narrow, RULE, OPT)
        assert est.meta["boundary"]
        assert est.theta_hat[0] == pytest.approx(1.0, abs=1e-6)

    def test_fixed_rules_respected(self):
        system, pts, y = noisy_example2()
        kcfg = KernelConfig(phi_rule=FixedPhi(0.4), lambda_rule=FixedLambda(1e-3))
        est = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        assert est.meta["phi"] == 0.4
        assert est.meta["lambda"] == 1e-3


class TestOls:
    def test_scale_equivariance(self):
        system, pts, y = noisy_example2(seed=8)
        base = ols_calibrate(pts, y, system.computer_model, OPT)
        c = 3.7
        scaled_model = ComputerModel(
            eval=lambda p, th: c * system.computer_model(p, th),
            theta_domain=system.computer_model.theta_domain)
        scaled = ols_calibrate(pts, c * y, scaled_model, OPT)
        assert scaled.theta_hat[0] == base.theta_hat[0]

    def test_objective_is_rss(self):
        system, pts, y = noisy_example2(seed=9)
        est = ols_calibrate(pts, y, system.computer_model, OPT)
        resid = y - system.computer_model(pts, est.theta_hat)
        assert est.objective_value == pytest.approx(float(resid @ resid), rel=1e-12)

    def test_noiseless_perfect_model(self):
        system, pts, y = noiseless("example1")
        est = ols_calibrate(pts, y, system.computer_model, OPT)
        assert est.theta_hat[0] == pytest.approx(-1.0, abs=1e-6)
        assert est.objective_value <= 1e-12


class TestPermutationInvariance:
    def test_all_methods_invariant_to_data_order(self):
        system, pts, y = noisy_example2(seed=10)
        perm = np.random.default_rng(0).permutation(len(y))
        kcfg = KernelConfig()
        a_l2 = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        b_l2 = l2_calibrate(pts[perm], y[perm], kcfg, system.computer_model, RULE, OPT)
        assert a_l2.theta_hat[0] == pytest.approx(b_l2.theta_hat[0], abs=1e-6)
        a_ols = ols_calibrate(pts, y, system.computer_model, OPT)
        b_ols = ols_calibrate(pts[perm], y[perm], system.computer_model, OPT)
        assert a_ols.theta_hat[0] == pytest.approx(b_ols.theta_hat[0], abs=1e-8)
        a_ko = ko_calibrate(pts, y, system.computer_model, seed=3)
        b_ko = ko_calibrate(pts[perm], y[perm], system.computer_model, seed=3)
        assert a_ko.theta_hat[0] == pytest.approx(b_ko.theta_hat[0], abs=1e-5)


class TestKo:
    def test_recovers_noise_variance(self):
        system, pts, y = noisy_example2(seed=12, sigma2=0.04)
        est = ko_calibrate(pts, y, system.computer_model, seed=12)
        assert est.meta["sigma2"] == pytest.approx(0.04, rel=0.6)

    def test_requires_minimum_sample(self):
        system = testbed.make_system("example2", 0.1)
        with pytest.raises(ValueError, match="at least 3"):
            ko_calibrate(np.array([[0.1], [0.2]]), np.array([1.0, 2.0]),
                         system.computer_model)

    def test_fixed_phi_respected(self):
        system, pts, y = noisy_example2(seed=13)
        est = ko_calibrate(pts, y, system.computer_model,
                           KernelConfig(phi_rule=FixedPhi(0.3)), seed=13)
        assert est.meta["phi"] == 0.3

    def test_two_parameter_box(self):
        model = ComputerModel(eval=lambda p, th: th[0] * np.sin(p[:, 0]) + th[1],
                              theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
        x = np.linspace(0.0, 6.0, 12)[:, None]
        y = 0.5 * np.sin(x[:, 0]) + 0.3
        est = ko_calibrate(x, y, model, KernelConfig(phi_rule=FixedPhi(1.0)),
                           opt=OptimizerConfig(grid_points=45), n_starts=1)
        assert est.theta_hat == pytest.approx([0.5, 0.3], abs=1e-4)

    def test_deterministic_given_seed(self):
        system, pts, y = noisy_example2(seed=14)
        a = ko_calibrate(pts, y, system.computer_model, seed=5)
        b = ko_calibrate(pts, y, system.computer_model, seed=5)
        assert a.theta_hat[0] == b.theta_hat[0]


class TestSharedSurface:
    """One tuned surface handed to several calibrators changes no estimate."""

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_shared_surface_estimates_match_self_tuned(self, example):
        system = testbed.make_system(example, 0.1, "uniform_random", 41)
        pts, y = testbed.generate(system, 21, 0)
        model = system.computer_model
        for kcfg in (KernelConfig(), KernelConfig(phi_rule=FixedPhi(0.5))):
            surface, _ = fit_response_surface(pts, y, kcfg)
            for shared, alone in (
                    (l2_calibrate(pts, y, kcfg, model, RULE, OPT, surface=surface),
                     l2_calibrate(pts, y, kcfg, model, RULE, OPT)),
                    (ko_calibrate(pts, y, model, kcfg, seed=2, surface=surface),
                     ko_calibrate(pts, y, model, kcfg, seed=2))):
                assert np.array_equal(shared.theta_hat, alone.theta_hat)
                assert shared.objective_value == alone.objective_value
                assert shared.meta == alone.meta

    def test_interpolant_is_not_a_ko_surface(self):
        system, pts, y = noisy_example2(seed=24)
        interpolant = rkhs.interpolate_emulator(pts, y, rkhs.KernelSpec("gaussian", 1.0))
        with pytest.raises(ValueError, match="no Gram eigenpairs"):
            ko_calibrate(pts, y, system.computer_model, surface=interpolant)

    def test_fit_keeps_gram_eigenpairs(self):
        _, pts, y = noisy_example2(seed=22)
        surface, phi = fit_response_surface(pts, y, KernelConfig())
        w, Q = surface.gram_eig
        K = kernels.gram(surface.kernel, pts) + rkhs.DEFAULT_JITTER * np.eye(len(y))
        assert surface.kernel.phi == phi
        assert np.allclose(Q @ np.diag(w) @ Q.T, K, atol=1e-10)

    def test_loo_scores_phi_under_the_config_lambda_rule(self):
        _, pts, y = noisy_example2(seed=4)
        grid = sorted(rkhs.DEFAULT_PHI_GRID)
        surface, phi = fit_response_surface(
            pts, y, KernelConfig(lambda_rule=FixedLambda(1e-2)))
        fixed = rkhs.loo_scores_phi(pts, y, "gaussian", grid, FixedLambda(1e-2))
        gcv = rkhs.loo_scores_phi(pts, y, "gaussian", grid, rkhs.GcvLambda())
        assert phi == grid[int(np.argmin(fixed))]
        assert phi != grid[int(np.argmin(gcv))]  # the two rules disagree here
        assert surface.lam == 1e-2

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_grid_start_matches_scalar_scan(self, example, seed):
        system = testbed.make_system(example, 0.1)
        pts, y = testbed.generate(system, seed, 0)
        surface, _ = fit_response_surface(pts, y, KernelConfig())
        nll = _ProfiledGpLikelihood(pts, y, system.computer_model, *surface.gram_eig)
        theta_grid = np.linspace(-2.0, 2.0, 80)[:, None]
        log_etas = np.linspace(np.log(ETA_BOUNDS[0]), np.log(ETA_BOUNDS[1]), 17)
        best_val, best_start = np.inf, None
        for th in theta_grid:
            qtr2 = nll.residual_sq(th)
            for le in log_etas:
                v = nll.value_from_parts(qtr2, le)
                if v < best_val:
                    best_val, best_start = v, np.append(th, le)
        assert np.array_equal(nll.grid_start(theta_grid, log_etas), best_start)

    def test_likelihood_is_infinite_outside_the_box(self):
        system, pts, y = noisy_example2(seed=23)
        surface, _ = fit_response_surface(pts, y, KernelConfig())
        nll = _ProfiledGpLikelihood(pts, y, system.computer_model, *surface.gram_eig)
        assert np.isfinite(nll(np.array([0.0, 0.0])))
        for params in ([2.5, 0.0], [-2.5, 0.0], [0.0, 30.0], [0.0, -30.0], [np.nan, 0.0]):
            assert nll(np.array(params)) == np.inf


class TestEmulatorModel:
    def test_surrogate_calibration_tracks_exact_model(self):
        gx = np.linspace(1e-3, 2 * np.pi - 1e-3, 40)
        gt = np.linspace(-2.0, 2.0, 40)
        GX, GT = np.meshgrid(gx, gt, indexing="ij")
        samples = np.column_stack([GX.ravel(), GT.ravel()])
        vals = testbed.ys_example2(samples[:, 0], samples[:, 1])
        surrogate = rkhs.interpolate_emulator(
            samples, vals, rkhs.KernelSpec("gaussian", 2.0))
        em = emulator_model(surrogate, testbed.DEFAULT_THETA_DOMAIN)

        system, pts, y = noiseless("example2")
        exact = ols_calibrate(pts, y, system.computer_model, OPT)
        approx = ols_calibrate(pts, y, em, OPT)
        assert approx.theta_hat[0] == pytest.approx(exact.theta_hat[0], abs=5e-3)

    def test_gradient_consistency_where_smooth(self):
        system, _, _ = noiseless("example2")
        model = system.computer_model
        pts = np.linspace(0.3, 6.0, 11)[:, None]
        theta = np.array([0.7])
        analytic = model.grad_theta(pts, theta)
        fd_model = ComputerModel(eval=model.eval, theta_domain=model.theta_domain)
        fd = fd_model.grad_theta(pts, theta)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)
