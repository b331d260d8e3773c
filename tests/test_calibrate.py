import numpy as np
import pytest

from l2calib import kernels, rkhs, testbed
from l2calib.calibrate import (ETA_BOUNDS, ComputerModel, _ProfiledGpLikelihood,
                               ko_calibrate, l2_calibrate, ols_calibrate)
from l2calib.numerics import BoxDomain, OptimizerConfig, gauss_legendre, \
    l2_distance_sq, minimize
from l2calib.rkhs import KernelConfig, fit_response_surface

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
        obj = lambda ths: np.array([l2_distance_sq(
            zeta, lambda p: system.computer_model(p, th), RULE) for th in ths])
        res = minimize(obj, system.computer_model.theta_domain, OPT)
        assert res.x[0] == pytest.approx(testbed.THETA_STAR_EXAMPLE2, abs=1e-6)

    def test_objective_value_consistency(self):
        system, pts, y = noisy_example2()
        kcfg = KernelConfig()
        est = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        zeta_hat = fit_response_surface(pts, y, kcfg)
        assert zeta_hat.kernel.phi == est.meta["phi"]
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
        kcfg = KernelConfig(phi_grid=(0.4,), lambda_grid=(1e-3,))
        est = l2_calibrate(pts, y, kcfg, system.computer_model, RULE, OPT)
        assert est.meta["phi"] == 0.4
        assert est.meta["lambda"] == 1e-3


class TestOls:
    def test_scale_equivariance(self):
        system, pts, y = noisy_example2(seed=8)
        base = ols_calibrate(pts, y, system.computer_model, OPT)
        c = 3.7
        scaled_model = ComputerModel(
            eval=lambda p, ths: c * system.computer_model.batch(p, ths),
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
                           KernelConfig(phi_grid=(0.3,)), seed=13)
        assert est.meta["phi"] == 0.3

    def test_two_parameter_box(self):
        model = ComputerModel(eval=lambda p, ths: ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:],
                              theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
        x = np.linspace(0.0, 6.0, 12)[:, None]
        y = 0.5 * np.sin(x[:, 0]) + 0.3
        est = ko_calibrate(x, y, model, KernelConfig(phi_grid=(1.0,)),
                           opt=OptimizerConfig(grid_points=45))
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
        for kcfg in (KernelConfig(), KernelConfig(phi_grid=(0.5,))):
            surface = fit_response_surface(pts, y, kcfg)
            for shared, alone in (
                    (l2_calibrate(pts, y, kcfg, model, RULE, OPT, surface=surface),
                     l2_calibrate(pts, y, kcfg, model, RULE, OPT)),
                    (ko_calibrate(pts, y, model, kcfg, seed=2, surface=surface),
                     ko_calibrate(pts, y, model, kcfg, seed=2))):
                assert np.array_equal(shared.theta_hat, alone.theta_hat)
                assert shared.objective_value == alone.objective_value
                assert shared.meta == alone.meta

    def test_fit_keeps_gram_eigenpairs(self):
        _, pts, y = noisy_example2(seed=22)
        surface = fit_response_surface(pts, y, KernelConfig())
        w, Q = surface.gram_eig
        K = kernels.gram(surface.kernel, kernels.sqdist(pts)) + rkhs.DEFAULT_JITTER * np.eye(len(y))
        assert surface.kernel.phi in rkhs.DEFAULT_PHI_GRID
        assert np.allclose(Q @ np.diag(w) @ Q.T, K, atol=1e-10)

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("design", [("fixed_grid", 51), ("uniform_random", 101)],
                             ids=["grid51", "unif101"])
    def test_loo_winner_is_bit_identical_to_a_fresh_fit(self, example, design):
        # the LOO sweep returns the winner's model from its own panel; a
        # second decomposition at the chosen phi gives the same bits
        system = testbed.make_system(example, 0.1, *design)
        pts, y = testbed.generate(system, 9, 0)
        kcfg = KernelConfig()
        surface = fit_response_surface(pts, y, kcfg)
        fresh = rkhs.fit_with_rule(pts, y, surface.kernel, kcfg.lambda_grid)
        assert surface.lam == fresh.lam and surface.hat_trace == fresh.hat_trace
        for got, want in ((surface.coeffs, fresh.coeffs), (surface.fitted, fresh.fitted),
                          *zip(surface.gram_eig, fresh.gram_eig)):
            assert np.array_equal(got, want)

    def test_loo_scores_phi_under_the_config_lambda_rule(self):
        _, pts, y = noisy_example2(seed=4)
        grid = sorted(rkhs.DEFAULT_PHI_GRID)
        surface = fit_response_surface(
            pts, y, KernelConfig(lambda_grid=(1e-2,)))
        fixed = [rkhs._loo_score(rkhs._EigenPanel(pts, y, kernels.KernelSpec("gaussian", phi)),
                                 1e-2) for phi in grid]
        gcv = fit_response_surface(pts, y, KernelConfig(phi_grid=grid))
        phi = surface.kernel.phi
        assert phi == grid[int(np.argmin(fixed))]
        assert phi != gcv.kernel.phi  # the two rules disagree here
        assert surface.lam == 1e-2

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_grid_start_matches_scalar_scan(self, example, seed):
        system = testbed.make_system(example, 0.1)
        pts, y = testbed.generate(system, seed, 0)
        surface = fit_response_surface(pts, y, KernelConfig())
        nll = _ProfiledGpLikelihood(pts, y, system.computer_model, *surface.gram_eig)
        theta_grid = np.linspace(-2.0, 2.0, 80)[:, None]
        log_etas = np.linspace(np.log(ETA_BOUNDS[0]), np.log(ETA_BOUNDS[1]), 17)
        best_val, best_start = np.inf, None
        for th in theta_grid:
            qtr2 = nll.residual_sq(th[None])[0]
            for le in log_etas:
                v = nll.value_from_parts(qtr2, le)
                if v < best_val:
                    best_val, best_start = v, np.append(th, le)
        assert np.array_equal(nll.grid_start(theta_grid, log_etas), best_start)

    def test_likelihood_is_infinite_outside_the_box(self):
        system, pts, y = noisy_example2(seed=23)
        surface = fit_response_surface(pts, y, KernelConfig())
        nll = _ProfiledGpLikelihood(pts, y, system.computer_model, *surface.gram_eig)
        assert np.isfinite(nll(np.array([0.0, 0.0])))
        for params in ([2.5, 0.0], [-2.5, 0.0], [0.0, 30.0], [0.0, -30.0], [np.nan, 0.0]):
            assert nll(np.array(params)) == np.inf


class TestComputerModel:
    def test_gradient_consistency_where_smooth(self):
        system, _, _ = noiseless("example2")
        model = system.computer_model
        pts = np.linspace(0.3, 6.0, 11)[:, None]
        theta = np.array([0.7])
        analytic = model.grad_theta(pts, theta)
        fd_model = ComputerModel(eval=model.eval, theta_domain=model.theta_domain)
        fd = fd_model.grad_theta(pts, theta)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("k", [1, 401])
    def test_batch_rows_equal_per_theta_calls(self, example, k):
        model = testbed.EXAMPLES[example][0]()
        simulator = getattr(testbed, "ys_" + example)
        thetas = np.linspace(-2.0, 2.0, k)[:, None] if k > 1 else np.array([[0.3]])
        _, design, _ = noisy_example2()
        for pts in (design, RULE.nodes):
            rows = model.batch(pts, thetas)
            assert rows.shape == (k, pts.shape[0])
            for th, row in zip(thetas, rows):
                assert np.array_equal(row, model(pts, th))
                assert np.array_equal(row, simulator(pts[:, 0], float(th[0])))

    def test_batch_shapes_are_checked(self):
        model = testbed.example2_model()
        pts = np.linspace(0.0, 6.0, 5)[:, None]
        with pytest.raises(ValueError, match=r"expected a \(k, 1\) batch"):
            model.batch(pts, np.zeros(3))
        flat = ComputerModel(eval=lambda p, ths: np.zeros(p.shape[0]),
                             theta_domain=model.theta_domain)
        with pytest.raises(ValueError, match=r"returned shape \(5,\), expected \(1, 5\)"):
            flat(pts, [0.0])


class TestBatchedObjectives:
    """L2 and OLS give what minimizing their per-theta objectives gives."""

    @staticmethod
    def per_theta(f):
        return lambda thetas: np.array([f(th) for th in thetas])

    def test_l2_matches_the_per_theta_objective(self):
        system, pts, y = noisy_example2(seed=31)
        model = system.computer_model
        surface = fit_response_surface(pts, y, KernelConfig())
        est = l2_calibrate(pts, y, KernelConfig(), model, RULE, OPT, surface=surface)
        zeta_nodes = rkhs.predict(surface, RULE.nodes)

        def objective(th):
            diff = zeta_nodes - model(RULE.nodes, th)
            return float(RULE.weights @ (diff * diff))
        res = minimize(self.per_theta(objective), model.theta_domain, OPT)
        assert np.array_equal(est.theta_hat, res.x)
        assert est.objective_value == np.sqrt(res.fun)

    @pytest.mark.parametrize("q", [1, 2])
    def test_ols_matches_the_per_theta_objective(self, q):
        system, pts, y = noisy_example2(seed=32)
        model = system.computer_model
        opt = OPT
        if q == 2:
            model = ComputerModel(
                eval=lambda p, ths: ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:],
                theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
            opt = OptimizerConfig(grid_points=45)

        def objective(th):
            resid = y - model(pts, th)
            return float(resid @ resid)
        res = minimize(self.per_theta(objective), model.theta_domain, opt)
        est = ols_calibrate(pts, y, model, opt)
        assert np.array_equal(est.theta_hat, res.x)
        assert est.objective_value == res.fun
