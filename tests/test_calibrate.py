import warnings
from dataclasses import replace

import numpy as np
import pytest

from l2calib import cli, kernels, rkhs, testbed
from l2calib.calibrate import (ETA_BOUNDS, ComputerModel, _ProfiledGpLikelihood, coarse_block,
                               ko_calibrate, l2_calibrate, l2_objective, ols_calibrate)
from l2calib.numerics import (BoxDomain, OptimizerConfig, design_rule, fd_derivatives,
                              gauss_legendre, minimize, scan, tensor_grid)
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
        surface = fit_response_surface(pts, y, KernelConfig())
        l2 = l2_calibrate(surface, system.computer_model, RULE, OPT)
        ols = ols_calibrate(pts, y, system.computer_model, OPT)
        ko = ko_calibrate(surface, system.computer_model)
        assert l2.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)
        assert ols.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)
        assert ko.theta_hat[0] == pytest.approx(-1.0, abs=1e-4)

    def test_ko_profiled_variance_vanishes_without_noise(self):
        system, pts, y = noiseless("example1")
        ko = ko_calibrate(fit_response_surface(pts, y, KernelConfig()),
                          system.computer_model)
        assert ko.meta["tau2"] <= 1e-10


class TestL2:
    def test_oracle_surface_recovers_projection(self):
        # with the exact truth in place of the smoother, the estimate
        # must sit at the closed-form minimizer
        system, _, _ = noiseless("example2")
        obj = l2_objective(testbed.zeta_true(RULE.nodes[:, 0]), system.computer_model, RULE)
        res = minimize(obj, system.computer_model.theta_domain, OPT)
        assert res.x[0] == pytest.approx(testbed.THETA_STAR_EXAMPLE2, abs=1e-6)

    def test_objective_value_consistency(self):
        system, pts, y = noisy_example2()
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        est = l2_calibrate(zeta_hat, system.computer_model, RULE, OPT)
        assert zeta_hat.kernel.phi == est.meta["phi"]
        recomputed = l2_objective(rkhs.predict(zeta_hat, RULE.nodes),
                                  system.computer_model, RULE)(est.theta_hat[None])[0]
        assert est.objective_value ** 2 == pytest.approx(recomputed, rel=1e-10)

    def test_meta_records_selected_tuning(self):
        system, pts, y = noisy_example2()
        est = l2_calibrate(fit_response_surface(pts, y, KernelConfig()),
                           system.computer_model, RULE, OPT)
        assert est.meta["phi"] > 0
        assert est.meta["lambda"] > 0
        assert est.method == "L2"

    def test_boundary_solution_flagged(self):
        system, pts, y = noiseless("example2")
        narrow = testbed.example2_model(BoxDomain((1.0,), (2.0,)))
        est = l2_calibrate(fit_response_surface(pts, y, KernelConfig()), narrow, RULE, OPT)
        assert est.meta["boundary"]
        assert est.theta_hat[0] == pytest.approx(1.0, abs=1e-6)

    def test_fixed_rules_respected(self):
        system, pts, y = noisy_example2()
        kcfg = KernelConfig(phi_grid=(0.4,), lambda_grid=(1e-3,))
        est = l2_calibrate(fit_response_surface(pts, y, kcfg), system.computer_model, RULE, OPT)
        assert est.meta["phi"] == 0.4
        assert est.meta["lambda"] == 1e-3


class TestOls:
    @staticmethod
    def _scaled_fit(seed, c):
        system, pts, y = noisy_example2(seed=seed)
        base = ols_calibrate(pts, y, system.computer_model, OPT)
        scaled_model = ComputerModel(
            eval=lambda p, ths: c * system.computer_model.batch(p, ths),
            theta_domain=system.computer_model.theta_domain)
        return base, ols_calibrate(pts, c * y, scaled_model, OPT)

    def test_scale_equivariance_is_exact_for_a_power_of_two(self):
        # scaling by 4 multiplies every RSS by exactly 16, so every
        # comparison the minimizer makes comes out the same
        base, scaled = self._scaled_fit(8, 4.0)
        assert scaled.theta_hat[0] == base.theta_hat[0]

    def test_scale_equivariance(self):
        # other scales round differently, so the estimates agree to the
        # minimizer's tolerance, not bit for bit
        for seed in range(8, 20):
            base, scaled = self._scaled_fit(seed, 3.7)
            assert abs(scaled.theta_hat[0] - base.theta_hat[0]) <= 1e-8, seed

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
        a_surface = fit_response_surface(pts, y, kcfg)
        b_surface = fit_response_surface(pts[perm], y[perm], kcfg)
        a_l2 = l2_calibrate(a_surface, system.computer_model, RULE, OPT)
        b_l2 = l2_calibrate(b_surface, system.computer_model, RULE, OPT)
        assert a_l2.theta_hat[0] == pytest.approx(b_l2.theta_hat[0], abs=1e-6)
        a_ols = ols_calibrate(pts, y, system.computer_model, OPT)
        b_ols = ols_calibrate(pts[perm], y[perm], system.computer_model, OPT)
        assert a_ols.theta_hat[0] == pytest.approx(b_ols.theta_hat[0], abs=1e-8)
        a_ko = ko_calibrate(a_surface, system.computer_model)
        b_ko = ko_calibrate(b_surface, system.computer_model)
        assert a_ko.theta_hat[0] == pytest.approx(b_ko.theta_hat[0], abs=1e-5)


class TestKo:
    def test_recovers_noise_variance(self):
        system, pts, y = noisy_example2(seed=12, sigma2=0.04)
        est = ko_calibrate(fit_response_surface(pts, y, KernelConfig()),
                           system.computer_model)
        assert est.meta["sigma2"] == pytest.approx(0.04, rel=0.6)

    def test_requires_minimum_sample(self):
        system = testbed.make_system("example2", 0.1)
        with pytest.raises(ValueError, match="at least 3"):
            ko_calibrate(fit_response_surface(np.array([[0.1], [0.2]]), np.array([1.0, 2.0]),
                                              KernelConfig()),
                         system.computer_model)

    def test_non_finite_simulator_output_fits_nothing(self):
        # NaN past theta = 1.5 once won KO with a floored process variance;
        # like L2 and OLS, KO now returns its plain estimate bit for bit
        system = testbed.make_system("example2", 0.1, "uniform_random", 101)
        pts, y = testbed.generate(system, 0, 0)
        model = system.computer_model
        cut = replace(model, eval=lambda p, ths: np.where(ths > 1.5, np.nan, model.eval(p, ths)))
        surface = fit_response_surface(pts, y, KernelConfig())
        for run in (lambda m: ko_calibrate(surface, m),
                    lambda m: l2_calibrate(surface, m, RULE, OPT),
                    lambda m: ols_calibrate(pts, y, m, OPT)):
            plain, est = run(model), run(cut)
            assert np.array_equal(est.theta_hat, plain.theta_hat)
            assert est.objective_value == plain.objective_value

    def test_infinite_simulator_output_prints_no_warning(self):
        # projecting an infinite residual on the Gram eigenvectors makes
        # inf - inf, which numpy reports as "invalid value encountered in matmul"
        system = testbed.make_system("example2", 0.01, "uniform_random", 101)
        pts, y = testbed.generate(system, 0, 0)
        model = system.computer_model
        cut = replace(model, eval=lambda p, ths: np.where(ths > -0.1, np.inf,
                                                          model.eval(p, ths)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = ko_calibrate(fit_response_surface(pts, y, KernelConfig()), cut)
        assert est.theta_hat[0] <= -0.1

    def test_nan_everywhere_is_a_fit_error(self):
        system, pts, y = noisy_example2()
        nan = replace(system.computer_model,
                      eval=lambda p, ths: np.full((len(ths), len(p)), np.nan))
        with pytest.raises(rkhs.FitError,
                           match="objective is non-finite on the whole coarse grid"):
            ko_calibrate(fit_response_surface(pts, y, KernelConfig()), nan)

    def test_fixed_phi_respected(self):
        system, pts, y = noisy_example2(seed=13)
        est = ko_calibrate(fit_response_surface(pts, y, KernelConfig(phi_grid=(0.3,))),
                           system.computer_model)
        assert est.meta["phi"] == 0.3

    def test_two_parameter_box(self):
        model = ComputerModel(eval=lambda p, ths: ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:],
                              theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
        x = np.linspace(0.0, 6.0, 12)[:, None]
        y = 0.5 * np.sin(x[:, 0]) + 0.3
        est = ko_calibrate(fit_response_surface(x, y, KernelConfig(phi_grid=(1.0,))), model,
                           opt=OptimizerConfig(grid_points=45))
        assert est.theta_hat == pytest.approx([0.5, 0.3], abs=1e-4)

    def test_two_parameter_box_in_few_simulator_calls(self):
        # the scan's 6 blocks, the refinement rounds and KO's profile at
        # theta hat; a search by single points took thousands of calls here
        calls = []

        def simulator(p, ths):
            calls.append(len(ths))
            return ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:]
        model = ComputerModel(eval=simulator, theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
        x = np.linspace(0.0, 6.0, 12)[:, None]
        opt = OptimizerConfig(grid_points=45)
        est = ko_calibrate(fit_response_surface(x, 0.5 * np.sin(x[:, 0]) + 0.3,
                                                KernelConfig(phi_grid=(1.0,))), model, opt=opt)
        assert len(calls) <= 40
        assert 0 < est.meta["iterations"] <= opt.max_iterations

    def test_deterministic(self):
        system, pts, y = noisy_example2(seed=14)
        surface = fit_response_surface(pts, y, KernelConfig())
        a = ko_calibrate(surface, system.computer_model)
        b = ko_calibrate(surface, system.computer_model)
        assert a.theta_hat[0] == b.theta_hat[0]

    def test_finds_the_better_of_two_likelihood_basins(self):
        # the replication simulate runs at seed 62 of the example2 grid51
        # sigma2 0.01 study: a local search can stop at theta 0.4286, whose
        # NLL -103.582 is above the -103.973 at theta -0.1475
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 62, 0)
        est = ko_calibrate(fit_response_surface(pts, y, KernelConfig()),
                           system.computer_model, OptimizerConfig())
        assert est.theta_hat[0] == pytest.approx(-0.1475, abs=1e-3)
        assert est.objective_value < -103.9


class TestSharedSurface:
    """One tuned surface handed to several calibrators changes no estimate."""

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_shared_surface_estimates_match_self_tuned(self, example):
        # cli._run_methods tunes one surface for L2 and KO; each estimator
        # called on a surface tuned for it alone gives the same bits
        system = testbed.make_system(example, 0.1, "uniform_random", 41)
        pts, y = testbed.generate(system, 21, 0)
        model = system.computer_model
        for phi_grid in (rkhs.DEFAULT_PHI_GRID, (0.5,)):
            config = cli.RunConfig(example=example, sigma2=(0.1,), design="uniform_random",
                                   design_n=41, kernel=KernelConfig(phi_grid=phi_grid))
            ran = cli._run_methods(cli._Plan.of(config), pts, y, sandwich=True)
            kcfg = config.kernel
            for meth, alone in (
                    ("L2", l2_calibrate(fit_response_surface(pts, y, kcfg), model, RULE, OPT)),
                    ("OLS", ols_calibrate(pts, y, model, OPT)),
                    ("KO", ko_calibrate(fit_response_surface(pts, y, kcfg), model, OPT))):
                est = ran[meth].estimate
                assert ran[meth].error is None
                assert np.array_equal(est.theta_hat, alone.theta_hat)
                assert est.objective_value == alone.objective_value
                assert est.meta == alone.meta

    def test_fit_keeps_gram_eigenpairs(self, assert_same_model):
        _, pts, y = noisy_example2(seed=22)
        surface = fit_response_surface(pts, y, KernelConfig())
        assert surface.kernel.phi in rkhs.DEFAULT_PHI_GRID
        # r <= n pairs; the other n - r directions have the jitter as eigenvalue
        assert_same_model(surface, rkhs.fit_with_rule(pts, y, surface.kernel))

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("design", [("fixed_grid", 51), ("uniform_random", 101)],
                             ids=["grid51", "unif101"])
    def test_loo_winner_is_bit_identical_to_a_fresh_fit(self, assert_same_model, example,
                                                         design):
        # the LOO sweep returns the winner's model from the panel it was
        # scored on: a full one gives a fresh fit's bits, a low-rank one
        # agrees with it to the low-rank panel's bound
        system = testbed.make_system(example, 0.1, *design)
        pts, y = testbed.generate(system, 9, 0)
        kcfg = KernelConfig()
        surface = fit_response_surface(pts, y, kcfg)
        assert_same_model(surface, rkhs.fit_with_rule(pts, y, surface.kernel, kcfg.lambda_grid))

    def test_loo_scores_phi_under_the_config_lambda_rule(self):
        _, pts, y = noisy_example2(seed=4)
        grid = sorted(rkhs.DEFAULT_PHI_GRID)
        surface = fit_response_surface(
            pts, y, KernelConfig(lambda_grid=(1e-2,)))
        fixed = [rkhs._loo_score(rkhs._Panel.full(pts, y, kernels.KernelSpec("gaussian", phi)),
                                 1e-2) for phi in grid]
        gcv = fit_response_surface(pts, y, KernelConfig(phi_grid=grid))
        phi = surface.kernel.phi
        assert phi == grid[int(np.argmin(fixed))]
        assert phi != gcv.kernel.phi  # the two rules disagree here
        assert surface.lam == 1e-2

    @staticmethod
    def joint_nll(surface, model, theta, log_etas):
        """The joint (theta, log eta) objective, process variance profiled out,
        at one theta and each of ``log_etas``.  The n - r directions outside
        the surface's r eigenvectors have the jitter as eigenvalue."""
        rho, Q = surface.gram_eig
        r = surface.y - model(surface.design, theta)
        qtr = Q.T @ r
        outside = r - Q @ qtr
        denom = rho + np.exp(log_etas)[:, None]
        rest = rkhs.DEFAULT_JITTER + np.exp(log_etas)
        tau2 = (np.sum(qtr ** 2 / denom, axis=1) + outside @ outside / rest) / surface.n
        tau2 = np.where(np.isfinite(tau2) & (tau2 > 0.0), tau2, np.finfo(float).tiny)
        logdet = np.sum(np.log(denom), axis=1) + (surface.n - rho.size) * np.log(rest)
        return 0.5 * surface.n * np.log(tau2) + 0.5 * logdet

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_profiled_value_matches_a_dense_eta_scan(self, example, seed):
        system = testbed.make_system(example, 0.1)
        pts, y = testbed.generate(system, seed, 0)
        surface = fit_response_surface(pts, y, KernelConfig())
        model = system.computer_model
        thetas = np.linspace(-2.0, 2.0, 9)[:, None]
        values, log_etas, _ = _ProfiledGpLikelihood(surface, model).profile(thetas)
        lo, hi = np.log(ETA_BOUNDS)
        for theta, value, log_eta in zip(thetas, values, log_etas):
            # a dense scan over the whole range, then a finer one around its best
            coarse = np.linspace(lo, hi, 4001)
            centre = coarse[np.argmin(self.joint_nll(surface, model, theta, coarse))]
            step = coarse[1] - coarse[0]
            fine = np.linspace(max(lo, centre - step), min(hi, centre + step), 2001)
            best = self.joint_nll(surface, model, theta, fine).min()
            # never above the scan, beyond rounding where both land on a bound
            assert -1e-13 * abs(best) <= best - value <= 1e-9 * abs(best)
            assert lo <= log_eta <= hi

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_ko_on_a_low_rank_surface_matches_the_full_panel(self, monkeypatch, example):
        # the same (phi, lambda) and data: the surface the sweep returns,
        # low-rank at seed 7, against one full decomposition
        system = testbed.make_system(example, 0.1)
        pts, y = testbed.generate(system, 7, 0)
        model = system.computer_model
        low = fit_response_surface(pts, y, KernelConfig())
        full = rkhs.fit_with_rule(pts, y, low.kernel, (low.lam,))
        assert low.gram_eig[0].size < len(y) == full.gram_eig[0].size
        thetas = np.linspace(-2.0, 2.0, 41)[:, None]
        full_f = _ProfiledGpLikelihood(full, model).profile(thetas)
        low_f = _ProfiledGpLikelihood(low, model).profile(thetas)[0]
        # where eta nears its 1e-8 bound, eigh's own rounding of the full
        # panel's jitter eigenvalues (7e-15 of 1e-10) moves d by up to 1e-6
        np.testing.assert_allclose(low_f, full_f[0], rtol=1e-5, atol=0)
        est_low, est_full = ko_calibrate(low, model), ko_calibrate(full, model)
        assert np.max(np.abs(est_low.theta_hat - est_full.theta_hat)) <= 1e-6
        assert est_low.objective_value == pytest.approx(est_full.objective_value, rel=1e-10)
        # on a full panel the column of the other directions adds exactly
        # nothing: its eigenvalue, here moved from the jitter to 1, is unread;
        # a low-rank panel reads it
        monkeypatch.setattr(rkhs, "DEFAULT_JITTER", 1.0)
        for got, want in zip(_ProfiledGpLikelihood(full, model).profile(thetas), full_f):
            assert np.array_equal(got, want)
        assert not np.allclose(_ProfiledGpLikelihood(low, model).profile(thetas)[0],
                               low_f, rtol=1e-6)

    def test_profiled_eta_stays_in_its_bounds(self):
        # noiseless data from the perfect model: the residual vanishes at
        # theta*, so tau2 takes its floor, and eta sits on its lower bound
        system, pts, y = noiseless("example1")
        nll = _ProfiledGpLikelihood(fit_response_surface(pts, y, KernelConfig()),
                                    system.computer_model)
        values, log_etas, tau2 = nll.profile(np.array([[-1.0], [0.5], [2.0]]))
        assert np.all(np.isfinite(values))
        assert np.array_equal(log_etas, np.full(3, np.log(ETA_BOUNDS[0])))
        assert tau2[0] == np.finfo(float).tiny and np.all(tau2[1:] > 1e-3)


class TestComputerModel:
    def test_gradient_consistency_where_smooth(self):
        system, _, _ = noiseless("example2")
        model = system.computer_model
        pts = np.linspace(0.3, 6.0, 11)[:, None]
        theta = np.array([0.7])
        analytic = testbed.ys_example2_grad(pts[:, 0], theta[0])[:, None]
        fd = fd_derivatives(lambda ths: model.batch(pts, ths), theta)[1]
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
    """L2 and OLS minimize one weighted residual sum, ``l2_objective``: on the
    coarse grid it agrees with the per-theta sum to rounding and picks the
    same point, and the estimates agree to well inside the goldens' 1e-6."""

    @staticmethod
    def per_theta(f):
        return lambda thetas: np.array([f(th) for th in thetas])

    @staticmethod
    def assert_matches(batched, per_theta, box, opt, theta_hat):
        """Checks ``batched`` against ``per_theta``; returns the oracle's minimum."""
        grid = tensor_grid(box, opt.grid_points)
        got, want = scan(batched, grid), scan(per_theta, grid)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert np.argmin(got) == np.argmin(want)
        res = minimize(per_theta, box, opt)
        np.testing.assert_allclose(theta_hat, res.x, rtol=0, atol=1e-8)
        return res

    @staticmethod
    def ols_case(q):
        system, pts, y = noisy_example2(seed=32)
        if q == 1:
            return system.computer_model, OPT, pts, y
        model = ComputerModel(
            eval=lambda p, ths: ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:],
            theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
        return model, OptimizerConfig(grid_points=45), pts, y

    def test_l2_matches_the_per_theta_objective(self):
        system, pts, y = noisy_example2(seed=31)
        model = system.computer_model
        surface = fit_response_surface(pts, y, KernelConfig())
        est = l2_calibrate(surface, model, RULE, OPT)
        zeta_nodes = rkhs.predict(surface, RULE.nodes)

        def objective(th):
            diff = zeta_nodes - model(RULE.nodes, th)
            return float(RULE.weights @ (diff * diff))
        res = self.assert_matches(l2_objective(zeta_nodes, model, RULE), self.per_theta(objective),
                                  model.theta_domain, OPT, est.theta_hat)
        assert est.objective_value == pytest.approx(np.sqrt(res.fun), rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    def test_ols_matches_the_per_theta_objective(self, q):
        model, opt, pts, y = self.ols_case(q)

        def objective(th):
            resid = y - model(pts, th)
            return float(resid @ resid)
        est = ols_calibrate(pts, y, model, opt)
        res = self.assert_matches(l2_objective(y, model, design_rule(pts)),
                                  self.per_theta(objective), model.theta_domain, opt,
                                  est.theta_hat)
        assert est.objective_value == pytest.approx(res.fun, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    def test_ols_is_the_l2_objective_on_the_design_rule(self, q):
        model, opt, pts, y = self.ols_case(q)
        res = minimize(l2_objective(y, model, design_rule(pts)), model.theta_domain, opt)
        est = ols_calibrate(pts, y, model, opt)
        assert np.array_equal(est.theta_hat, res.x)
        assert est.objective_value == res.fun


class TestCoarseBlock:
    """An estimator given the simulator's block on the minimizer's coarse grid
    gives the estimate it gives without it, bit for bit, from that many
    fewer simulator rows."""

    @pytest.mark.parametrize("method", ["L2", "OLS", "KO"])
    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_same_estimate_from_fewer_rows(self, method, example):
        system = testbed.make_system(example, 0.1, "uniform_random", 60)
        pts, y = testbed.generate(system, 33, 0)
        rows = []

        def counted_eval(p, ths):
            rows.append(len(ths))
            return system.computer_model.eval(p, ths)
        model = replace(system.computer_model, eval=counted_eval)
        surface = fit_response_surface(pts, y, KernelConfig())
        points, run = {
            "L2": (RULE.nodes, lambda **kw: l2_calibrate(surface, model, RULE, OPT, **kw)),
            "OLS": (pts, lambda **kw: ols_calibrate(pts, y, model, OPT, **kw)),
            "KO": (surface.design, lambda **kw: ko_calibrate(surface, model, OPT, **kw)),
        }[method]
        without = run()
        rows_without = sum(rows)
        block = coarse_block(model, points, OPT)
        rows.clear()
        given = run(block=block)
        assert np.array_equal(given.theta_hat, without.theta_hat)
        assert given.objective_value == without.objective_value
        assert given.meta == without.meta
        assert sum(rows) == rows_without - OPT.grid_points

    def test_no_block_past_one_scan_call(self):
        # at q = 2 the default grid has 160,801 rows
        model = ComputerModel(eval=lambda p, ths: ths[:, :1] * p[:, 0] + ths[:, 1:],
                              theta_domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)))
        assert coarse_block(model, np.zeros((3, 1))) is None
        assert coarse_block(model, np.zeros((3, 1)), OptimizerConfig(grid_points=20)).shape == (400, 3)

    def test_overflow_is_a_value_not_a_warning(self):
        system, pts, _ = noisy_example2()
        model = replace(system.computer_model, theta_domain=BoxDomain((-1e300,), (1e300,)))
        block = coarse_block(model, pts)  # warnings are errors in this suite
        assert not np.all(np.isfinite(block))
