from dataclasses import replace

import numpy as np
import pytest

from l2calib import cli, rkhs, testbed
from l2calib.calibrate import ComputerModel
from l2calib.inference import (SingularCurvatureError, design_rule,
                               efficiency_gap, estimate_sandwich, expand,
                               l2_cov, ols_cov)
from l2calib.kernels import KernelSpec
from l2calib.numerics import BoxDomain, fd_derivatives, gauss_legendre
from l2calib.rkhs import KernelConfig, fit_response_surface, sigma2_hat

RULE = gauss_legendre(testbed.OMEGA, 512)
THETA_STAR = np.array([testbed.THETA_STAR_EXAMPLE2])
ZETA = lambda p: testbed.zeta_true(p[:, 0])


def at_design(model, surface, theta, pts):
    """Sample-mean expansion: unit weights at the design points."""
    return expand(model, surface, theta, design_rule(pts))


def no_surface(pts):
    return np.zeros(len(pts))


def linear_model(coef_dim=2):
    # y^s(x, theta) = theta^T h(x) with h(x) = (1, x)
    def h(pts):
        return np.column_stack([np.ones(pts.shape[0]), pts[:, 0]])
    return ComputerModel(
        eval=lambda pts, ths: ths @ h(pts).T,
        theta_domain=BoxDomain((-5.0,) * coef_dim, (5.0,) * coef_dim),
    ), h


class TestSigma2:
    def test_noiseless_interpolating_fit(self):
        system = testbed.make_system("example2", 0.0)
        pts, y = testbed.generate(system, 0, 0)
        m = rkhs.fit_with_rule(pts, y, KernelSpec("gaussian", 1.0), (1e-10,))
        assert sigma2_hat(m) <= 1e-8

    def test_degenerate_effective_dof_rejected(self):
        x = np.linspace(0.0, 6.0, 8)[:, None]
        y = np.sin(x[:, 0])
        m = rkhs.fit_with_rule(x, y, KernelSpec("gaussian", 1.0), (1e-3,))
        # a smoother that spends every degree of freedom
        with pytest.raises(rkhs.FitError, match="degrees of freedom"):
            sigma2_hat(replace(m, hat_trace=float(len(y))))

    def test_monte_carlo_coverage_of_generating_variance(self):
        system = testbed.make_system("example2", 0.1)
        kcfg = KernelConfig()
        hits = 0
        for r in range(100):
            pts, y = testbed.generate(system, 314, r)
            zeta_hat = fit_response_surface(pts, y, kcfg)
            if 0.05 <= sigma2_hat(zeta_hat) <= 0.2:
                hits += 1
        assert hits >= 95


class TestW:
    def test_constant_model_gives_zero(self):
        model = ComputerModel(
            eval=lambda pts, ths: np.full((len(ths), pts.shape[0]), 2.0),
            theta_domain=BoxDomain((-1.0,), (1.0,)))
        W = at_design(model, no_surface, np.array([0.0]), np.linspace(0, 1, 20)).W()
        assert np.all(W == 0.0)

    def test_example2_matches_quadrature(self):
        model = testbed.example2_model()
        pts = np.linspace(0, 2 * np.pi, 201)[:, None]
        W_emp = at_design(model, ZETA, THETA_STAR, pts).W()
        W_pop = expand(model, ZETA, THETA_STAR, RULE).W()
        assert W_emp[0, 0] == pytest.approx(W_pop[0, 0], rel=0.02)

    def test_linear_model_independent_of_theta(self):
        model, h = linear_model()
        pts = np.random.default_rng(0).uniform(0, 1, (50, 1))
        H = h(pts)
        want = H.T @ H / 50
        for th in (np.array([0.0, 0.0]), np.array([2.0, -1.0])):
            assert np.allclose(at_design(model, no_surface, th, pts).W(), want, rtol=1e-12)

    def test_refuses_nonsmooth_model(self):
        model = testbed.example1_model()
        with pytest.raises(ValueError, match="non-smooth"):
            at_design(model, ZETA, np.array([-1.0]), np.linspace(0, 6, 10))

    @pytest.mark.parametrize("output,match", [
        (lambda pts, ths: np.where(ths == 1.0, ths * pts[:, 0], np.nan), "gradient is non-finite"),
        (lambda pts, ths: np.where(ths == 1.0, np.nan, ths * pts[:, 0]),
         "derivatives are non-finite"),
        (lambda pts, ths: np.where(ths == 1.0, ths * pts[:, 0], np.inf), "gradient is non-finite"),
    ], ids=["gradient", "hessian", "inf-on-both-sides"])
    def test_non_finite_derivatives_are_a_fit_error(self, output, match):
        # an output that is NaN or +inf off theta has a non-finite gradient
        # (inf - inf, with no warning); one that is NaN only at theta has a
        # finite gradient and a non-finite Hessian: a numerical outcome, not
        # an input error
        model = ComputerModel(eval=output, theta_domain=BoxDomain((-2.0,), (2.0,)))
        with pytest.raises(rkhs.FitError, match=match):
            at_design(model, ZETA, np.array([1.0]), np.linspace(0, 6, 10))


class TestV:
    def test_perfect_surface_gives_twice_w(self):
        model = testbed.example2_model()
        pts = np.linspace(0.1, 6.2, 150)[:, None]
        surface = lambda p: model(p, THETA_STAR)
        ex = at_design(model, surface, THETA_STAR, pts)
        assert ex.V()[0, 0] == pytest.approx(2.0 * ex.W()[0, 0], rel=1e-6)

    def test_matches_fd_hessian_of_objective(self):
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 21, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        surface = lambda p: rkhs.predict(zeta_hat, p)
        model = system.computer_model
        theta = THETA_STAR
        V = at_design(model, surface, theta, pts).V()

        def objective(th):
            d = surface(pts) - model(pts, th)
            return float(d @ d) / pts.shape[0]

        _, _, H = fd_derivatives(lambda ths: np.array([objective(th) for th in ths]), theta,
                                 h=1e-4)
        assert V[0, 0] == pytest.approx(H[0, 0], rel=1e-3)

    def test_population_curvature_positive_at_minimum(self):
        V = expand(testbed.example2_model(), ZETA, THETA_STAR, RULE).V()
        assert V[0, 0] > 0.0


class TestCovariances:
    def test_scalar_arithmetic(self):
        cov = l2_cov(np.array([[2.0]]), np.array([[1.0]]), 1.0, 100)
        assert cov[0, 0] == pytest.approx(0.01, rel=1e-12)

    def test_doubling_n_halves_entries(self):
        V = np.array([[2.0, 0.1], [0.1, 3.0]])
        W = np.array([[1.0, 0.2], [0.2, 2.0]])
        a = l2_cov(V, W, 0.5, 100)
        b = l2_cov(V, W, 0.5, 200)
        assert np.allclose(a, 2.0 * b, rtol=1e-12)

    def test_singular_curvature_raises(self):
        with pytest.raises(SingularCurvatureError, match="invertible curvature"):
            l2_cov(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2), 1.0, 10)

    def test_perfect_model_makes_both_methods_equal(self):
        model = testbed.example2_model()
        pts = np.linspace(0.1, 6.2, 120)[:, None]
        surface = lambda p: model(p, THETA_STAR)
        ex = at_design(model, surface, THETA_STAR, pts)
        W, V = ex.W(), ex.V()
        s2 = 0.25
        S2 = ex.Sigma2(s2)
        assert np.allclose(S2, 4.0 * s2 * W, rtol=1e-12)
        assert np.allclose(ols_cov(V, S2, 120), l2_cov(V, W, s2, 120), rtol=1e-12)

    def test_population_ols_exceeds_l2(self):
        model = testbed.example2_model()
        s2 = 0.01
        ex = expand(model, ZETA, THETA_STAR, RULE)
        W, V, S2 = ex.W(), ex.V(), ex.Sigma2(s2)
        assert ols_cov(V, S2, 51)[0, 0] > l2_cov(V, W, s2, 51)[0, 0]

    def test_sigma2_matrix_dominates_noise_part(self):
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 33, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        model = system.computer_model
        theta = THETA_STAR
        ex = at_design(model, lambda p: rkhs.predict(zeta_hat, p), theta, pts)
        s2 = sigma2_hat(zeta_hat)
        W, S2 = ex.W(), ex.Sigma2(s2)
        assert np.linalg.eigvalsh(S2 - 4.0 * s2 * W).min() >= -1e-8


class TestEfficiencyGap:
    def test_equal_matrices_give_zero(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        gap = efficiency_gap(S, S)
        assert np.all(gap.gap == 0.0)
        assert gap.psd

    def test_population_gap_strictly_positive(self):
        model = testbed.example2_model()
        s2 = 0.01
        ex = expand(model, ZETA, THETA_STAR, RULE)
        W, S2 = ex.W(), ex.Sigma2(s2)
        gap = efficiency_gap(4.0 * s2 * W, S2)
        assert gap.psd and gap.min_eigenvalue > 0.0

    def test_rank_one_perturbation_is_psd(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        S1 = A @ A.T
        c = rng.normal(size=(3, 1))
        gap = efficiency_gap(S1, S1 + c @ c.T)
        assert gap.psd


class TestSandwichAssembly:
    def test_symmetry_and_psd(self):
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 44, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        sand = estimate_sandwich(zeta_hat, system.computer_model, THETA_STAR)
        for M in (sand.V_hat, sand.W_hat, sand.Sigma2_hat, sand.cov_l2,
                  sand.cov_ols):
            assert np.allclose(M, M.T, atol=1e-12)
        for M in (sand.W_hat, sand.Sigma2_hat, sand.cov_l2, sand.cov_ols):
            assert np.linalg.eigvalsh(M).min() >= -1e-8

    def test_unit_rescaling_of_control_variable_is_invariant(self):
        # expectations over the design do not change when the control
        # coordinate is relabeled (x -> 2x with the model composed
        # accordingly); unnormalized-integral conventions would not
        # survive this check
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 55, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        model = system.computer_model
        sand = estimate_sandwich(zeta_hat, model, THETA_STAR)

        scaled_model = ComputerModel(
            eval=lambda p, ths: model.batch(p / 2.0, ths),
            theta_domain=model.theta_domain)
        surface = lambda p: rkhs.predict(zeta_hat, p / 2.0)
        ex = at_design(scaled_model, surface, THETA_STAR, 2.0 * pts)
        s2 = sigma2_hat(zeta_hat)
        W2, V2, S22 = ex.W(), ex.V(), ex.Sigma2(s2)
        assert W2[0, 0] == pytest.approx(sand.W_hat[0, 0], rel=1e-4)
        assert V2[0, 0] == pytest.approx(sand.V_hat[0, 0], rel=1e-4)
        assert S22[0, 0] == pytest.approx(sand.Sigma2_hat[0, 0], rel=1e-4)

    def test_calls_the_model_once(self):
        # value, gradient and Hessian at theta-hat come from one batched stencil
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 66, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        model = system.computer_model
        calls = []
        counted = ComputerModel(
            eval=lambda p, ths: calls.append(len(ths)) or model.eval(p, ths),
            theta_domain=model.theta_domain)
        sand = estimate_sandwich(zeta_hat, counted, THETA_STAR)
        assert calls == [3]
        assert np.array_equal(sand.cov_l2, estimate_sandwich(zeta_hat, model, THETA_STAR).cov_l2)

    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_rule_formulas_at_unit_design_weights(self, q):
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 66, 0)
        zeta_hat = fit_response_surface(pts, y, KernelConfig())
        if q == 1:
            model, theta = system.computer_model, THETA_STAR
        else:
            model = ComputerModel(
                eval=lambda p, ths: (ths[:, :1] * np.sin(ths[:, 1:] * p[:, 0])
                                     + ths[:, 1:] ** 2 * p[:, 0]),
                theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
            theta = np.array([0.4, 0.9])
        sand = estimate_sandwich(zeta_hat, model, theta)
        ex = at_design(model, lambda p: rkhs.predict(zeta_hat, p), theta, pts)
        s2 = sigma2_hat(zeta_hat)
        assert sand.sigma2_hat == s2
        assert np.array_equal(sand.W_hat, ex.W())
        assert np.array_equal(sand.V_hat, ex.V())
        assert np.array_equal(sand.Sigma2_hat, ex.Sigma2(s2))


class TestPluginStandardErrors:
    def test_uniform_design_se_matches_the_spread(self):
        # the stderr column is the random-design asymptotic SE; on a
        # uniform design its mean square tracks the variance of theta-hat
        # across replications (100 replications: var is itself +-14%)
        config = cli.RunConfig(methods=("L2", "OLS"), sigma2=(0.1,), design="uniform_random",
                               design_n=101, seed=0)
        plan = cli._Plan.of(config)
        theta, se2 = {"L2": [], "OLS": []}, {"L2": [], "OLS": []}
        for r in range(100):
            pts, y = testbed.generate(plan.systems[0], config.seed, r)
            runs = cli._run_methods(plan, pts, y, sandwich=True)
            for method, run in runs.items():
                assert run.error is None
                theta[method].append(run.estimate.theta_hat[0])
                se2[method].append(run.estimate.covariance[0, 0])
        for method in theta:
            ratio = np.mean(se2[method]) / np.var(theta[method], ddof=1)
            assert 1.0 / 1.5 <= ratio <= 1.5, (method, ratio)
