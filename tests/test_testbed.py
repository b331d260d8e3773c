import numpy as np
import pytest

from l2calib import cli, testbed
from l2calib.calibrate import l2_objective
from l2calib.numerics import gauss_legendre
from l2calib.testbed import (SyntheticSystem, discrepancy_closed_form,
                             discrepancy_example1_closed_form, generate,
                             make_system, replication_rng, ys_example1,
                             ys_example2, ys_example2_grad, zeta_true)


class TestTrueProcess:
    def test_vanishes_at_pi(self):
        assert zeta_true(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_half_pi(self):
        # exp(pi/20), frozen from direct evaluation
        assert zeta_true(np.pi / 2) == pytest.approx(1.1700887874964219, rel=1e-14)

    def test_sign_follows_sine(self):
        x = np.linspace(0.01, 2 * np.pi - 0.01, 500)
        assert np.all(np.sign(zeta_true(x)) == np.sign(np.sin(x)))


class TestSimulators:
    def test_example1_perfect_at_minus_one(self):
        x = np.linspace(0.01, 2 * np.pi - 0.01, 200)
        assert np.array_equal(ys_example1(x, -1.0), zeta_true(x))

    def test_example1_at_zero(self):
        x = np.linspace(0.1, 6.0, 50)
        assert np.allclose(ys_example1(x, 0.0), zeta_true(x) - 1.0, rtol=1e-15)

    def test_example1_discrepancy_closed_form_vs_quadrature(self):
        rule = gauss_legendre(testbed.OMEGA, 256)
        distance = l2_objective(zeta_true(rule.nodes[:, 0]), testbed.example1_model(), rule)
        thetas = np.array([-1.7, -0.5, 0.3, 1.9])
        for t, got in zip(thetas, distance(thetas[:, None])):
            assert got == pytest.approx(discrepancy_example1_closed_form(t), rel=1e-9)

    def test_example2_at_theta_one(self):
        x = np.linspace(0.1, 6.0, 50)
        want = zeta_true(x) - (np.sin(x) + np.cos(x))
        assert np.allclose(ys_example2(x, 1.0), want, rtol=1e-15)

    def test_example2_never_matches_truth(self):
        # minimum possible amplitude is sqrt(3)/2 > 0
        x = np.linspace(0.01, 2 * np.pi - 0.01, 400)
        for t in np.linspace(-2, 2, 81):
            assert np.abs(ys_example2(x, t) - zeta_true(x)).max() > 0.1

    @pytest.mark.parametrize("theta", [-1.5, 0.0, 0.7])
    def test_example2_gradient_matches_fd(self, theta):
        x = np.linspace(0.2, 6.0, 25)
        h = 1e-6
        fd = (ys_example2(x, theta + h) - ys_example2(x, theta - h)) / (2 * h)
        got = ys_example2_grad(x, theta)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)


class TestClosedFormDiscrepancy:
    def test_theta_one_is_two_pi(self):
        assert discrepancy_closed_form(1.0) == pytest.approx(2 * np.pi, rel=1e-15)

    def test_theta_zero_analytic_limit(self):
        assert discrepancy_closed_form(0.0) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_series_branch_is_continuous(self):
        left = discrepancy_closed_form(-1.0000001e-6)
        inner = discrepancy_closed_form(-0.9999999e-6)
        assert left == pytest.approx(inner, rel=1e-6)

    def test_minimizer_location(self):
        ts = np.linspace(-2, 2, 80_001)
        vals = np.array([discrepancy_closed_form(t) for t in ts])
        assert ts[np.argmin(vals)] == pytest.approx(-0.1789, abs=5e-4)
        assert testbed.THETA_STAR_EXAMPLE2 == pytest.approx(-0.1789, abs=5e-4)

    def test_quadrature_agreement_over_range(self):
        for t, _, got in cli.discrepancy_curve("example2", -2.0, 2.0, 101):
            want = discrepancy_closed_form(t)
            tol = 1e-6 if abs(t) < 1e-3 else 1e-9
            assert got == pytest.approx(want, rel=tol)

    def test_example1_discrepancy_zero_only_at_minus_one(self):
        ts = np.arange(-2.0, 2.0 + 1e-12, 0.01)
        vals = np.array([discrepancy_example1_closed_form(t) for t in ts])
        at_min = np.isclose(ts, -1.0, atol=1e-12)
        assert vals[at_min] == pytest.approx(0.0, abs=1e-12)
        assert np.all(vals[~at_min] > 0.0)


class TestGenerate:
    def test_zero_noise_reproduces_truth(self):
        sys2 = make_system("example2", 0.0)
        pts, y = generate(sys2, 5, 0)
        assert np.array_equal(y, zeta_true(pts[:, 0]))

    def test_fixed_grid_layout(self):
        pts, _ = generate(make_system("example1", 0.1), 1, 0)
        want = 2 * np.pi * np.arange(51) / 50.0
        assert pts.shape == (51, 1)
        assert np.array_equal(pts[:, 0], want)

    def test_determinism(self):
        sys2 = make_system("example2", 1.0, design="uniform_random", n=40)
        a = generate(sys2, 99, 7)
        b = generate(sys2, 99, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_uniform_design_in_domain(self):
        sys2 = make_system("example2", 0.1, design="uniform_random", n=300)
        pts, _ = generate(sys2, 11, 3)
        assert pts.shape == (300, 1)
        assert pts.min() >= 0.0 and pts.max() <= 2 * np.pi

    def test_streams_pairwise_distinct(self):
        draws = {tuple(replication_rng(42, r).normal(size=4)) for r in range(1000)}
        assert len(draws) == 1000

    def test_noise_mean_clt_bound(self):
        sys1 = make_system("example1", 1.0)
        total, count = 0.0, 0
        for r in range(400):
            pts, y = generate(sys1, 123, r)
            e = y - zeta_true(pts[:, 0])
            total += e.sum()
            count += e.size
        # 4-sigma band around zero for the pooled mean
        assert abs(total / count) <= 4.0 / np.sqrt(count)

    def test_noise_variance_statistical_check(self):
        sys1 = make_system("example1", 0.5)
        es = []
        for r in range(200):
            pts, y = generate(sys1, 7, r)
            es.append(y - zeta_true(pts[:, 0]))
        e = np.concatenate(es)
        # chi-square concentration: relative error ~ sqrt(2/n) at 4 sigma
        assert np.var(e) == pytest.approx(0.5, rel=4.0 * np.sqrt(2.0 / e.size))

    def test_invalid_system_parameters(self):
        with pytest.raises(ValueError):
            make_system("example3", 0.1)
        with pytest.raises(ValueError):
            SyntheticSystem(name="x", true_process=zeta_true,
                            computer_model=testbed.example2_model(),
                            theta_star=0.0, design="latin")
        with pytest.raises(ValueError, match="51 points, got n=7"):
            make_system("example2", 0.1, "fixed_grid", 7)
