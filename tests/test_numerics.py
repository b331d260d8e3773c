import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import rkhs, testbed
from l2calib.calibrate import ComputerModel, _ProfiledGpLikelihood, ko_calibrate, l2_objective
from l2calib.numerics import (MAX_GRID_POINTS, MAX_QUADRATURE_NODES, REFINE_POINTS,
                              SCAN_BLOCK_ROWS, BoxDomain, OptimizerConfig, fd_derivatives,
                              fd_step, gauss_legendre, minimize, scan, tensor_grid)
from l2calib.rkhs import KernelConfig, fit_response_surface

UNIT = BoxDomain((0.0,), (1.0,))
OMEGA = testbed.OMEGA
THETA_BOX = BoxDomain((-2.0,), (2.0,))


def closed_form_discrepancy(thetas):
    return np.array([testbed.discrepancy_closed_form(t) for t in thetas[:, 0]])


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-9, max_iterations=200):
    """Golden-section search for a minimum of the scalar ``f`` on
    ``[lo, hi]``: ``(x, f(x), iterations)``."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < max_iterations:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x), it


def golden_minimize(objective, box, config=OptimizerConfig()):
    """The oracle for one-parameter ``minimize``: the same grid scan, then
    golden-section on the best grid point's two neighbours, one row per
    call.  Returns ``(x, f(x))``."""
    ax = tensor_grid(box, config.grid_points)[:, 0]
    vals = scan(objective, ax[:, None])
    best = int(np.argmin(vals))
    x, fx, _ = golden_section(lambda t: float(scan(objective, np.array([[t]]))[0]),
                              ax[max(best - 1, 0)], ax[min(best + 1, len(ax) - 1)],
                              config.tolerance, config.max_iterations)
    return (ax[best], float(vals[best])) if vals[best] < fx else (x, fx)


def estimator_objectives(example, seed):
    """The L2, OLS and KO objectives of one noisy testbed dataset."""
    system = testbed.make_system(example, 0.1, "uniform_random", 101)
    pts, y = testbed.generate(system, seed, 0)
    model = system.computer_model
    surface = fit_response_surface(pts, y, KernelConfig())
    rule = gauss_legendre(OMEGA, 256)
    nll = _ProfiledGpLikelihood(surface, model)
    return {"L2": l2_objective(rkhs.predict(surface, rule.nodes), model, rule),
            "OLS": lambda t: ((y - model.batch(pts, t)) ** 2).sum(axis=1),
            "KO": lambda t: nll.profile(t)[0]}


DATASETS = [("example2", 0), ("example2", 1), ("example2", 2), ("example1", 3)]


class TestBoxDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain((1.0,), (0.0,))

    def test_on_boundary_and_clip(self):
        box = BoxDomain((0.0, -1.0), (1.0, 1.0))
        assert not box.on_boundary([0.5, 0.0])
        assert box.on_boundary([0.5, 1.0]) and box.on_boundary([0.0, 0.0])
        assert box.on_boundary([1.0 + 1e-13, 0.0])
        assert box.clip(np.array([1.5, -2.0])).tolist() == [1.0, -1.0]


class TestGaussLegendre:
    def test_single_node_is_midpoint(self):
        rule = gauss_legendre(UNIT, 1)
        assert rule.nodes[0, 0] == pytest.approx(0.5)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_sin_squared_integral(self):
        rule = gauss_legendre(OMEGA, 64)
        val = rule.weights @ np.sin(rule.nodes[:, 0]) ** 2
        assert val == pytest.approx(np.pi, abs=1e-12)

    def test_cubic_exactness_with_two_nodes(self):
        rule = gauss_legendre(UNIT, 2)
        val = rule.weights @ rule.nodes[:, 0] ** 3
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_weights_sum_to_volume(self):
        box = BoxDomain((0.0, -1.0), (2.0, 3.0))
        rule = gauss_legendre(box, 9)
        assert rule.weights.sum() == pytest.approx(8.0, rel=1e-10)
        assert np.all(rule.weights > 0)
        for j in range(box.dim):
            assert rule.nodes[:, j].min() >= box.lower[j]
            assert rule.nodes[:, j].max() <= box.upper[j]

    def test_doubling_m_converges(self):
        f = lambda p: np.exp(p[:, 0] / 10.0) * np.sin(p[:, 0]) ** 2
        a, b = (rule.weights @ f(rule.nodes)
                for rule in (gauss_legendre(OMEGA, 128), gauss_legendre(OMEGA, 256)))
        assert abs(a - b) <= 1e-10 * abs(b)

    @pytest.mark.parametrize("m", [0, MAX_QUADRATURE_NODES + 1])
    def test_node_count_outside_the_range_is_rejected(self, m):
        # rejected before leggauss builds its m x m matrix
        with pytest.raises(ValueError, match=f"need 1 to {MAX_QUADRATURE_NODES} nodes"):
            gauss_legendre(OMEGA, m)


def l2_distance_sq(f, g, rule):
    """``calibrate.l2_objective`` between ``f`` and a simulator that is ``g``
    for every parameter, at one parameter vector."""
    model = ComputerModel(eval=lambda p, ths: np.tile(g(p), (len(ths), 1)), theta_domain=UNIT)
    return l2_objective(f(rule.nodes), model, rule)(np.zeros((1, 1)))[0]


class TestL2Distance:
    def test_identical_functions(self):
        rule = gauss_legendre(OMEGA, 32)
        f = lambda p: np.sin(p[:, 0])
        assert l2_distance_sq(f, f, rule) == 0.0

    def test_example2_at_theta_one_is_two_pi(self):
        rule = gauss_legendre(OMEGA, 256)
        distance = l2_objective(testbed.zeta_true(rule.nodes[:, 0]), testbed.example2_model(), rule)
        assert distance(np.array([[1.0]]))[0] == pytest.approx(2 * np.pi, rel=1e-12)

    def test_matches_closed_form_over_theta_grid(self):
        rule = gauss_legendre(OMEGA, 256)
        distance = l2_objective(testbed.zeta_true(rule.nodes[:, 0]), testbed.example2_model(), rule)
        thetas = np.linspace(-2.0, 2.0, 41)
        for t, got in zip(thetas, distance(thetas[:, None])):
            if abs(t) < 1e-3:
                continue
            assert got == pytest.approx(testbed.discrepancy_closed_form(t), rel=1e-9)

    def test_symmetry(self):
        rule = gauss_legendre(OMEGA, 32)
        f = lambda p: np.sin(p[:, 0])
        g = lambda p: np.cos(p[:, 0])
        assert l2_distance_sq(f, g, rule) == l2_distance_sq(g, f, rule)


class TestMinimize:
    def test_quadratic(self):
        res = minimize(lambda t: (t[:, 0] - 0.3) ** 2, BoxDomain((-1.0,), (1.0,)))
        assert res.x[0] == pytest.approx(0.3, abs=1e-8)

    def test_closed_form_discrepancy_minimizer(self):
        res = minimize(closed_form_discrepancy, THETA_BOX)
        assert res.x[0] == pytest.approx(-0.1789, abs=5e-4)

    def test_multimodal_matches_dense_scan(self):
        # cos(5t) on [0, 2] has tied global minima at pi/5 and 3*pi/5;
        # the scan must land on one of them, never on a worse local one.
        box = BoxDomain((0.0,), (2.0,))
        f = lambda t: np.cos(5.0 * t[:, 0])
        res = minimize(f, box, OptimizerConfig(grid_points=101))
        ts = np.linspace(0.0, 2.0, 100_001)
        brute_val = np.cos(5.0 * ts).min()
        assert res.fun == pytest.approx(brute_val, abs=1e-8)
        nearest = min(abs(res.x[0] - np.pi / 5.0), abs(res.x[0] - 3.0 * np.pi / 5.0))
        assert nearest <= 1e-4

    def test_idempotent_restart(self):
        f = closed_form_discrepancy
        cfg = OptimizerConfig(tolerance=1e-10)
        res = minimize(f, THETA_BOX, cfg)
        eps = 1e-3
        narrow = BoxDomain((res.x[0] - eps,), (res.x[0] + eps,))
        res2 = minimize(f, narrow, cfg)
        assert res2.fun >= res.fun - cfg.tolerance

    def test_two_dimensional_nelder_mead(self):
        box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
        f = lambda t: (t[:, 0] - 0.4) ** 2 + 2.0 * (t[:, 1] + 0.7) ** 2
        res = minimize(f, box, OptimizerConfig(grid_points=21, tolerance=1e-10))
        assert np.allclose(res.x, [0.4, -0.7], atol=1e-6)

    def test_all_nonfinite_grid_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            minimize(lambda t: np.full(len(t), np.nan), UNIT, OptimizerConfig(grid_points=5))

    def test_boundary_flag(self):
        res = minimize(lambda t: t[:, 0], UNIT, OptimizerConfig(grid_points=11))
        assert res.on_boundary

    def test_q1_grid_is_one_objective_call(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return (t[:, 0] - 0.3) ** 2
        res = minimize(f, THETA_BOX)
        assert calls[0] == (401, 1)
        assert calls[1:] == [(REFINE_POINTS, 1)] * (len(calls) - 1)
        assert len(calls) <= 10
        assert res.iterations == len(calls) - 1

    def test_non_finite_rows_are_skipped(self):
        # argmin would pick the NaN in the first row if it were not skipped
        f = lambda t: np.where(t[:, 0] < 0.05, np.nan, (t[:, 0] - 0.7) ** 2)
        res = minimize(f, UNIT, OptimizerConfig(grid_points=11))
        assert res.x[0] == pytest.approx(0.7, abs=1e-6)

    def test_nan_probes_do_not_win_the_refinement(self):
        # zoom points past 0.35 see NaN; ranked as +inf, they lose
        res = minimize(lambda t: np.where(t[:, 0] > 0.35, np.nan, (t[:, 0] - 0.4) ** 2),
                       BoxDomain((0.0,), (1.0,)), OptimizerConfig(grid_points=11))
        assert res.x[0] == pytest.approx(0.35, abs=1e-6)
        assert res.fun == pytest.approx(0.0025, rel=1e-4)

    def test_all_nan_grid_message(self):
        with pytest.raises(ValueError, match="objective is non-finite on the whole coarse grid"):
            minimize(lambda t: np.full(len(t), np.nan), THETA_BOX)

    def test_objective_must_return_one_value_per_row(self):
        with pytest.raises(ValueError, match=r"objective returned shape \(\) for 401"):
            minimize(lambda t: 0.0, THETA_BOX)

    def test_q2_scan_is_cut_into_blocks(self):
        rows = []

        def f(t):
            rows.append(len(t))
            return (t[:, 0] - 0.4) ** 2 + 2.0 * (t[:, 1] + 0.7) ** 2
        box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
        res = minimize(f, box)
        assert max(rows) == SCAN_BLOCK_ROWS
        assert sum(r for r in rows if r > 1) == MAX_GRID_POINTS
        assert np.allclose(res.x, [0.4, -0.7], atol=1e-6)

    def test_closed_form_minimizer_to_high_accuracy(self):
        res = minimize(closed_form_discrepancy, THETA_BOX)
        assert abs(res.x[0] - testbed.THETA_STAR_EXAMPLE2) <= 2e-9

    def test_no_round_when_the_grid_bracket_is_within_tolerance(self):
        f = lambda t: (t[:, 0] - 0.3) ** 2
        res = minimize(f, THETA_BOX, OptimizerConfig(tolerance=1.0))
        grid = tensor_grid(THETA_BOX, OptimizerConfig().grid_points)
        best = int(np.argmin(f(grid)))
        assert res.iterations == 0
        assert res.x[0] == grid[best, 0] and res.fun == f(grid)[best]


def _assert_zoom_matches_golden(objective, box, config=OptimizerConfig()):
    res = minimize(objective, box, config)
    x, fx = golden_minimize(objective, box, config)
    assert res.fun <= fx + 1e-12 * max(1.0, abs(fx))
    assert abs(res.x[0] - x) <= 1e-7


class TestZoomMatchesGoldenSection:
    """One-parameter zoom rounds against golden-section from the same grid
    bracket: never a higher value beyond rounding, the same minimizer."""

    @pytest.mark.parametrize("objective,box", [
        (closed_form_discrepancy, THETA_BOX),
        (lambda t: (t[:, 0] - 0.3) ** 2, THETA_BOX),
        (lambda t: np.cos(5.0 * t[:, 0]), BoxDomain((0.0,), (2.0,))),
    ], ids=["closed_form", "quadratic", "cos5t"])
    def test_closed_forms(self, objective, box):
        _assert_zoom_matches_golden(objective, box)

    @pytest.mark.parametrize("example,seed", DATASETS)
    @pytest.mark.parametrize("method", ["L2", "OLS", "KO"])
    def test_estimator_objectives(self, method, example, seed):
        objective = estimator_objectives(example, seed)[method]
        _assert_zoom_matches_golden(objective, testbed.DEFAULT_THETA_DOMAIN)

    @settings(max_examples=40, deadline=None)
    @given(center=st.floats(-1.9, 1.9), curvature=st.floats(0.1, 10.0),
           amplitude=st.floats(0.0, 2.0), frequency=st.floats(0.5, 20.0))
    def test_never_above_the_grid_minimum(self, center, curvature, amplitude, frequency):
        def f(t):
            return curvature * (t[:, 0] - center) ** 2 + amplitude * np.cos(frequency * t[:, 0])
        res = minimize(f, THETA_BOX)
        assert res.fun <= f(tensor_grid(THETA_BOX, OptimizerConfig().grid_points)).min()


class TestOptimizerConfig:
    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_rejects_tolerance_not_positive_and_finite(self, tolerance):
        # with a NaN tolerance no refinement round would run, and minimize
        # would return a grid point (0.12 for a minimum at 0.1234568)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            OptimizerConfig(tolerance=tolerance)

    @pytest.mark.parametrize("grid_points", [2, MAX_GRID_POINTS + 1])
    def test_rejects_grid_points_out_of_range(self, grid_points):
        with pytest.raises(ValueError, match=f"need 3 to {MAX_GRID_POINTS} grid points"):
            OptimizerConfig(grid_points=grid_points)

    def test_accepts_the_cap(self):
        assert OptimizerConfig(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS


class TestTensorGrid:
    def test_rows_are_the_row_major_tensor_product(self):
        box = BoxDomain((0.0, -1.0), (1.0, 1.0))
        want = [[a, b] for a in np.linspace(0.0, 1.0, 3) for b in np.linspace(-1.0, 1.0, 3)]
        assert np.array_equal(tensor_grid(box, 3), want)

    def test_default_scan_at_q2_is_admitted(self):
        box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
        assert tensor_grid(box, OptimizerConfig().grid_points).shape == (MAX_GRID_POINTS, 2)

    def test_q3_scans_raise_before_any_objective_call(self):
        box = BoxDomain((-2.0,) * 3, (2.0,) * 3)
        calls = []

        def objective(t):
            calls.append(t)
            return np.zeros(len(t))
        with pytest.raises(ValueError, match=r"q=3 .* 401 points per axis has 64481201 points"):
            minimize(objective, box)
        model = ComputerModel(eval=lambda pts, ths: objective(ths)[:, None] + np.zeros(len(pts)),
                              theta_domain=box)
        x = np.linspace(0.0, 6.0, 8)[:, None]
        with pytest.raises(ValueError, match=r"q=3 .* 401 points per axis has 64481201 points"):
            ko_calibrate(fit_response_surface(x, np.sin(x[:, 0]), KernelConfig()), model)
        assert calls == []


def scalar(f):
    """A batched ``(k, q) -> (k,)`` version of the one-vector function ``f``."""
    return lambda ts: np.array([f(t) for t in ts])


class TestFiniteDifferences:
    def test_linear_has_zero_hessian(self):
        f = lambda t: 3.0 * t[0] - 2.0 * t[1]
        _, _, H = fd_derivatives(scalar(f), np.array([0.3, -0.4]))
        assert np.abs(H).max() <= 1e-6

    def test_quadratic_hessian_is_2i(self):
        f = lambda t: float(t @ t)
        _, _, H = fd_derivatives(scalar(f), np.array([0.5, -1.2, 2.0]))
        assert np.allclose(H, 2.0 * np.eye(3), atol=1e-5)

    def test_gradient_of_quadratic(self):
        f = lambda t: float(t @ t)
        x = np.array([0.5, -1.2])
        assert np.allclose(fd_derivatives(scalar(f), x)[1], 2.0 * x, atol=1e-8)

    def test_example2_theta_gradient_matches_analytic(self):
        x = np.linspace(0.3, 5.9, 7)
        theta = 0.5
        f = lambda t: float(np.sum(testbed.ys_example2(x, t[0])))
        got = fd_derivatives(scalar(f), np.array([theta]))[1][0]
        want = float(np.sum(testbed.ys_example2_grad(x, theta)))
        assert got == pytest.approx(want, rel=1e-6)


def _column_loop_derivatives(f, x):
    """Per-column central differences, written out one column at a time."""
    steps = fd_step(x)
    q = x.size
    f0 = f(x)
    G = np.empty(f0.shape + (q,))
    H = np.empty(f0.shape + (q, q))
    for j in range(q):
        ej = np.zeros_like(x)
        ej[j] = steps[j]
        G[..., j] = (f(x + ej) - f(x - ej)) / (2.0 * steps[j])
        H[..., j, j] = (f(x + ej) - 2.0 * f0 + f(x - ej)) / steps[j] ** 2
        for k in range(j + 1, q):
            ek = np.zeros_like(x)
            ek[k] = steps[k]
            mixed = (f(x + ej + ek) - f(x + ej - ek)
                     - f(x - ej + ek) + f(x - ej - ek))
            H[..., j, k] = H[..., k, j] = mixed / (4.0 * steps[j] * steps[k])
    return G, H


class TestVectorFiniteDifferences:
    """The batched stencil, as the sandwich uses it, equals the per-column
    loop bit for bit and calls the model once."""

    MODELS = {
        1: (lambda p, ths: np.exp(ths[:, :1] * p[:, 0] / 5.0) * np.sin(p[:, 0]), [0.7]),
        2: (lambda p, ths: ths[:, :1] * np.sin(ths[:, 1:] * p[:, 0]) + ths[:, 1:] ** 2 * p[:, 0],
            [0.4, -0.9]),
    }

    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_column_loop(self, q):
        ev, theta = self.MODELS[q]
        pts = np.linspace(0.1, 6.0, 13)[:, None]
        theta = np.array(theta)
        G, H = _column_loop_derivatives(lambda t: ev(pts, t[None])[0], theta)
        calls = []
        model = ComputerModel(eval=lambda p, ths: calls.append(len(ths)) or ev(p, ths),
                              theta_domain=BoxDomain((-2.0,) * q, (2.0,) * q))
        y, got_G, got_H = fd_derivatives(lambda ths: model.batch(pts, ths), theta)
        assert calls == [2 * q * q + 1]
        assert got_G.shape == (13, q) and got_H.shape == (13, q, q)
        assert np.array_equal(y, ev(pts, theta[None])[0])
        assert np.array_equal(got_G, G)
        assert np.array_equal(got_H, H)
