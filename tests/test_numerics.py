import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import rkhs, testbed
from l2calib.calibrate import ComputerModel, _ProfiledGpLikelihood, ko_calibrate, l2_objective
from l2calib.numerics import (MAX_GRID_POINTS, MAX_QUADRATURE_NODES, PARABOLA_BRACKET,
                              REFINE_POINTS, SCAN_BLOCK_ROWS, BoxDomain, OptimizerConfig,
                              fd_derivatives, fd_step, gauss_legendre, minimize, scan,
                              tensor_grid)
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
        # the grid, zoom rounds of REFINE_POINTS rows, and one parabolic
        # step: its vertex and two probes
        calls = []

        def f(t):
            calls.append(t.shape)
            return (t[:, 0] - 0.3) ** 2
        res = minimize(f, THETA_BOX)
        assert calls[0] == (401, 1)
        assert calls[1:-1] == [(REFINE_POINTS, 1)] * (len(calls) - 2)
        assert calls[-1] == (3, 1)
        assert len(calls) <= 6
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


def counted(f):
    """``f`` and the list of the row counts of its calls."""
    rows = []

    def wrapper(t):
        rows.append(len(t))
        return f(t)
    return wrapper, rows


class TestPrecomputedCoarseValues:
    """``minimize(..., coarse=values)`` skips the scan and is otherwise the
    same call: the values go through the scan's rules."""

    @pytest.mark.parametrize("objective,box,config", [
        (closed_form_discrepancy, THETA_BOX, OptimizerConfig()),
        (lambda t: np.where(t[:, 0] < 0.05, np.nan, (t[:, 0] - 0.7) ** 2), UNIT,
         OptimizerConfig(grid_points=11)),
        (lambda t: np.cos(5.0 * t[:, 0]), BoxDomain((0.0,), (2.0,)), OptimizerConfig(tolerance=1e-3)),
        (lambda t: (t[:, 0] - 0.4) ** 2 + 2.0 * (t[:, 1] + 0.7) ** 2,
         BoxDomain((-2.0, -2.0), (2.0, 2.0)), OptimizerConfig(grid_points=21, tolerance=1e-10)),
    ], ids=["closed_form", "nan_rows", "cos5t", "q2"])
    def test_same_result_bit_for_bit(self, objective, box, config):
        want = minimize(objective, box, config)
        f, rows = counted(objective)
        with np.errstate(invalid="ignore"):
            coarse = objective(tensor_grid(box, config.grid_points))
        got = minimize(f, box, config, coarse=coarse)
        assert np.array_equal(got.x, want.x)
        assert got.fun == want.fun and got.iterations == want.iterations
        assert got.on_boundary == want.on_boundary
        assert config.grid_points ** box.dim not in rows  # no scan

    @pytest.mark.parametrize("coarse", [np.zeros(400), np.zeros((401, 1)), np.float64(0.0)],
                             ids=["short", "column", "scalar"])
    def test_wrong_shape_is_a_value_error(self, coarse):
        with pytest.raises(ValueError, match="objective returned shape .* for 401 parameter"):
            minimize(lambda t: t[:, 0] ** 2, THETA_BOX, coarse=coarse)

    def test_all_non_finite_values_raise(self):
        with pytest.raises(ValueError, match="non-finite on the whole coarse grid"):
            minimize(lambda t: t[:, 0] ** 2, THETA_BOX, coarse=np.full(401, np.inf))


class TestParabolicStep:
    """One-parameter zoom rounds end, once the bracket is at most
    ``PARABOLA_BRACKET`` wide, with one call at the vertex of the parabola
    through the best point and the bracket ends; where the probes beside
    the vertex do not confirm it, rounds go on down to ``tolerance``."""

    @pytest.mark.parametrize("c", [-0.123456789, 0.30371, 1.0000123])
    @pytest.mark.parametrize("right", [1.0, 2.0], ids=["symmetric", "asymmetric"])
    def test_off_grid_kinks_fall_back_to_rounds(self, c, right):
        # max(x - c, -2 (x - c)) is the asymmetric V; no parabola fits a V,
        # so rounds narrow the bracket to the tolerance
        f, rows = counted(lambda t: np.maximum(t[:, 0] - c, -right * (t[:, 0] - c)))
        cfg = OptimizerConfig()
        res = minimize(f, THETA_BOX, cfg)
        assert abs(res.x[0] - c) <= cfg.tolerance
        assert rows.count(3) == 1 and len(rows) > 6

    def test_kink_beside_the_vertex_falls_back(self):
        # the minimum is the kink at c; it bends the parabola through the
        # bracket, while the probes beside the vertex see one smooth piece,
        # with the curvature of the parabola but not its minimizer
        c = 0.91501
        f = lambda t: (t[:, 0] - c + 3e-6) ** 2 + 1e-5 * np.abs(t[:, 0] - c)
        res = minimize(f, THETA_BOX)
        assert abs(res.x[0] - c) <= OptimizerConfig().tolerance

    def test_cusp_falls_back(self):
        # the probes of this cusp place the vertex, but their curvature is not the parabola's
        c = 0.7634507528931951
        f = lambda t: np.sqrt(np.abs(np.maximum(1.5 * (t[:, 0] - c), -(t[:, 0] - c))))
        res = minimize(f, THETA_BOX)
        assert abs(res.x[0] - c) <= OptimizerConfig().tolerance

    def test_no_vertex_call_beside_a_non_finite_end(self):
        # the zoom's upper bracket ends past 0.35 are NaN, ranked +inf
        f, rows = counted(lambda t: np.where(t[:, 0] > 0.35, np.nan, (t[:, 0] - 0.4) ** 2))
        res = minimize(f, UNIT, OptimizerConfig(grid_points=11))
        assert 3 not in rows
        assert res.x[0] == pytest.approx(0.35, abs=1e-9)

    def test_minimum_past_the_box_edge_stays_in_the_box(self):
        # the best point of each round is its first, and the bracket end
        # below it, the box edge, is lower: no parabola is fitted there
        seen = []

        def f(t):
            seen.append(t[:, 0].copy())
            return (t[:, 0] + 2.0005) ** 2
        res = minimize(f, THETA_BOX)
        assert min(x.min() for x in seen) >= THETA_BOX.lower[0]
        assert 3 not in [len(x) for x in seen]
        assert res.x[0] == THETA_BOX.lower[0] and res.on_boundary

    def test_grid_best_on_the_edge_of_a_narrow_box(self):
        # the grid's bracket is narrow enough for the parabola at once, but
        # its best point is its lower end, where no parabola is fitted
        f, rows = counted(lambda t: (t[:, 0] + 1.0) ** 2)
        res = minimize(f, BoxDomain((0.0,), (0.01,)))
        assert 3 not in rows
        assert res.x[0] == 0.0 and res.on_boundary

    def test_values_near_the_largest_float_give_no_warning(self):
        # the bracket ends and the best point differ by more than the
        # largest float: the step's arithmetic overflows and it falls back
        c = 0.30371
        f = lambda t: 1.797e308 * (np.minimum(((t[:, 0] - c) / 1e-6) ** 2,
                                              1.0 + 100.0 * np.abs(t[:, 0] - c)) - 1.0)
        res = minimize(f, THETA_BOX)  # warnings are errors in this suite
        assert abs(res.x[0] - c) <= OptimizerConfig().tolerance

    def test_no_vertex_call_when_the_tolerance_is_coarser(self):
        f, rows = counted(lambda t: (t[:, 0] - 0.3) ** 2)
        res = minimize(f, THETA_BOX, OptimizerConfig(tolerance=PARABOLA_BRACKET))
        assert rows[1:] == [REFINE_POINTS] * (len(rows) - 1)
        assert abs(res.x[0] - 0.3) <= PARABOLA_BRACKET

    def test_iteration_cap_counts_the_vertex_call(self):
        f, rows = counted(lambda t: np.maximum(t[:, 0] - 0.30371, -(t[:, 0] - 0.30371)))
        res = minimize(f, THETA_BOX, OptimizerConfig(max_iterations=5))
        assert len(rows) == 6 and res.iterations == 5


def _assert_zoom_matches_golden(objective, box, config=OptimizerConfig()):
    """Checks ``minimize`` against the oracle; returns its objective calls."""
    f, rows = counted(objective)
    res = minimize(f, box, config)
    x, fx = golden_minimize(objective, box, config)
    assert res.fun <= fx + 1e-12 * max(1.0, abs(fx))
    assert abs(res.x[0] - x) <= 1e-7
    return len(rows)


class TestZoomMatchesGoldenSection:
    """One-parameter zoom rounds and the parabolic step against
    golden-section from the same grid bracket: never a higher value beyond
    rounding, the same minimizer; a smooth objective takes at most 6 calls."""

    @pytest.mark.parametrize("objective,box", [
        (closed_form_discrepancy, THETA_BOX),
        (lambda t: (t[:, 0] - 0.3) ** 2, THETA_BOX),
        (lambda t: np.cos(5.0 * t[:, 0]), BoxDomain((0.0,), (2.0,))),
        (lambda t: np.exp(t[:, 0]) - 2.0 * t[:, 0], THETA_BOX),
    ], ids=["closed_form", "quadratic", "cos5t", "exp"])
    def test_closed_forms(self, objective, box):
        assert _assert_zoom_matches_golden(objective, box) <= 6

    @pytest.mark.parametrize("example,seed", DATASETS)
    @pytest.mark.parametrize("method", ["L2", "OLS", "KO"])
    def test_estimator_objectives(self, method, example, seed):
        objective = estimator_objectives(example, seed)[method]
        calls = _assert_zoom_matches_golden(objective, testbed.DEFAULT_THETA_DOMAIN)
        if example == "example2":  # example1's minima sit on its kink at theta = -1
            assert calls <= 6

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
