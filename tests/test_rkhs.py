import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import rkhs, testbed
from l2calib.kernels import KernelSpec, gram, sqdist
from l2calib.rkhs import (KernelConfig, fit_with_rule,
                          gcv_select, loo_cv_phi, predict, rkhs_norm_sq, sigma2_hat)

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
        m = fit_with_rule([0.0], [2.0], GAUSS, (1.0,), jitter=0.0)
        # (1 + 1*1) u = 2
        assert m.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        assert m.fitted[0] == pytest.approx(1.0, rel=1e-14)

    def test_interpolation_limit(self):
        x, y = smooth_data(10, seed=3)
        m = fit_with_rule(x, y, GAUSS, (1e-12,))
        assert np.abs(m.fitted - y).max() <= 1e-6

    def test_nugget_system_equivalence(self):
        # representer identity: (K + n*lam*I)u = y is the nugget solve
        # with sigma^2 = n*lam; oracle is a direct dense solve.
        x, y = smooth_data(12, seed=5, noise=0.3)
        lam = 1e-3
        m = fit_with_rule(x, y, GAUSS, (lam,), jitter=0.0)
        K = gram(GAUSS, sqdist(x))
        sigma2 = len(y) * lam
        oracle = np.linalg.solve(K + sigma2 * np.eye(len(y)), y)
        assert np.allclose(m.coeffs, oracle, rtol=1e-10, atol=1e-13)

    def test_coefficients_solve_penalized_system(self):
        x, y = smooth_data(20, seed=7, noise=0.2)
        lam = 1e-4
        m = fit_with_rule(x, y, GAUSS, (lam,))
        K = gram(GAUSS, sqdist(x))
        resid = (K + len(y) * lam * np.eye(len(y))) @ m.coeffs - y
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_rejects_nan_responses(self):
        with pytest.raises(rkhs.FitError, match="NaN"):
            fit_with_rule([0.0, 1.0], [1.0, np.nan], GAUSS, (0.1,))

    def test_rejects_empty_design(self):
        with pytest.raises(ValueError, match="points must hold at least one design point"):
            rkhs.fit_response_surface(np.zeros((0, 1)), [], KernelConfig())
        with pytest.raises(ValueError, match="points must hold at least one design point"):
            loo_cv_phi(np.zeros((0, 1)), [], KernelConfig())

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            fit_with_rule([0.0], [1.0], GAUSS, (0.0,))

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            fit_with_rule([0.0], [1.0], GAUSS, (0.1,), jitter=-1e-10)

    def test_singular_system_names_eigenvalue(self):
        # duplicated points make K exactly singular; lambda tiny enough
        # that the shift cannot rescue it without jitter
        x = np.array([[0.5], [0.5], [1.0]])
        with pytest.raises(rkhs.FitError, match="eigenvalue"):
            fit_with_rule(x, [1.0, 1.0, 2.0], GAUSS, (1e-320,), jitter=0.0)


class TestPredict:
    def test_reproduces_fitted_at_design(self):
        # agreement is limited only by the stabilizing diagonal jitter
        x, y = smooth_data(12, seed=1, noise=0.1)
        m = fit_with_rule(x, y, GAUSS, (1e-3,))
        assert np.allclose(predict(m, x), m.fitted, rtol=1e-9, atol=1e-9)
        m0 = fit_with_rule(x, y, GAUSS, (1e-3,), jitter=0.0)
        assert np.allclose(predict(m0, x), m0.fitted, rtol=1e-12, atol=1e-13)

    def test_zero_coefficients_predict_zero(self):
        x, _ = smooth_data(8, seed=2)
        m = fit_with_rule(x, np.zeros(8), GAUSS, (0.5,))
        assert np.all(m.coeffs == 0.0)
        assert np.all(predict(m, np.linspace(0, 6, 30)) == 0.0)

    def test_matches_double_loop_oracle(self):
        x, y = smooth_data(15, seed=4, noise=0.2)
        m = fit_with_rule(x, y, GAUSS, (1e-3,))
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
        m = fit_with_rule(x, np.zeros(6), GAUSS, (0.1,))
        assert rkhs_norm_sq(m) == 0.0

    def test_one_point_norm(self):
        m = fit_with_rule([0.0], [2.0], GAUSS, (1.0,), jitter=0.0)
        assert rkhs_norm_sq(m) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_in_lambda(self):
        x, y = smooth_data(20, seed=9, noise=0.3)
        lams = np.logspace(-6, 0, 13)
        norms = [rkhs_norm_sq(fit_with_rule(x, y, GAUSS, (lam,)))
                 for lam in lams]
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
        K = gram(GAUSS, sqdist(x))
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
        K = gram(GAUSS, sqdist(x))
        for lam in (1e-6, 1e-3, 1.0):
            A = K @ np.linalg.inv(K + n * lam * np.eye(n))
            eig = np.linalg.eigvalsh(0.5 * (A + A.T))
            assert eig.min() >= -1e-10
            assert eig.max() < 1.0


def loo_config(grid, lambda_grid=rkhs.DEFAULT_LAMBDA_GRID):
    """Gaussian kernel, phi by leave-one-out over ``grid``."""
    return KernelConfig(phi_grid=grid, lambda_grid=lambda_grid)


class TestLooPhi:
    def test_single_candidate_returned(self):
        x, y = smooth_data(10, seed=17, noise=0.2)
        assert loo_cv_phi(x, y, loo_config([0.7])).kernel.phi == 0.7

    def test_closed_form_matches_refit_oracle(self):
        x, y = smooth_data(12, seed=19, noise=0.3)
        n = len(y)
        lam = 1e-3
        score = rkhs._loo_score(rkhs._Panel.full(x, y, GAUSS, jitter=0.0), lam)
        loo_sq = []
        for i in range(n):
            keep = np.arange(n) != i
            mi = fit_with_rule(x[keep], y[keep], GAUSS, (lam * n / (n - 1),),
                               jitter=0.0)
            loo_sq.append((y[i] - predict(mi, x[i:i + 1])[0]) ** 2)
        # hold-out fit uses the same nugget n*lam, hence the rescaled penalty
        assert score == pytest.approx(np.mean(loo_sq), rel=1e-8)

    def test_constant_responses_tie_toward_smallest(self):
        x, _ = smooth_data(10, seed=21)
        model = loo_cv_phi(x, np.zeros(10), loo_config([0.1, 1.0, 10.0]))
        assert model.kernel.phi == 0.1

    def test_near_unit_leverage_scores_infinite_not_error(self):
        # widely separated points with a vanishing penalty drive every
        # leverage to 1; the candidate is scored out, not raised
        x = np.arange(5.0)[:, None] * 4.0
        y = np.sin(x[:, 0])
        config = loo_config([1.0], (1e-16,))
        assert np.isinf(rkhs._loo_score(rkhs._Panel.full(x, y, GAUSS, jitter=0.0), 1e-16))
        with pytest.raises(rkhs.FitError, match="non-finite"):
            loo_cv_phi(x, y, config)


class TestKernelConfig:
    @pytest.mark.parametrize("grids", [
        {"phi_grid": ()}, {"lambda_grid": []},
        {"phi_grid": (0.0, 1.0)}, {"lambda_grid": (0.0,)},
        {"phi_grid": (-0.5,)}, {"lambda_grid": (-1e-3, 1e-2)},
        {"phi_grid": (1.0, float("nan"))}, {"lambda_grid": (float("nan"),)},
        {"lambda_grid": (1e-2, 1e-4)},
    ], ids=["phi_empty", "lambda_empty", "phi_zero", "lambda_zero", "phi_negative",
            "lambda_negative", "phi_nan", "lambda_nan", "lambda_unsorted"])
    def test_rejects_bad_grid(self, grids):
        with pytest.raises(ValueError, match=next(iter(grids))):
            KernelConfig(**grids)

    def test_grids_become_float_tuples(self):
        config = KernelConfig(phi_grid=[2, 1], lambda_grid=[1e-3, 1])
        assert config.phi_grid == (2.0, 1.0) and config.lambda_grid == (1e-3, 1.0)
        assert all(type(g) is float for g in config.phi_grid + config.lambda_grid)


class TestOneValueGridEdges:
    """A one-value grid is scored like any other grid, so a value whose
    score is non-finite raises rather than being fitted."""

    def test_phi_with_infinite_loo_score_raises(self):
        x = np.arange(5.0)[:, None] * 4.0
        config = loo_config((1.0,), (1e-16,))
        with pytest.raises(rkhs.FitError, match="all leave-one-out scores are non-finite"):
            rkhs.fit_response_surface(x, np.sin(x[:, 0]), config)

    @pytest.mark.parametrize("lam", [1e-300, 1e-170])
    def test_lambda_with_non_finite_gcv_score_raises(self, lam):
        # the squared mean shrinkage underflows to 0 below about 1e-160
        x, y = smooth_data(5, seed=29, noise=0.1)
        with pytest.raises(rkhs.FitError, match="all GCV scores are non-finite"):
            fit_with_rule(x, y, GAUSS, (lam,))
        with pytest.raises(rkhs.FitError, match="all GCV scores are non-finite"):
            rkhs.fit_response_surface(x, y, loo_config((1.0,), (lam,)))


class TestSigma2Hat:
    def test_noiseless_interpolating_fit(self):
        x, y = smooth_data(12, seed=25)
        m = fit_with_rule(x, y, GAUSS, (1e-10,))
        assert sigma2_hat(m) <= 1e-10

    def test_pure_noise_large_lambda_approaches_sample_variance(self):
        rng = np.random.default_rng(27)
        x = np.sort(rng.uniform(0, 2 * np.pi, 60))[:, None]
        y = rng.normal(0, 1.0, 60)
        m = fit_with_rule(x, y, GAUSS, (1e6,))
        # A -> 0, so the estimate approaches ||y||^2 / n
        assert sigma2_hat(m) == pytest.approx(float(y @ y) / 60, rel=1e-3)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           lam=st.floats(min_value=1e-6, max_value=1.0),
           n=st.integers(min_value=3, max_value=40))
    def test_fit_residual_invariant(self, seed, lam, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (n, 1))
        y = np.sin(x[:, 0]) + rng.normal(0, 0.5, n)
        m = fit_with_rule(x, y, GAUSS, (lam,), jitter=0.0)
        K = gram(GAUSS, sqdist(x))
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
        m = fit_with_rule(x, y, GAUSS, (1e-12,))
        assert np.abs(m.fitted - y).max() <= 1e-6


def scalar_gcv(panel, lam):
    """GCV score of one lambda, as the per-lambda loop computed it."""
    shrink = panel.n * lam / panel._shift(lam)
    rss_term = float(np.sum((shrink * panel.qty) ** 2)) / panel.n
    denom = (float(np.sum(shrink)) / panel.n) ** 2
    return rss_term / denom if denom > 0.0 else np.inf


def scalar_pick(scores, grid):
    """Least finite score, ties toward the larger lambda, as the loop picked."""
    best_i = 0
    for i in range(1, len(grid)):
        if not np.isfinite(scores[i]):
            continue
        better = scores[i] < scores[best_i]
        tie_to_smoother = scores[i] == scores[best_i] and grid[i] > grid[best_i]
        if better or tie_to_smoother or not np.isfinite(scores[best_i]):
            best_i = i
    return grid[best_i]


class _FixedScores:
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def gcv_scores(self, grid):
        return self.scores


class TestVectorizedGcv:
    """The one-pass GCV sweep reproduces the per-lambda loop bit for bit."""

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("design,n", [("fixed_grid", 51), ("uniform_random", 101),
                                          ("uniform_random", 201)])
    def test_matches_scalar_loop_on_every_phi(self, example, design, n):
        grid = rkhs.DEFAULT_LAMBDA_GRID
        for sigma2 in (0.01, 0.1, 1.0):
            pts, y = testbed.generate(testbed.make_system(example, sigma2, design, n), 0, 0)
            d2 = sqdist(pts)
            for phi in rkhs.DEFAULT_PHI_GRID:
                spec = KernelSpec("gaussian", phi)
                panel = rkhs._Panel.full(pts, y, spec, gram=gram(spec, d2))
                want = np.array([scalar_gcv(panel, lam) for lam in grid])
                lam, scores = rkhs._gcv_pick(panel, grid)
                assert np.array_equal(scores, want)
                assert lam == scalar_pick(want, grid)

    def test_singular_lambda_raises_at_the_first_in_grid_order(self):
        # three tied points make the unjittered Gram matrix singular
        x, y = [1.0, 1.0, 1.0, 2.0], [0.5, 0.7, 0.6, 1.9]
        panel = rkhs._Panel.full(x, y, GAUSS, jitter=0.0)
        grid = (1e-17, 1e-16, 1e-3)
        with pytest.raises(rkhs.FitError) as want:
            [scalar_gcv(panel, lam) for lam in grid]
        with pytest.raises(rkhs.FitError, match="numerically singular") as got:
            rkhs._gcv_pick(panel, grid)
        assert str(got.value) == str(want.value)

    def test_all_non_finite_scores_raise(self):
        x, _ = smooth_data(8)
        panel = rkhs._Panel.full(x, np.full(8, 1e200), GAUSS)
        grid = rkhs.DEFAULT_LAMBDA_GRID
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.any(np.isfinite([scalar_gcv(panel, lam) for lam in grid]))
        with pytest.raises(rkhs.FitError, match="all GCV scores are non-finite"):
            rkhs._gcv_pick(panel, grid)

    def test_tie_goes_to_the_larger_lambda(self):
        # zero responses score 0 at every lambda
        x, _ = smooth_data(8)
        panel = rkhs._Panel.full(x, np.zeros(8), GAUSS)
        lam, scores = rkhs._gcv_pick(panel, rkhs.DEFAULT_LAMBDA_GRID)
        assert np.all(scores == 0.0)
        assert lam == rkhs.DEFAULT_LAMBDA_GRID[-1]

    def test_pick_rule_matches_the_loop(self):
        # small integer scores force ties; inf and nan are skipped
        rng = np.random.default_rng(5)
        grid = (1e-3, 1e-2, 1e-2, 1e-1, 1.0, 2.0)
        for _ in range(300):
            scores = rng.integers(0, 3, len(grid)).astype(float)
            scores[rng.random(len(grid)) < 0.3] = rng.choice([np.inf, np.nan])
            if not np.any(np.isfinite(scores)):
                continue
            assert rkhs._gcv_pick(_FixedScores(scores), grid)[0] == scalar_pick(scores, grid)


def full_eigh_sweep(points, y, config, jitter=rkhs.DEFAULT_JITTER):
    """The phi sweep with a full eigendecomposition per candidate: every
    candidate gets a full ``_Panel`` and the winner's model comes from it."""
    best_score, best = np.inf, None
    for phi in sorted(config.phi_grid):
        panel = rkhs._Panel.full(points, y, config.spec(phi), jitter)
        lam = rkhs._gcv_pick(panel, config.lambda_grid)[0]
        score = rkhs._loo_score(panel, lam)
        if score < best_score:
            best_score, best = score, (panel, lam)
    panel, lam = best
    return panel.model(lam)


def eigh_free_candidates(points, y, config):
    """The phi candidates, ascending, that the sweep scores on a low-rank
    panel: those before the first whose factor passes the rank cap."""
    d2, cap = sqdist(points), len(y) // rkhs.RANK_CAP_DIVISOR
    low = []
    for phi in sorted(config.phi_grid):
        if rkhs._pivoted_cholesky(gram(config.spec(phi), d2), rkhs.PIVOT_TOL, cap) is None:
            break
        low.append(phi)
    return low


class TestLowRankSweep:
    """The sweep scores candidates from pivoted Cholesky factors and keeps
    the panel each was scored on; its model matches the full-eigh sweep's."""

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("design,n", [("fixed_grid", 51), ("uniform_random", 101),
                                          ("uniform_random", 201)])
    def test_matches_the_full_eigh_oracle(self, assert_same_model, example, design, n):
        config = KernelConfig()
        for sigma2 in (0.01, 0.1, 1.0):
            system = testbed.make_system(example, sigma2, design, n)
            for seed in (0, 1):
                pts, y = testbed.generate(system, seed, 0)
                assert_same_model(rkhs.fit_response_surface(pts, y, config),
                                  full_eigh_sweep(pts, y, config))

    @pytest.mark.parametrize("config", [
        KernelConfig(family="matern", nu=1.5), KernelConfig(family="matern", nu=2.5),
        KernelConfig(phi_grid=(1.0,)), KernelConfig(phi_grid=(31.6,))],
        ids=["matern15", "matern25", "one-phi-low-rank", "one-phi-full-rank"])
    @pytest.mark.parametrize("n", [101, 201])
    def test_matches_the_oracle_for_other_kernels_and_grids(self, assert_same_model, config, n):
        pts, y = testbed.generate(
            testbed.make_system("example2", 0.1, "uniform_random", n), 0, 0)
        assert_same_model(rkhs.fit_response_surface(pts, y, config),
                          full_eigh_sweep(pts, y, config))


    @pytest.mark.parametrize("phi", rkhs.DEFAULT_PHI_GRID[:8])
    def test_low_rank_scores_match_the_full_panel(self, phi):
        pts, y = testbed.generate(
            testbed.make_system("example2", 0.1, "uniform_random", 201), 0, 0)
        spec = KernelSpec("gaussian", phi)
        K = gram(spec, sqdist(pts))
        low = rkhs._Panel.low_rank(rkhs._pivoted_cholesky(K, rkhs.PIVOT_TOL, 201), y, pts, spec)
        full = rkhs._Panel.full(pts, y, spec, gram=K)
        grid = rkhs.DEFAULT_LAMBDA_GRID
        assert np.allclose(low.gcv_scores(grid), full.gcv_scores(grid), rtol=1e-6)
        lam = rkhs._gcv_pick(full, grid)[0]
        assert rkhs._loo_score(low, lam) == pytest.approx(rkhs._loo_score(full, lam), rel=1e-6)
        # the complement's jitter directions carry the rest of the coefficients
        for quantity in ("coeffs", "fitted", "hat_trace"):
            got, want = getattr(low, quantity)(lam), getattr(full, quantity)(lam)
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), quantity

    @pytest.mark.parametrize("seed,winner", [(1, "low-rank"), (0, "full")])
    def test_the_winner_costs_no_eigh(self, monkeypatch, seed, winner):
        # one eigh per candidate past the rank cap; the winner's model comes
        # from the panel it was scored on, whichever rank that is
        pts, y = testbed.generate(testbed.make_system("example2", 0.01), seed, 0)
        config = KernelConfig()
        low = eigh_free_candidates(pts, y, config)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        model = rkhs.fit_response_surface(pts, y, config)
        assert len(calls) == len(config.phi_grid) - len(low) > 0
        assert (model.kernel.phi in low) == (winner == "low-rank")
        assert (model.gram_eig[0].size < len(y)) == (winner == "low-rank")

    def test_exceptional_low_rank_scores_defer_to_the_full_panel(self):
        # every GCV score is 0/0 at lambda = 1e-300; the full panel raises
        pts, y = testbed.generate(
            testbed.make_system("example2", 0.1, "uniform_random", 101), 0, 0)
        config = KernelConfig(lambda_grid=(1e-300,))
        with pytest.raises(rkhs.FitError, match="all GCV scores are non-finite"):
            rkhs.fit_response_surface(pts, y, config)


class TestPivotedCholesky:
    @pytest.mark.parametrize("phi", rkhs.DEFAULT_PHI_GRID)
    @pytest.mark.parametrize("family,nu", [("gaussian", None), ("matern", 2.5)])
    def test_stops_at_the_tolerance_or_signals_the_cap(self, phi, family, nu):
        pts, _ = testbed.generate(
            testbed.make_system("example2", 0.1, "uniform_random", 201), 0, 0)
        K = gram(KernelSpec(family, phi, nu), sqdist(pts))
        n, tol = len(K), rkhs.PIVOT_TOL
        C = rkhs._pivoted_cholesky(K, tol, n)
        rank = C.shape[0]
        # the diagonal is tracked by updates; recomputing it rounds anew
        assert np.max(np.diag(K) - np.sum(C * C, axis=0)) <= tol + rank * np.finfo(float).eps
        assert np.linalg.norm(K - C.T @ C, 2) <= n * tol
        assert rkhs._pivoted_cholesky(K, tol, rank - 1) is None
        cap = n // rkhs.RANK_CAP_DIVISOR
        capped = rkhs._pivoted_cholesky(K, tol, cap)
        if rank > cap:
            assert capped is None
        else:
            assert np.array_equal(capped, C)
