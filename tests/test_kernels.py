import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from l2calib import kernels
from l2calib.kernels import KernelSpec

GAUSS = KernelSpec("gaussian", 1.0)


def corr(spec: KernelSpec, s, t) -> float:
    """Scalar oracle: correlation between two points, 1 exactly when ``s == t``."""
    sv = np.atleast_1d(np.asarray(s, dtype=float))
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    assert sv.shape == tv.shape
    d2 = float(np.sum((sv - tv) ** 2))
    if d2 == 0.0:
        return 1.0
    return float(kernels._corr_from_sqdist(spec, np.asarray(d2)))


def bessel_matern(nu: float, phi: float, r: float) -> float:
    """Direct evaluation through the modified Bessel function K_nu."""
    a = 2.0 * np.sqrt(nu) * phi * r
    if a == 0.0:
        return 1.0
    return a ** nu * special.kv(nu, a) / (special.gamma(nu) * 2 ** (nu - 1))


class TestEval:
    def test_gaussian_diagonal_is_one(self):
        assert corr(GAUSS, 0.0, 0.0) == 1.0

    def test_gaussian_unit_distance(self):
        assert corr(GAUSS, 0.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_matern32_matches_bessel_oracle(self):
        spec = KernelSpec("matern", 1.0, nu=1.5)
        got = corr(spec, 0.0, 1.0)
        # a = 2*sqrt(3/2) = sqrt(6); frozen from the Bessel-function oracle
        assert got == pytest.approx(0.2978207679296316, rel=1e-12)
        assert got == pytest.approx(bessel_matern(1.5, 1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_matern_closed_form_vs_bessel_grid(self, nu):
        # a in [1e-3, 20] maps to r = a / (2 sqrt(nu) phi)
        for a in np.geomspace(1e-3, 20.0, 60):
            r = a / (2.0 * np.sqrt(nu))
            spec = KernelSpec("matern", 1.0, nu=nu)
            got = corr(spec, 0.0, r)
            want = bessel_matern(nu, 1.0, r)
            assert got == pytest.approx(want, rel=1e-8)

    def test_values_in_unit_interval(self):
        # large separations underflow toward 0 but never exceed 1
        for spec in (GAUSS, KernelSpec("matern", 2.0, nu=2.5)):
            for r in (1e-8, 0.1, 3.0, 8.0):
                v = corr(spec, 0.0, r)
                assert 0.0 < v < 1.0
            assert corr(spec, 0.3, 0.3) == 1.0

    def test_multidimensional_points(self):
        v = corr(GAUSS, [0.0, 0.0], [1.0, 1.0])
        assert v == pytest.approx(np.exp(-2.0), rel=1e-15)


class TestSpecValidation:
    def test_rejects_nonpositive_phi(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", -1.0)

    def test_rejects_unsupported_nu(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0, nu=0.5)
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0)

    def test_rejects_nu_on_gaussian(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 1.0, nu=1.5)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("cauchy", 1.0)


class TestGram:
    def test_single_point(self):
        K = kernels.gram(GAUSS, kernels.sqdist([0.7]))
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.0

    def test_two_points(self):
        K = kernels.gram(GAUSS, kernels.sqdist([0.0, 1.0]))
        e = np.exp(-1.0)
        assert np.allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-15)

    def test_unit_diagonal_and_symmetry(self):
        pts = np.random.default_rng(0).uniform(0, 2 * np.pi, (20, 1))
        K = kernels.gram(GAUSS, kernels.sqdist(pts))
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    def test_psd_on_uniform_grid(self):
        pts = np.linspace(1e-6, 2 * np.pi - 1e-6, 20)
        K = kernels.gram(GAUSS, kernels.sqdist(pts))
        assert np.linalg.eigvalsh(K).min() >= -1e-8


points_1d = st.floats(min_value=-10.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)
specs = st.one_of(
    st.floats(min_value=0.05, max_value=5.0).map(lambda p: KernelSpec("gaussian", p)),
    st.tuples(st.floats(min_value=0.05, max_value=5.0),
              st.sampled_from([1.5, 2.5])).map(
        lambda t: KernelSpec("matern", t[0], nu=t[1])),
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(spec=specs, s=points_1d, t=points_1d)
    def test_symmetry(self, spec, s, t):
        assert corr(spec, s, t) == corr(spec, t, s)

    @settings(max_examples=100, deadline=None)
    @given(spec=specs, s=points_1d, t=points_1d,
           h=st.floats(min_value=-5.0, max_value=5.0))
    def test_stationarity(self, spec, s, t, h):
        a = corr(spec, s, t)
        b = corr(spec, s + h, t + h)
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(spec=specs, n=st.integers(min_value=2, max_value=50),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_gram_psd_random_sets(self, spec, n, seed):
        pts = np.random.default_rng(seed).uniform(-5, 5, (n, 2))
        K = kernels.gram(spec, kernels.sqdist(pts))
        assert np.linalg.eigvalsh(K).min() >= -1e-8 * n
