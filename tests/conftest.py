import re

import numpy as np
import pytest

from l2calib import kernels, rkhs

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)\w*", report.nodeid)
    if m:
        _ACCEPTANCE[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[num]
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {num}: {word}")


def _assert_same_model(got, want):
    """``got``, a fitted surface, against ``want``, the model of a full
    eigendecomposition at the same phi: the same phi and lambda exactly.  A
    surface scored on a full panel is ``want`` bit for bit; a low-rank one has
    ``coeffs``, ``fitted`` and ``hat_trace`` within 1e-6 of ``want``'s largest
    entry, the bound the low-rank panel's scores meet.  Either way
    ``rkhs.gram_spectrum`` gives the jittered Gram matrix within 1e-10."""
    assert got.kernel == want.kernel and got.lam == want.lam
    rho, mult, Q = rkhs.gram_spectrum(got)
    if mult[-1] == 0:
        assert got.hat_trace == want.hat_trace
        for a, b in ((got.coeffs, want.coeffs), (got.fitted, want.fitted),
                     *zip(got.gram_eig, want.gram_eig)):
            assert np.array_equal(a, b)
    else:
        for quantity in ("coeffs", "fitted", "hat_trace"):
            a, b = getattr(got, quantity), getattr(want, quantity)
            assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b)), quantity
    n, eye = got.n, np.eye(got.n)
    K = kernels.gram(got.kernel, kernels.sqdist(got.design)) + rkhs.DEFAULT_JITTER * eye
    assert mult[-1] == n - Q.shape[1]
    spanned = (Q * rho[:-1]) @ Q.T + rho[-1] * (eye - Q @ Q.T)
    assert np.max(np.abs(spanned - K)) <= 1e-10


@pytest.fixture
def assert_same_model():
    """The check of a fitted surface against a full-eigendecomposition fit."""
    return _assert_same_model
