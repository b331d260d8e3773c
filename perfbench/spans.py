"""In-memory spans around l2calib's module boundaries, and the per-layer
metrics derived from them.

A span records its name, its start and end (``time.perf_counter_ns``),
the index of its parent span and the index of the benchmark call it
belongs to.  Spans are appended to a list while the traced pass runs and
written out once, when the run ends.  Nothing under ``src/`` knows about
them: :func:`installed` swaps each public function for a wrapper at the
place its caller looks it up, and puts the originals back afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NS_PER_MS = 1e6

# Calibrators as the replication engine and ``calibrate`` command call them.
CALIBRATORS = {"L2": "l2_calibrate", "OLS": "ols_calibrate", "KO": "ko_calibrate"}


class Tracer:
    """Spans, counters and calibrator estimates of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, call]
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.estimates: list[tuple[int, str, float, bool]] = []  # call, method, theta, boundary
        self.call = -1                   # benchmark call the next spans belong to
        self.method: str | None = None   # calibrator running now, for sim-eval attribution

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "call"],
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                "counts": self.counts}


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _minimize(tracer: Tracer, fn):
    """numerics.minimize with a span per objective evaluation."""
    def wrapper(objective, *args, **kwargs):
        inner = _spanned(tracer, "numerics.minimize.objective", objective)
        return fn(inner, *args, **kwargs)
    return _spanned(tracer, "numerics.minimize", wrapper)


def _calibrator(tracer: Tracer, method: str, fn):
    def wrapper(*args, **kwargs):
        tracer.method = method
        try:
            est = fn(*args, **kwargs)
        finally:
            tracer.method = None
        tracer.estimates.append((tracer.call, method, float(est.theta_hat[0]),
                                 bool(est.meta.get("boundary", False))))
        return est
    return _spanned(tracer, f"calibrate.{CALIBRATORS[method]}", wrapper)


def _simulator(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        if tracer.method is not None:
            tracer.count(f"sim_evals.{tracer.method}")
        return fn(*args, **kwargs)
    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    import numpy
    from l2calib import calibrate, cli, inference, kernels, rkhs, testbed

    def span(owner, attr, name, after=None):
        return owner, attr, _spanned(tracer, name, getattr(owner, attr), after)

    def nelder_mead_done(res):
        tracer.count("nm.nfev", int(res.nfev))

    patches = [
        span(kernels, "gram", "kernels.gram"),
        span(kernels, "cross_gram", "kernels.cross_gram"),
        span(numpy.linalg, "eigh", "numpy.linalg.eigh"),
        span(rkhs, "loo_cv_phi", "rkhs.loo_cv_phi"),
        span(rkhs, "fit_with_rule", "rkhs.fit_with_rule"),
        span(rkhs, "predict", "rkhs.predict"),
        span(calibrate, "fit_response_surface", "calibrate.fit_response_surface"),
        (calibrate, "minimize", _minimize(tracer, calibrate.minimize)),
        span(calibrate, "_scipy_minimize", "scipy.optimize.minimize", nelder_mead_done),
        span(inference, "estimate_sandwich", "inference.estimate_sandwich"),
        span(cli, "generate", "testbed.generate"),
        span(cli, "simulate", "cli.simulate"),
        span(cli, "read_data_csv", "cli.read_data_csv"),
        span(cli, "load_config", "cli.load_config"),
        span(cli, "main", "cli.calibrate"),
        (testbed, "ys_example1", _simulator(tracer, testbed.ys_example1)),
        (testbed, "ys_example2", _simulator(tracer, testbed.ys_example2)),
    ]
    patches += [(cli, fn, _calibrator(tracer, m, getattr(cli, fn)))
                for m, fn in CALIBRATORS.items()]
    return patches


@contextmanager
def installed(tracer: Tracer):
    """Route l2calib's module-level functions through ``tracer``."""
    saved = []
    try:
        for owner, attr, wrapper in _patches(tracer):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived metrics


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans: list[list], idx: int, prefix: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per replication or per call: name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0) + s[2] - s[1]
        own[s[0]] = own.get(s[0], 0) + selfs[i]
    rkhs_eigh = [i for i, s in enumerate(spans)
                 if s[0] == "numpy.linalg.eigh" and _has_ancestor(spans, i, "rkhs.")]

    def n(name):
        return calls.get(name, 0) / ops

    def ms(ns):
        return ns / NS_PER_MS / ops

    nm_ns = total.get("scipy.optimize.minimize", 0)
    ko_grid_ns = own.get("calibrate.ko_calibrate", 0)
    estimates = tracer.estimates
    m = {
        "kernels.gram.calls": (n("kernels.gram"), "count"),
        "kernels.gram.self_ms": (ms(own.get("kernels.gram", 0)), "ms"),
        "kernels.cross_gram.self_ms": (ms(own.get("kernels.cross_gram", 0)), "ms"),
        "rkhs.loo_cv_phi.calls": (n("rkhs.loo_cv_phi"), "count"),
        "rkhs.loo_cv_phi.ms": (ms(total.get("rkhs.loo_cv_phi", 0)), "ms"),
        "rkhs.fit_with_rule.calls": (n("rkhs.fit_with_rule"), "count"),
        "rkhs.fit_with_rule.ms": (ms(total.get("rkhs.fit_with_rule", 0)), "ms"),
        "rkhs.predict.ms": (ms(total.get("rkhs.predict", 0)), "ms"),
        "rkhs.eigh.calls": (len(rkhs_eigh) / ops, "count"),
        "rkhs.eigh.ms": (ms(sum(spans[i][2] - spans[i][1] for i in rkhs_eigh)), "ms"),
        "rkhs.self_ms": (ms(sum(v for k, v in own.items() if k.startswith("rkhs."))), "ms"),
        "numerics.minimize.calls": (n("numerics.minimize"), "count"),
        "numerics.minimize.objective_evals": (
            calls.get("numerics.minimize.objective", 0) / max(calls.get("numerics.minimize", 0), 1),
            "count"),
        "numerics.minimize.objective_ms": (ms(total.get("numerics.minimize.objective", 0)), "ms"),
        "numerics.minimize.self_ms": (ms(own.get("numerics.minimize", 0)), "ms"),
        "calibrate.fit_response_surface.calls": (n("calibrate.fit_response_surface"), "count"),
        "calibrate.l2_calibrate.ms": (ms(total.get("calibrate.l2_calibrate", 0)), "ms"),
        "calibrate.l2_calibrate.self_ms": (ms(own.get("calibrate.l2_calibrate", 0)), "ms"),
        "calibrate.ols_calibrate.ms": (ms(total.get("calibrate.ols_calibrate", 0)), "ms"),
        "calibrate.ko_calibrate.ms": (ms(total.get("calibrate.ko_calibrate", 0)), "ms"),
        # Nelder-Mead is scipy code run by KO, so it counts as KO's own time.
        "calibrate.ko_calibrate.self_ms": (ms(ko_grid_ns + nm_ns), "ms"),
        "calibrate.ko_calibrate.nm_ms": (ms(nm_ns), "ms"),
        "calibrate.ko_calibrate.nm_calls": (n("scipy.optimize.minimize"), "count"),
        "calibrate.ko_calibrate.nll_evals": (tracer.counts.get("nm.nfev", 0) / ops, "count"),
        "calibrate.ko_calibrate.grid_ms": (ms(ko_grid_ns), "ms"),
        "calibrate.boundary_frac": (
            sum(e[3] for e in estimates) / max(len(estimates), 1), "ratio"),
        "inference.estimate_sandwich.ms": (ms(total.get("inference.estimate_sandwich", 0)), "ms"),
        "testbed.generate.ms": (ms(total.get("testbed.generate", 0)), "ms"),
        "cli.simulate.self_ms": (ms(own.get("cli.simulate", 0)), "ms"),
        "cli.read_data_csv.ms": (ms(total.get("cli.read_data_csv", 0)), "ms"),
        "cli.load_config.ms": (ms(total.get("cli.load_config", 0)), "ms"),
        "cli.calibrate.self_ms": (ms(own.get("cli.calibrate", 0)), "ms"),
    }
    for method in CALIBRATORS:
        m[f"calibrate.sim_evals.{method}"] = (
            tracer.counts.get(f"sim_evals.{method}", 0) / ops, "count")
    return m
