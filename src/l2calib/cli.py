"""Command-line surface: one-shot calibration, Monte-Carlo studies, curves.

Subcommands
-----------
``calibrate``    run the selected methods on one CSV dataset
``simulate``     replicate data generation + estimation, report summaries
``discrepancy``  emit the closed-form and quadrature discrepancy curves

Configuration is a single JSON object; ``_FIELDS`` maps each of its keys
to the class that owns it.  Unknown keys and ill-typed values are
rejected so typos fail fast.  Data files are headed CSV with columns
``x1..xd`` then ``y``; both files are UTF-8, a byte-order mark allowed.
Reports carry 17 significant digits so byte-identical output is a
meaningful determinism check.  A ``simulate`` pool gets the run plan
with each chunk of tasks, and its initializer applies the BLAS cap.

Exit codes: 0 success, 1 usage/config/parse/output error, 2 numerical
failure, 3 threshold violation under ``--check``.  A programming error is
none of them: it ends the run with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import calibrate, inference, numerics, testbed
from .calibrate import (CalibrationEstimate, ComputerModel, coarse_block, ko_calibrate,
                        l2_calibrate, ols_calibrate)
from .numerics import (MAX_DESIGN_POINTS, MAX_QUADRATURE_NODES, BoxDomain, FitError,
                       OptimizerConfig, QuadratureRule, gauss_legendre, scan)
from .rkhs import KernelConfig
from .testbed import DEFAULT_THETA_DOMAIN, SyntheticSystem, generate, make_system

METHODS = ("L2", "OLS", "KO")
MAX_FAILURE_FRACTION = 0.01
# Most replications per noise variance: a study keeps every task and result in memory.
MAX_REPLICATIONS = 100_000


class CliConfigError(ValueError):
    """Configuration or input parsing problem (exit code 1)."""


def _csv(header: str, rows) -> str:
    """CSV text: a string cell as it is, None as an empty cell, a number to 17 digits."""
    return "\n".join([header] + [",".join(c if isinstance(c, str) else "" if c is None
                                           else f"{float(c):.17g}" for c in row)
                                  for row in rows]) + "\n"


def _read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise CliConfigError(f"{what} file not found: {path}")
    except UnicodeDecodeError as e:
        raise CliConfigError(f"{path}: not UTF-8 text ({e})")
    except OSError as e:
        raise CliConfigError(f"cannot read {what} file {path}: {e.strerror}")


# Default ``log``: whatever ``sys.stderr`` is when a line is printed.
STDERR = "stderr"


def _log(log, msg: str) -> None:
    """Print one progress line to ``log``; ``log=None`` is silent."""
    if log is not None:
        print(msg, file=sys.stderr if log == STDERR else log)


# ---------------------------------------------------------------------------
# BLAS threads

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# (getter, setter) symbol pairs, by OpenBLAS build
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


@lru_cache(maxsize=1)
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy loaded,
    found through ctypes as threadpoolctl does; None when there is none."""
    import ctypes
    from glob import glob
    libs = glob(str(Path(np.__file__).parents[1] / "numpy.libs" / "*openblas*"))
    try:
        with open("/proc/self/maps") as maps:  # Linux: whatever is loaded
            libs += [line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line]
    except OSError:
        pass
    for path in dict.fromkeys(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _cap_blas() -> tuple[int | str, int | None]:
    """Apply ``one_blas_thread``'s cap and keep it: return the count a run
    uses and the count before, or None where the count is left alone."""
    env = [os.environ[v] for v in BLAS_THREAD_VARS if os.environ.get(v, "").strip()]
    threads = None if env else _openblas_threads()
    if threads is None:
        return (env[0] if env else "unknown"), None
    get, set_ = threads
    before = get()
    set_(1)
    return 1, before


@contextmanager
def one_blas_thread():
    """Cap numpy's OpenBLAS at one thread for the block, then restore the count.

    Every matrix here has at most a few hundred rows, where one thread is
    as fast as two, and an idle OpenBLAS thread busy-waits, so a second
    thread doubles the CPU time and pool workers oversubscribe the
    cores.  An explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
    wins: the count is then left alone.  An empty or blank value is unset,
    as OpenBLAS reads it.  Yields the count a run uses: 1,
    the environment's value, or ``"unknown"`` when no setter is found.
    The count is process-wide: blocks that overlap in two threads restore
    what each saw on entry, so the one that exits last decides it.
    """
    threads, before = _cap_blas()
    try:
        yield threads
    finally:
        if before is not None:
            _openblas_threads()[1](before)


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    example: str = "example2"
    methods: tuple[str, ...] = METHODS
    sigma2: tuple[float, ...] = (0.1, 1.0)
    replications: int = 1000
    seed: int = 0
    design: str = "fixed_grid"
    design_n: int = testbed.FIXED_GRID_N
    kernel: KernelConfig = field(default_factory=KernelConfig)
    quadrature_m: int = 256
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    theta_domain: tuple[float, float] = DEFAULT_THETA_DOMAIN.lower + DEFAULT_THETA_DOMAIN.upper
    output: str = "report.csv"

    def __post_init__(self):
        # a tuple of floats, as annotated, whatever sequence the caller passed
        object.__setattr__(self, "theta_domain", tuple(float(t) for t in self.theta_domain))
        if not self.methods:
            raise CliConfigError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise CliConfigError("methods must not repeat")
        for m in self.methods:
            if m not in METHODS:
                raise CliConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise CliConfigError(f"replications must be 1 to {MAX_REPLICATIONS}, "
                                 f"got {self.replications}")
        if not 1 <= self.quadrature_m <= MAX_QUADRATURE_NODES:
            raise CliConfigError(f"quadrature_m must be 1 to {MAX_QUADRATURE_NODES}, "
                                 f"got {self.quadrature_m}")
        if self.seed < 0:
            raise CliConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.sigma2:
            raise CliConfigError("sigma2 must be a nonempty list")
        if len(self.theta_domain) != 2:
            raise CliConfigError("theta_domain must be [lo, hi]")
        # make_system checks the example, the design, the theta box and
        # each noise variance
        try:
            for sigma2 in self.sigma2:
                self.system(sigma2)
        except ValueError as e:
            raise CliConfigError(str(e))

    def system(self, sigma2: float) -> SyntheticSystem:
        box = BoxDomain((self.theta_domain[0],), (self.theta_domain[1],))
        return make_system(self.example, sigma2, self.design, self.design_n, box)


def _int(v) -> int:
    """A JSON integer, or an integral number such as ``1e3``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not float(v).is_integer():
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def _str(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _floats(v) -> tuple[float, ...]:
    return tuple(_float(x) for x in (v if isinstance(v, list) else [v]))


def _strs(v) -> tuple[str, ...]:
    if not isinstance(v, list):
        raise TypeError(f"expected a list of strings, got {v!r}")
    return tuple(_str(x) for x in v)


# JSON key -> (owner, field, coercion): the owner is RunConfig ("run") or the KernelConfig
# or OptimizerConfig it holds; a dotted key lives in the nested object named by its prefix.
_FIELDS = {
    "example": ("run", "example", _str), "methods": ("run", "methods", _strs),
    "sigma2": ("run", "sigma2", _floats), "replications": ("run", "replications", _int),
    "seed": ("run", "seed", _int), "design.kind": ("run", "design", _str),
    "design.n": ("run", "design_n", _int), "quadrature_m": ("run", "quadrature_m", _int),
    "kernel.family": ("kernel", "family", _str), "phi_grid": ("kernel", "phi_grid", _floats),
    "kernel.nu": ("kernel", "nu", lambda v: None if v is None else _float(v)),
    "lambda_grid": ("kernel", "lambda_grid", _floats),
    "optimizer.grid_points": ("optimizer", "grid_points", _int),
    "optimizer.tolerance": ("optimizer", "tolerance", _float),
    "optimizer.max_iterations": ("optimizer", "max_iterations", _int),
    "theta_domain": ("run", "theta_domain", _floats), "output": ("run", "output", _str),
}
_NESTED = ("design", "kernel", "optimizer")


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON config; unknown keys and ill-typed values are an error."""
    try:
        raw = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as e:
        raise CliConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise CliConfigError("config must be a JSON object")
    flat = {}
    for key, value in raw.items():
        if key not in _NESTED:
            flat[key] = value
        elif isinstance(value, dict):
            flat.update({f"{key}.{sub}": v for sub, v in value.items()})
        else:
            raise CliConfigError(f"{key} must be a JSON object, got {value!r}")
    unknown = set(flat) - set(_FIELDS)
    if unknown:
        raise CliConfigError(f"unknown config keys: {sorted(unknown)}; "
                             f"allowed keys: {sorted(_FIELDS)}")
    if "design" in raw and "design.kind" not in flat:
        raise CliConfigError('design must be {"kind": ..., "n": ...}')
    kw = {"run": {}, "kernel": {}, "optimizer": {}}
    for key, value in flat.items():
        owner, name, conv = _FIELDS[key]
        try:
            kw[owner][name] = conv(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise CliConfigError(f"config key {key!r}: cannot use {value!r} ({e})")
    try:
        return RunConfig(**kw["run"], kernel=KernelConfig(**kw["kernel"]),
                         optimizer=OptimizerConfig(**kw["optimizer"]))
    except (ValueError, TypeError) as e:
        raise CliConfigError(str(e))


# ---------------------------------------------------------------------------
# Replication engine


@dataclass(frozen=True)
class MethodSummary:
    method: str
    sigma2: float
    mean: float
    mse: float
    sd: float
    reps: int
    theta_star: float
    wall_time_s: float
    failures: int


@dataclass(frozen=True)
class SimulationReport:
    theta_star: float
    rows: tuple[MethodSummary, ...]

    def to_csv(self) -> str:
        return _csv("method,sigma2,mean,mse,sd,reps,theta_star",
                    [(r.method, r.sigma2, r.mean, r.mse, r.sd, r.reps, r.theta_star)
                     for r in self.rows])


# Rules and L2 node blocks are shared by every run of the process, keyed by the
# config values that determine them.  A rule takes 6-10 ms to build, 10-20% of
# a one-replication run; a node block is the coarse scan of every L2 fit.
@lru_cache(maxsize=4)
def _cached_rule(m: int) -> QuadratureRule:
    return gauss_legendre(testbed.OMEGA, m)


@lru_cache(maxsize=4)
def _cached_node_block(example: str, theta_domain: tuple[float, float], grid_points: int,
                       quadrature_m: int) -> np.ndarray | None:
    """The L2 estimator's coarse block at the rule's nodes, read-only as it is shared."""
    box = BoxDomain(theta_domain[:1], theta_domain[1:])
    block = coarse_block(testbed.EXAMPLES[example][0](box), _cached_rule(quadrature_m).nodes,
                         OptimizerConfig(grid_points=grid_points))
    if block is not None:
        block.flags.writeable = False
    return block


@dataclass(frozen=True)
class _Plan:
    """What a run builds once and each replication reads: the config, the
    computer model, the quadrature rule, one system per noise variance and,
    when L2 runs, the L2 estimator's coarse block at the rule's nodes."""
    config: RunConfig
    model: ComputerModel
    rule: QuadratureRule
    systems: tuple[SyntheticSystem, ...]
    node_block: np.ndarray | None

    @classmethod
    def of(cls, config: RunConfig) -> _Plan:
        systems = tuple(config.system(sigma2) for sigma2 in config.sigma2)
        node_block = None
        if "L2" in config.methods:
            node_block = _cached_node_block(config.example, config.theta_domain,
                                            config.optimizer.grid_points, config.quadrature_m)
        return cls(config, systems[0].computer_model, _cached_rule(config.quadrature_m),
                   systems, node_block)


# The numerical failures a method reports in its row; anything else propagates.
NUMERICAL_ERRORS = (FitError, np.linalg.LinAlgError)


class FailureRateError(RuntimeError):
    """A method failed in over ``MAX_FAILURE_FRACTION`` of a study's replications."""


@dataclass(frozen=True)
class MethodRun:
    """One method on one dataset: the estimate, or None and the error, and its seconds."""
    estimate: CalibrationEstimate | None
    seconds: float
    error: str | None = None


def _run_methods(plan: _Plan, pts: np.ndarray, y: np.ndarray, sandwich: bool = False,
                 log=None) -> dict[str, MethodRun]:
    """Tune phi and lambda once, then run every configured method.

    Returns ``method -> MethodRun``.  The one fitted surface goes to L2, KO
    and, with ``sandwich``, the L2/OLS standard errors, so a method's
    seconds exclude the tuning.  If that tuning fails, L2 and KO report its
    error and OLS runs without standard errors.  L2 takes the plan's node
    block, and OLS and KO share one coarse block at the design, built
    before either is timed.  No method draws random numbers.
    """
    config, model = plan.config, plan.model
    with_se = sandwich and model.smooth_in_theta
    zeta_hat, fit_error = None, None
    if {"L2", "KO"} & set(config.methods) or (with_se and "OLS" in config.methods):
        try:
            # looked up on the module, where perfbench's tracer patches it
            zeta_hat = calibrate.fit_response_surface(pts, y, config.kernel)
        except NUMERICAL_ERRORS as e:
            fit_error = f"{type(e).__name__}: {e}"
            _log(log, f"[calibrate] shared surface fit failed: {e}")
    design_block = None
    if {"OLS", "KO"} & set(config.methods):
        design_block = coarse_block(model, pts, config.optimizer)
    out: dict[str, MethodRun] = {}
    for meth in config.methods:
        if meth != "OLS" and zeta_hat is None:
            out[meth] = MethodRun(None, 0.0, fit_error)
            continue
        t0 = time.perf_counter()
        try:
            if meth == "L2":
                est = l2_calibrate(zeta_hat, model, plan.rule, config.optimizer,
                                   block=plan.node_block)
            elif meth == "OLS":
                est = ols_calibrate(pts, y, model, config.optimizer, block=design_block)
            else:
                est = ko_calibrate(zeta_hat, model, config.optimizer, block=design_block)
            if with_se and meth != "KO" and zeta_hat is not None:
                sand = inference.estimate_sandwich(zeta_hat, model, est.theta_hat)
                cov = sand.cov_l2 if meth == "L2" else sand.cov_ols
                if not np.all(np.isfinite(cov)):
                    raise FitError(f"{meth} sandwich covariance is non-finite")
                est = replace(est, covariance=cov)
            out[meth] = MethodRun(est, time.perf_counter() - t0)
        except NUMERICAL_ERRORS as e:
            out[meth] = MethodRun(None, time.perf_counter() - t0, f"{type(e).__name__}: {e}")
    return out


def _replicate(plan: _Plan, task: tuple[int, int]) -> dict[str, MethodRun]:
    """Replication r at the i-th noise variance of ``plan``."""
    i, r = task
    return _run_methods(plan, *generate(plan.systems[i], plan.config.seed, r))


def simulate(config: RunConfig, workers: int = 1,
             log=STDERR) -> SimulationReport:
    """Monte-Carlo study: R replications per noise level, aggregated.

    Replication r uses the data stream derived from (seed, r), so the
    report is independent of the worker count.  Every (sigma2, r) task
    goes to one worker pool of at most one worker per task and per CPU
    this process may use; results are gathered in task order before
    aggregation.  The model, the quadrature rule, the systems and the L2
    node block are built once, in the parent, and the plan goes with each
    chunk of tasks.
    The parent runs under ``one_blas_thread``, and the pool initializer
    applies the same cap in each worker, whatever the start method.
    The first ``log`` line gives the worker count, the BLAS thread
    variables of the environment and the BLAS thread count the run uses
    (``blas_threads``: 1, the environment's value, or ``unknown``).  More
    than 1% failures for any (method, sigma2) raises ``FailureRateError``
    with diagnostics.
    """
    if workers < 1:
        raise CliConfigError(f"workers must be at least 1, got {workers}")
    R = config.replications
    plan = _Plan.of(config)
    tasks = [(i, r) for i in range(len(config.sigma2)) for r in range(R)]
    # a fork pool starts every worker at the first submit, needed or not
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(tasks), cpus or 1)
    env = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS)
    with one_blas_thread() as blas_threads:
        _log(log, f"[simulate] workers={workers} {env} blas_threads={blas_threads}")
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
            with ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas) as pool:
                every = list(pool.map(partial(_replicate, plan), tasks,
                                      chunksize=max(1, len(tasks) // (8 * workers))))
        else:
            every = [_replicate(plan, t) for t in tasks]
    rows: list[MethodSummary] = []
    theta_star = plan.systems[0].theta_star
    for i, s2 in enumerate(config.sigma2):
        for meth in config.methods:
            runs = [res[meth] for res in every[i * R:(i + 1) * R]]
            secs = float(sum(run.seconds for run in runs))
            errors = [(r, run.error) for r, run in enumerate(runs) if run.error is not None]
            if len(errors) > MAX_FAILURE_FRACTION * R:
                detail = "; ".join(f"rep {r}: {msg}" for r, msg in errors[:5])
                raise FailureRateError(
                    f"{meth} failed in {len(errors)}/{R} replications at "
                    f"sigma2={s2}: {detail}")
            ok = np.array([run.estimate.theta_hat[0] for run in runs if run.error is None])
            mean = float(np.mean(ok))
            sd = float(np.std(ok))
            mse = float(np.mean((ok - theta_star) ** 2))
            rows.append(MethodSummary(method=meth, sigma2=s2, mean=mean, mse=mse,
                                      sd=sd, reps=int(ok.size),
                                      theta_star=theta_star, wall_time_s=secs,
                                      failures=len(errors)))
            _log(log, f"[simulate] {meth:3s} sigma2={s2:g} reps={ok.size} "
                      f"mean={mean:.6g} sd={sd:.4g} mse={mse:.4g} "
                      f"({secs:.1f}s method time)")
    return SimulationReport(theta_star=theta_star, rows=tuple(rows))


def check_report(report: SimulationReport) -> list[str]:
    """Internal-consistency gate: MSE = SD^2 + bias^2 per row, to 1e-10 relative."""
    problems = []
    for r in report.rows:
        lhs = r.mse
        rhs = r.sd ** 2 + (r.mean - r.theta_star) ** 2
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) / scale > 1e-10:
            problems.append(f"{r.method} sigma2={r.sigma2:g}: MSE identity off by "
                            f"{abs(lhs - rhs) / scale:.3e} relative")
    return problems


# ---------------------------------------------------------------------------
# Data files


def read_data_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headed UTF-8 CSV: columns x1..xd and y, each once, no gap; cells must be finite."""
    reader = csv.reader(_read_text(path, "data").splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise CliConfigError(f"{path}: empty data file")
    header = [h.strip() for h in header]
    for name in header:
        if name and header.count(name) > 1:
            raise CliConfigError(f"{path}: column {name!r} is repeated (header: {header})")
    for name in ("y", "x1"):
        if name not in header:
            raise CliConfigError(f"{path}: column {name!r} not found (header: {header})")
    x_names = [h for h in header if re.fullmatch("x[0-9]+", h)]
    run = [f"x{j}" for j in range(1, len(x_names) + 1)]
    for name in x_names:
        if name not in run:
            raise CliConfigError(f"{path}: column {name!r} breaks the numbering; control "
                                 f"columns are x1, x2, ... with no gap (header: {header})")
    y_idx, x_idx = header.index("y"), [header.index(name) for name in run]
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(xs) == MAX_DESIGN_POINTS:
            raise CliConfigError(f"{path}: more than {MAX_DESIGN_POINTS} data rows")
        def parse(idx: int, name: str) -> float:
            cell = row[idx] if idx < len(row) else "<missing>"
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise CliConfigError(f"{path}: line {lineno}, column {name!r}: "
                                     f"{cell!r} is not a finite number")
            return value
        xs.append([parse(i, f"x{j + 1}") for j, i in enumerate(x_idx)])
        ys.append(parse(y_idx, "y"))
    if not xs:
        raise CliConfigError(f"{path}: no data rows")
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


# ---------------------------------------------------------------------------
# Subcommands


def _write(path: str | Path, text: str, command: str, log) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliConfigError(f"cannot write {path}: {e.strerror}")
    _log(log, f"[{command}] wrote {path}")


def _grid_edges(est: CalibrationEstimate, config: RunConfig) -> list[str]:
    """Tuning values in ``est.meta`` at an end of a configured grid of two or more."""
    edges = []
    for key, grid in (("phi", config.kernel.phi_grid), ("lambda", config.kernel.lambda_grid)):
        value = est.meta.get(key)
        if value is not None and len(grid) > 1 and value in (min(grid), max(grid)):
            end = "smallest" if value == min(grid) else "largest"
            edges.append(f"{key}={value:g} ({end} of {key}_grid)")
    return edges


def cmd_calibrate(config: RunConfig, data_path: str | Path,
                  out_path: str | Path, log=STDERR) -> int:
    """Run the configured methods on one dataset; one output row each.

    Method failures are recorded in their row without aborting the
    remaining methods.  Standard errors come from the plug-in sandwich
    covariances and are reported only where the model is smooth.
    """
    pts, y = read_data_csv(data_path)
    if pts.shape[1] != 1:
        raise CliConfigError(f"{config.example} expects 1 control variable, "
                             f"data has {pts.shape[1]}")
    results = _run_methods(_Plan.of(config), pts, y, sandwich=True, log=log)
    rows = []
    for meth, run in results.items():
        est = run.estimate
        if est is None:
            rows.append([meth] + [None] * 5 + [f"error: {run.error}".replace(",", ";")])
            continue
        se = None if est.covariance is None else np.sqrt(est.covariance[0, 0])
        rows.append([meth, est.theta_hat[0], est.objective_value, est.meta.get("lambda"),
                     est.meta.get("phi"), se, "ok"])
        edges = _grid_edges(est, config)
        if edges:
            _log(log, f"[calibrate] {meth} tuned on a grid edge: {', '.join(edges)}")
    _write(out_path, _csv("method,theta_hat,objective,lambda,phi,stderr,status", rows),
           "calibrate", log)
    return 0


def discrepancy_curve(example: str, theta_min: float, theta_max: float,
                      steps: int, quadrature_m: int = RunConfig.quadrature_m) -> np.ndarray:
    """Columns (theta, closed-form value, quadrature value)."""
    if not 2 <= steps <= numerics.MAX_GRID_POINTS:
        raise CliConfigError(f"need 2 to {numerics.MAX_GRID_POINTS} steps, got {steps}")
    if not (np.isfinite(theta_min) and np.isfinite(theta_max) and theta_min < theta_max):
        raise CliConfigError("need finite theta_min < theta_max")
    if example not in testbed.EXAMPLES:
        raise CliConfigError(f"unknown example {example!r}")
    make_model, _, closed = testbed.EXAMPLES[example]
    rule = _cached_rule(quadrature_m)
    objective = calibrate.l2_objective(testbed.zeta_true(rule.nodes[:, 0]),
                                       make_model(), rule)
    thetas = np.linspace(theta_min, theta_max, steps)
    return np.column_stack([thetas, [closed(t) for t in thetas],
                            scan(objective, thetas[:, None])])


def cmd_discrepancy(example: str, theta_min: float, theta_max: float, steps: int,
                    out_path: str | Path, quadrature_m: int = RunConfig.quadrature_m,
                    check: bool = False, log=STDERR) -> int:
    rows = discrepancy_curve(example, theta_min, theta_max, steps, quadrature_m)
    _write(out_path, _csv("theta,closed_form,quadrature", rows), "discrepancy", log)
    if check:
        with np.errstate(invalid="ignore"):  # inf - inf where a distance overflows
            rel = np.abs(rows[:, 1] - rows[:, 2]) / np.maximum(np.abs(rows[:, 1]), 1e-300)
        inner = np.abs(rows[:, 0]) < 1e-3
        worst_out = float(rel[~inner].max()) if np.any(~inner) else 0.0
        worst_in = float(rel[inner].max()) if np.any(inner) else 0.0
        _log(log, f"[discrepancy] agreement: outer {worst_out:.3e} (tol 1e-9), "
                  f"inner {worst_in:.3e} (tol 1e-6)")
        if not (worst_out <= 1e-9 and worst_in <= 1e-6):  # NaN fails too
            return 3
    return 0


def cmd_simulate(config: RunConfig, out_path: str | Path, workers: int = 1,
                 check: bool = False, log=STDERR) -> int:
    report = simulate(config, workers=workers, log=log)
    _write(out_path, report.to_csv(), "simulate", log)
    if check:
        problems = check_report(report)
        for p in problems:
            _log(log, f"[simulate] check failed: {p}")
        if problems:
            return 3
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 1), not argparse's exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents and reads "-1e-3" as an option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message):
        raise CliConfigError(f"{self.prog}: {message}")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: building it takes
    over 10 times as long as parsing a command line."""
    p = _Parser(prog="l2calib",
                description="Calibration toolkit for imperfect computer models")
    sub = p.add_subparsers(dest="command", required=True)
    sc = sub.add_parser("calibrate", help="calibrate one dataset")
    ss = sub.add_parser("simulate", help="run a Monte-Carlo study")
    sd = sub.add_parser("discrepancy", help="emit discrepancy curves")
    for sp in (sc, ss, sd):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--out", help="output CSV path (overrides config)")
    ss.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    for sp in (ss, sd):
        sp.add_argument("--check", action="store_true",
                        help="verify built-in thresholds; exit 3 on violation")
    sc.add_argument("--data", required=True, help="CSV with columns x1..xd,y")
    ss.add_argument("--workers", type=int, default=1,
                    help="parallel replication workers")
    sd.add_argument("--example", default=RunConfig.example, choices=list(testbed.EXAMPLES))
    sd.add_argument("--theta-min", type=float, default=DEFAULT_THETA_DOMAIN.lower[0])
    sd.add_argument("--theta-max", type=float, default=DEFAULT_THETA_DOMAIN.upper[0])
    sd.add_argument("--steps", type=int, default=401)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with one_blas_thread():
            config = load_config(args.config) if args.config else RunConfig()
            out = args.out or ("discrepancy.csv" if args.command == "discrepancy"
                               else config.output)
            folder = Path(out).parent  # checked before any work, as the write is last
            if Path(out).is_dir():
                raise CliConfigError(f"cannot write {out}: it is a directory")
            if not (folder.is_dir() and os.access(folder, os.W_OK)):
                raise CliConfigError(f"cannot write {out}: no writable directory {folder}")
            if args.command == "discrepancy":
                return cmd_discrepancy(args.example, args.theta_min, args.theta_max,
                                       args.steps, out, config.quadrature_m, check=args.check)
            if args.command == "calibrate":
                return cmd_calibrate(config, args.data, out)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            return cmd_simulate(config, out, workers=args.workers, check=args.check)
    except CliConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FailureRateError, *NUMERICAL_ERRORS) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
