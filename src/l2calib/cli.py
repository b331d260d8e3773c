"""Command-line surface: one-shot calibration, Monte-Carlo studies, curves.

Subcommands
-----------
``calibrate``    run the selected methods on one CSV dataset
``simulate``     replicate data generation + estimation, report summaries
``discrepancy``  emit the closed-form and quadrature discrepancy curves

Configuration is a single JSON object.  Its keys are ``example``,
``methods``, ``sigma2``, ``replications``, ``seed``, ``phi_grid``,
``lambda_grid``, ``quadrature_m``, ``theta_domain``, ``output`` and three
nested objects: ``design`` (``kind``, ``n``), ``kernel`` (``family``,
``nu``) and ``optimizer`` (``grid_points``, ``tolerance``,
``max_iterations``).  Unknown keys and ill-typed values are rejected so
typos fail fast.  Data files are headed CSV with columns ``x1..xd``
then ``y``.  Reports carry 17 significant digits so byte-identical
output is a meaningful determinism check.

Exit codes: 0 success, 1 usage/config/parse error, 2 numerical failure,
3 threshold violation under ``--check``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import calibrate, inference, rkhs, testbed
from .calibrate import (CalibrationEstimate, ComputerModel, ko_calibrate,
                        l2_calibrate, ols_calibrate)
from .numerics import MAX_GRID_POINTS, BoxDomain, OptimizerConfig, gauss_legendre, scan
from .rkhs import KernelConfig
from .testbed import SyntheticSystem, generate, make_system

METHODS = ("L2", "OLS", "KO")
MAX_FAILURE_FRACTION = 0.01


class CliConfigError(ValueError):
    """Configuration or input parsing problem (exit code 1)."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# Default ``log``: whatever ``sys.stderr`` is when a line is printed.
STDERR = "stderr"


def _log(log, msg: str) -> None:
    """Print one progress line to ``log``; ``log=None`` is silent."""
    if log is not None:
        print(msg, file=sys.stderr if log == STDERR else log)


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
    kernel_family: str = "gaussian"
    kernel_nu: float | None = None
    phi_grid: tuple[float, ...] = rkhs.DEFAULT_PHI_GRID
    lambda_grid: tuple[float, ...] = rkhs.DEFAULT_LAMBDA_GRID
    quadrature_m: int = 256
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    theta_domain: tuple[float, float] = (-2.0, 2.0)
    output: str = "report.csv"

    def __post_init__(self):
        # a tuple, as the system cache key needs
        object.__setattr__(self, "theta_domain", tuple(float(t) for t in self.theta_domain))
        if not self.methods:
            raise CliConfigError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise CliConfigError("methods must not repeat")
        for m in self.methods:
            if m not in METHODS:
                raise CliConfigError(f"unknown method {m!r}; expected subset of {METHODS}")
        for name in ("replications", "quadrature_m"):
            if getattr(self, name) < 1:
                raise CliConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise CliConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.optimizer.grid_points > MAX_GRID_POINTS:
            raise CliConfigError(f"optimizer.grid_points must be at most {MAX_GRID_POINTS}")
        if not np.isfinite(self.optimizer.tolerance):
            raise CliConfigError("optimizer.tolerance must be finite")
        if not self.sigma2 or not all(np.isfinite(s) and s >= 0 for s in self.sigma2):
            raise CliConfigError("sigma2 must be a nonempty list of nonnegative finite values")
        if len(self.theta_domain) != 2:
            raise CliConfigError("theta_domain must be [lo, hi]")
        # KernelConfig checks the grids; make_system the example, the
        # design and the theta box
        try:
            self.kernel_config()
            self.system(self.sigma2[0])
        except ValueError as e:
            raise CliConfigError(str(e))

    def kernel_config(self) -> KernelConfig:
        return KernelConfig(self.kernel_family, self.kernel_nu, self.phi_grid,
                            self.lambda_grid)

    def system(self, sigma2: float) -> SyntheticSystem:
        return _cached_system(self.example, sigma2, self.design, self.design_n,
                              self.theta_domain)


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


# JSON key -> (RunConfig or OptimizerConfig field, coercion); a dotted key
# lives in the nested object named by its prefix.
_FIELDS = {
    "example": ("example", _str), "methods": ("methods", tuple),
    "sigma2": ("sigma2", _floats), "replications": ("replications", _int),
    "seed": ("seed", _int), "design.kind": ("design", _str), "design.n": ("design_n", _int),
    "kernel.family": ("kernel_family", _str),
    "kernel.nu": ("kernel_nu", lambda v: None if v is None else _float(v)),
    "phi_grid": ("phi_grid", _floats), "lambda_grid": ("lambda_grid", _floats),
    "quadrature_m": ("quadrature_m", _int), "optimizer.grid_points": ("grid_points", _int),
    "optimizer.tolerance": ("tolerance", _float),
    "optimizer.max_iterations": ("max_iterations", _int),
    "theta_domain": ("theta_domain", _floats), "output": ("output", _str),
}
_NESTED = ("design", "kernel", "optimizer")


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON config; unknown keys and ill-typed values are an error."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliConfigError(f"config file not found: {path}")
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
    kw, opt = {}, {}
    for key, value in flat.items():
        name, conv = _FIELDS[key]
        try:
            (opt if key.startswith("optimizer.") else kw)[name] = conv(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise CliConfigError(f"config key {key!r}: cannot use {value!r} ({e})")
    try:
        if "optimizer" in raw:
            kw["optimizer"] = OptimizerConfig(**opt)
        return RunConfig(**kw)
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
        lines = ["method,sigma2,mean,mse,sd,reps,theta_star"]
        for r in self.rows:
            lines.append(",".join([r.method, _fmt(r.sigma2), _fmt(r.mean),
                                   _fmt(r.mse), _fmt(r.sd), str(r.reps),
                                   _fmt(r.theta_star)]))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _cached_system(example: str, sigma2: float, design: str, n: int,
                   theta_domain: tuple[float, float]) -> SyntheticSystem:
    box = BoxDomain((theta_domain[0],), (theta_domain[1],))
    return make_system(example, sigma2, design, n, box)


@lru_cache(maxsize=4)
def _cached_rule(m: int):
    return gauss_legendre(testbed.OMEGA, m)


# Input and numerical failures a method may report; anything else propagates.
NUMERICAL_ERRORS = (ValueError, np.linalg.LinAlgError, FloatingPointError)


def _run_methods(config: RunConfig, pts: np.ndarray, y: np.ndarray,
                 model: ComputerModel, sandwich: bool = False,
                 log=None) -> dict[str, tuple[CalibrationEstimate | None, float, str | None]]:
    """Tune phi and lambda once, then run every configured method.

    Returns ``method -> (estimate, seconds, error)``; estimate is None on
    failure.  The one fitted surface goes to L2, KO and, with ``sandwich``,
    the L2/OLS standard errors, so a method's seconds exclude the tuning.
    If that tuning fails, L2 and KO report its error and OLS runs without
    standard errors.  No method draws random numbers.
    """
    rule = _cached_rule(config.quadrature_m)
    with_se = sandwich and model.smooth_in_theta
    zeta_hat, fit_error = None, None
    if {"L2", "KO"} & set(config.methods) or (with_se and "OLS" in config.methods):
        try:
            # looked up on the module, where perfbench's tracer patches it
            zeta_hat = calibrate.fit_response_surface(pts, y, config.kernel_config())
        except NUMERICAL_ERRORS as e:
            fit_error = f"{type(e).__name__}: {e}"
            _log(log, f"[calibrate] shared surface fit failed: {e}")
    out: dict[str, tuple[CalibrationEstimate | None, float, str | None]] = {}
    for meth in config.methods:
        if meth != "OLS" and zeta_hat is None:
            out[meth] = (None, 0.0, fit_error)
            continue
        t0 = time.perf_counter()
        try:
            if meth == "L2":
                est = l2_calibrate(zeta_hat, model, rule, config.optimizer)
            elif meth == "OLS":
                est = ols_calibrate(pts, y, model, config.optimizer)
            else:
                est = ko_calibrate(zeta_hat, model, config.optimizer)
            if with_se and meth != "KO" and zeta_hat is not None:
                sand = inference.estimate_sandwich(zeta_hat, model, est.theta_hat)
                est = replace(est, covariance=sand.cov_l2 if meth == "L2" else sand.cov_ols)
            out[meth] = (est, time.perf_counter() - t0, None)
        except NUMERICAL_ERRORS as e:
            out[meth] = (None, time.perf_counter() - t0, f"{type(e).__name__}: {e}")
    return out


def _replicate(args: tuple[RunConfig, float, int]) -> dict[str, tuple[float, float, str | None]]:
    """Replication r: ``method -> (theta, seconds, error)``, theta NaN on failure."""
    config, sigma2, r = args
    system = config.system(sigma2)
    pts, y = generate(system, config.seed, r)
    results = _run_methods(config, pts, y, system.computer_model)
    return {meth: (float("nan") if est is None else float(est.theta_hat[0]), secs, err)
            for meth, (est, secs, err) in results.items()}


def simulate(config: RunConfig, workers: int = 1,
             log=STDERR) -> SimulationReport:
    """Monte-Carlo study: R replications per noise level, aggregated.

    Replication r uses the data stream derived from (seed, r), so the
    report is independent of the worker count.  Every (sigma2, r) task
    goes to one worker pool of at most one worker per task; results are
    gathered in task order before aggregation.  The first ``log`` line
    gives that worker count and the BLAS thread variables of the
    environment.  More than 1% failures for any (method, sigma2) aborts
    with diagnostics.
    """
    if workers < 1:
        raise CliConfigError(f"workers must be at least 1, got {workers}")
    R = config.replications
    tasks = [(config, s2, r) for s2 in config.sigma2 for r in range(R)]
    # a fork pool starts every worker at the first submit, needed or not
    workers = min(workers, len(tasks))
    blas = " ".join(f"{v}={os.environ.get(v, 'unset')}"
                    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    _log(log, f"[simulate] workers={workers} {blas}")
    rows: list[MethodSummary] = []
    theta_star = config.system(config.sigma2[0]).theta_star
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            every = list(pool.map(_replicate, tasks,
                                  chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        every = [_replicate(t) for t in tasks]
    for i, s2 in enumerate(config.sigma2):
        results = every[i * R:(i + 1) * R]
        for meth in config.methods:
            thetas = np.array([res[meth][0] for res in results])
            secs = float(sum(res[meth][1] for res in results))
            errors = [(r, res[meth][2]) for r, res in enumerate(results)
                      if res[meth][2] is not None]
            if len(errors) > MAX_FAILURE_FRACTION * R:
                detail = "; ".join(f"rep {r}: {msg}" for r, msg in errors[:5])
                raise RuntimeError(
                    f"{meth} failed in {len(errors)}/{R} replications at "
                    f"sigma2={s2}: {detail}")
            ok = thetas[np.isfinite(thetas)]
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


def check_report(report: SimulationReport, tol: float = 1e-10) -> list[str]:
    """Internal-consistency gate: MSE = SD^2 + bias^2 per row."""
    problems = []
    for r in report.rows:
        lhs = r.mse
        rhs = r.sd ** 2 + (r.mean - r.theta_star) ** 2
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) / scale > tol:
            problems.append(f"{r.method} sigma2={r.sigma2:g}: MSE identity off by "
                            f"{abs(lhs - rhs) / scale:.3e} relative")
    return problems


# ---------------------------------------------------------------------------
# Data files


def read_data_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headed UTF-8 CSV with columns x1..xd then y; cells must be finite."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliConfigError(f"data file not found: {path}")
    except UnicodeDecodeError as e:
        raise CliConfigError(f"{path}: not UTF-8 text ({e})")
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise CliConfigError(f"{path}: empty data file")
    header = [h.strip() for h in header]
    if "y" not in header:
        raise CliConfigError(f"{path}: column 'y' not found (header: {header})")
    y_idx = header.index("y")
    d = 1
    while f"x{d + 1}" in header:
        d += 1
    x_idx = []
    for j in range(1, d + 1):
        name = f"x{j}"
        if name not in header:
            raise CliConfigError(f"{path}: column {name!r} not found (header: {header})")
        x_idx.append(header.index(name))
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
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


def _grid_edges(est: CalibrationEstimate, config: RunConfig) -> list[str]:
    """Tuning values in ``est.meta`` at an end of a configured grid of two or more."""
    edges = []
    for key, grid in (("phi", config.phi_grid), ("lambda", config.lambda_grid)):
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
    model = config.system(config.sigma2[0]).computer_model
    results = _run_methods(config, pts, y, model, sandwich=True, log=log)
    lines = ["method,theta_hat,objective,lambda,phi,stderr,status"]
    for meth in config.methods:
        est, _, err = results[meth]
        if est is None:
            cells = [""] * 5 + [f"error: {err}".replace(",", ";")]
        else:
            se = None if est.covariance is None else np.sqrt(est.covariance[0, 0])
            cells = ["" if v is None else _fmt(v) for v in (
                est.theta_hat[0], est.objective_value, est.meta.get("lambda"),
                est.meta.get("phi"), se)] + ["ok"]
            edges = _grid_edges(est, config)
            if edges:
                _log(log, f"[calibrate] {meth} tuned on a grid edge: {', '.join(edges)}")
        lines.append(",".join([meth] + cells))
    Path(out_path).write_text("\n".join(lines) + "\n")
    _log(log, f"[calibrate] wrote {out_path}")
    return 0


def discrepancy_curve(example: str, theta_min: float, theta_max: float,
                      steps: int, quadrature_m: int = 256) -> np.ndarray:
    """Columns (theta, closed-form value, quadrature value)."""
    if steps < 2:
        raise CliConfigError("need at least 2 steps")
    if not (np.isfinite(theta_min) and np.isfinite(theta_max) and theta_min < theta_max):
        raise CliConfigError("need finite theta_min < theta_max")
    if example not in testbed.EXAMPLES:
        raise CliConfigError(f"unknown example {example!r}")
    make_model, _, closed = testbed.EXAMPLES[example]
    rule = _cached_rule(quadrature_m)
    objective = calibrate.l2_objective(testbed.zeta_true(rule.nodes[:, 0]),
                                       make_model(), rule)
    thetas = np.linspace(theta_min, theta_max, steps)
    with np.errstate(over="ignore"):  # past |theta| ~ 1e154 the distances are inf
        return np.column_stack([thetas, [closed(t) for t in thetas],
                                scan(objective, thetas[:, None])])


def cmd_discrepancy(example: str, theta_min: float, theta_max: float,
                    steps: int, out_path: str | Path, quadrature_m: int = 256,
                    check: bool = False, log=STDERR) -> int:
    rows = discrepancy_curve(example, theta_min, theta_max, steps, quadrature_m)
    lines = ["theta,closed_form,quadrature"]
    for t, cf, qv in rows:
        lines.append(f"{_fmt(t)},{_fmt(cf)},{_fmt(qv)}")
    Path(out_path).write_text("\n".join(lines) + "\n")
    _log(log, f"[discrepancy] wrote {out_path}")
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
    Path(out_path).write_text(report.to_csv())
    _log(log, f"[simulate] wrote {out_path}")
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


def _build_parser() -> argparse.ArgumentParser:
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
    sd.add_argument("--example", default="example2",
                    choices=["example1", "example2"])
    sd.add_argument("--theta-min", type=float, default=-2.0)
    sd.add_argument("--theta-max", type=float, default=2.0)
    sd.add_argument("--steps", type=int, default=401)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "discrepancy":
            out = args.out or "discrepancy.csv"
            m = 256
            if args.config:
                m = load_config(args.config).quadrature_m
            return cmd_discrepancy(args.example, args.theta_min, args.theta_max,
                                   args.steps, out, m, check=args.check)
        config = load_config(args.config) if args.config else RunConfig()
        if args.out:
            config = replace(config, output=args.out)
        if args.command == "calibrate":
            return cmd_calibrate(config, args.data, config.output)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        return cmd_simulate(config, config.output, workers=args.workers,
                            check=args.check)
    except CliConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (rkhs.FitError, np.linalg.LinAlgError, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
