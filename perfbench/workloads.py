"""The benchmark's workloads: inputs made from a seed, the call a user
makes, and the check of what it returns.

Each workload owns ``datasets`` distinct datasets per seed and cycles
through them for as long as a run measures.  A simulate call runs one
replication (``replications = 1``) through ``l2calib.cli.simulate``, so
its wall time is the latency of one replication; dataset ``k`` of seed
``s`` is the study seed ``s * datasets + k``.  A calibrate call runs
``l2calib.cli.main(["calibrate", ...])`` in process on one CSV written
from ``testbed.generate(system, s, k)``.

Outputs are compared with the goldens in ``goldens/`` when the seed is
the golden seed, and otherwise with the program's own invariants: the
MSE identity of ``cli.check_report`` for ``simulate`` and the status
column for ``calibrate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from l2calib import cli, testbed

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_SEED = 0
# Every golden field must agree to TOLERANCE, absolute below 1 and relative
# above, so that a refactor may reorder floating-point sums but not move an
# estimate.
TOLERANCE = 1e-6
THETA_BOX = (-2.0, 2.0)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def _number(cell: str) -> float | None:
    return float(cell) if cell else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    example: str
    methods: tuple[str, ...]
    sigma2: float
    design: str
    n: int
    datasets: int   # distinct datasets per seed, cycled through


class Simulate(Workload):
    """One replication per call of a ``simulate`` study."""

    def inputs(self, seed: int, workdir: Path, write: bool = True) -> list:
        return [cli.RunConfig(example=self.example, methods=self.methods,
                              sigma2=(self.sigma2,), replications=1,
                              seed=seed * self.datasets + k, design=self.design,
                              design_n=self.n)
                for k in range(self.datasets)]

    def call(self, inputs: list, k: int) -> str:
        """Run dataset ``k``; return the report CSV or ``error: ...``."""
        try:
            report = cli.simulate(inputs[k % self.datasets], log=None)
        except RuntimeError as e:  # the engine's documented numerical failure
            return f"error: {e}"
        return report.to_csv()

    def parse(self, output: str) -> dict[str, dict]:
        if output.startswith("error:"):
            return {}
        lines = output.strip().splitlines()
        rows = {}
        for line in lines[1:]:
            method, _sigma2, mean, mse, sd, reps, theta_star = line.split(",")
            rows[method] = {"theta": float(mean), "mse": float(mse), "sd": float(sd),
                            "reps": int(reps), "theta_star": float(theta_star)}
        return rows

    def invariants(self, output: str) -> dict[str, str]:
        """Per-method problems the program's own checks find."""
        if output.startswith("error:"):
            return {m: output for m in self.methods}
        rows = self.parse(output)
        problems = {}
        for method, row in rows.items():
            if row["reps"] != 1:
                problems[method] = f"reps {row['reps']} != 1"
            elif not THETA_BOX[0] <= row["theta"] <= THETA_BOX[1]:
                problems[method] = f"theta {row['theta']} outside the box"
        for line in cli.check_report(_report_from_rows(rows, self.sigma2)):
            problems.setdefault(line.split()[0], line)
        return problems


def _report_from_rows(rows: dict[str, dict], sigma2: float) -> cli.SimulationReport:
    summaries = tuple(
        cli.MethodSummary(method=m, sigma2=sigma2, mean=r["theta"], mse=r["mse"],
                          sd=r["sd"], reps=r["reps"], theta_star=r["theta_star"],
                          wall_time_s=0.0, failures=0)
        for m, r in rows.items())
    theta_star = summaries[0].theta_star if summaries else float("nan")
    return cli.SimulationReport(theta_star=theta_star, rows=summaries)


class Calibrate(Workload):
    """One in-process ``l2calib calibrate`` per call on a pre-written CSV."""

    def inputs(self, seed: int, workdir: Path, write: bool = True) -> list:
        config = workdir / "config.json"
        argvs = [["calibrate", "--config", str(config),
                  "--data", str(workdir / f"data{k}.csv"),
                  "--out", str(workdir / "fit.csv")] for k in range(self.datasets)]
        if write:
            config.write_text(json.dumps({
                "example": self.example, "methods": list(self.methods),
                "sigma2": [self.sigma2], "seed": seed,
                "design": {"kind": self.design, "n": self.n}}))
            system = testbed.make_system(self.example, self.sigma2, self.design, self.n)
            for k in range(self.datasets):
                pts, y = testbed.generate(system, seed, k)
                # %.17g keeps every bit and writes plain numbers; repr() of a
                # numpy scalar would write "np.float64(...)".
                rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(pts[:, 0], y))
                (workdir / f"data{k}.csv").write_text("x1,y\n" + rows)
        return argvs

    def call(self, inputs: list, k: int) -> str:
        """Run dataset ``k``; return the output CSV or ``error: exit N``."""
        argv = inputs[k % self.datasets]
        code = cli.main(argv)
        if code != 0:
            return f"error: exit {code}"
        return Path(argv[-1]).read_text()

    def parse(self, output: str) -> dict[str, dict]:
        if output.startswith("error:"):
            return {}
        rows = {}
        for line in output.strip().splitlines()[1:]:
            method, theta, objective, lam, phi, stderr, status = line.split(",", 6)
            rows[method] = {"theta": _number(theta), "objective": _number(objective),
                            "lambda": _number(lam), "phi": _number(phi),
                            "stderr": _number(stderr), "status": status}
        return rows

    def invariants(self, output: str) -> dict[str, str]:
        if output.startswith("error:"):
            return {m: output for m in self.methods}
        problems = {}
        for method, row in self.parse(output).items():
            if row["status"] != "ok":
                problems[method] = row["status"]
            elif not THETA_BOX[0] <= row["theta"] <= THETA_BOX[1]:
                problems[method] = f"theta {row['theta']} outside the box"
            elif method in ("L2", "OLS") and row["stderr"] is None:
                problems[method] = "no standard error for a smooth model"
        return problems


WORKLOADS = {w.name: w for w in (
    Simulate("table2-grid51",
             "imperfect-model table: fixed 51-point grid, L2+OLS+KO; KO and two LOO-phi passes dominate",
             example="example2", methods=("L2", "OLS", "KO"), sigma2=0.01,
             design="fixed_grid", n=51, datasets=64),
    Simulate("sandwich-unif201",
             "sandwich-validity study: uniform n=201, L2+OLS, no KO; Gram, eigh and GCV dominate",
             example="example2", methods=("L2", "OLS"), sigma2=0.1,
             design="uniform_random", n=201, datasets=64),
    Calibrate("calibrate-unif101",
              "one user waits on calibrate: CSV and config parsing, duplicate surface fit, sandwich",
              example="example2", methods=("L2", "OLS", "KO"), sigma2=0.1,
              design="uniform_random", n=101, datasets=32),
)}


def load_golden(workload) -> dict | None:
    path = GOLDEN_DIR / f"{workload.name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def check(workload, output: str, k: int, golden: list | None) -> dict[str, str]:
    """Problems per method for dataset ``k``; empty when every fit is right.

    ``golden`` is the golden's dataset list when the run uses the golden
    seed, else None and only the invariants apply.
    """
    problems = workload.invariants(output)
    rows = workload.parse(output)
    for method in workload.methods:
        if method not in rows:
            problems.setdefault(method, "missing from the output")
    if golden is not None:
        want = golden[k % workload.datasets]
        for method in workload.methods:
            got = rows.get(method, {})
            for field, value in want.get(method, {}).items():
                mine = got.get(field)
                if isinstance(value, float) and not (
                        isinstance(mine, float) and math.isfinite(mine) and close(mine, value)):
                    problems.setdefault(method, f"{field} {mine} != golden {value}")
                elif not isinstance(value, float) and mine != value:
                    problems.setdefault(method, f"{field} {mine!r} != golden {value!r}")
    return problems


def check_outputs(workload, outputs: list[tuple[int, str]],
                  golden: list | None) -> list[str]:
    """One message per failed fit over (call index, output) pairs.

    Beyond the golden or invariant check, every repeat of a dataset must
    reproduce its first output byte for byte.
    """
    first: dict[int, str] = {}
    messages = []
    for k, output in outputs:
        d = k % workload.datasets
        problems = check(workload, output, d, golden)
        if output != first.setdefault(d, output):
            for method in workload.methods:
                problems.setdefault(method, "differs from the first run of this dataset")
        messages += [f"dataset {d} {m}: {p}" for m, p in sorted(problems.items())]
    return messages


def check_traced(workload, plain: list[tuple[int, str]], traced: list[tuple[int, str]],
                 estimates: list[tuple[int, str, float, bool]],
                 golden: list | None) -> list[str]:
    """One message per traced fit that differs from its untraced twin.

    Outputs must match byte for byte, and each calibrator's estimate as
    the tracer saw it must equal the untraced output's theta bit for bit
    (and the golden theta, at the golden seed).
    """
    problems: dict[tuple[int, str], str] = {}
    for (k, out), (_, out_traced) in zip(plain, traced):
        if out_traced != out:
            for method in workload.methods:
                problems[k, method] = "traced output differs"
    rows = {k: workload.parse(out) for k, out in plain}
    for k, method, theta, _ in estimates:
        want = rows.get(k, {}).get(method, {}).get("theta")
        if want != theta:
            problems.setdefault((k, method), f"traced theta {theta!r} != untraced {want!r}")
        elif golden is not None and not close(theta, golden[k][method]["theta"]):
            problems.setdefault((k, method), f"traced theta {theta!r} != golden")
    return [f"dataset {k} {m}: {p}" for (k, m), p in sorted(problems.items())]
