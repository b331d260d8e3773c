"""What a fresh interpreter imports: no scipy, and multiprocessing only for
a worker pool.

The pytest session has usually imported both already, so each check runs
in a child interpreter started with ``sys.executable``.
"""

import json
import subprocess
import sys
from pathlib import Path

from l2calib import testbed

SRC = Path(__file__).resolve().parents[1] / "src"

# A two-parameter minimize, whose sine term keeps the minimum off the grid,
# and a two-parameter KO fit; both leave their results in ``got``.
TWO_PARAMETERS = """
import numpy as np
from l2calib.calibrate import ComputerModel, ko_calibrate
from l2calib.numerics import BoxDomain, OptimizerConfig, minimize
from l2calib.rkhs import KernelConfig, fit_response_surface
res = minimize(lambda t: (t[:, 0] - 0.4) ** 2 + 2.0 * (t[:, 1] + 0.7) ** 2
               + 0.1 * np.sin(3.0 * t[:, 0] * t[:, 1]),
               BoxDomain((-2.0, -1.5), (2.0, 1.0)), OptimizerConfig(grid_points=21, tolerance=1e-10))
model = ComputerModel(eval=lambda p, ths: ths[:, :1] * np.sin(p[:, 0]) + ths[:, 1:],
                      theta_domain=BoxDomain((-2.0, -2.0), (2.0, 2.0)))
x = np.linspace(0.0, 6.0, 12)[:, None]
surface = fit_response_surface(x, 0.5 * np.sin(x[:, 0]) + 0.3 + 0.05 * np.cos(2.0 * x[:, 0]),
                               KernelConfig(phi_grid=(1.0,)))
est = ko_calibrate(surface, model, OptimizerConfig(grid_points=21))
got = {"x": [v.hex() for v in res.x], "fun": res.fun.hex(), "iterations": res.iterations,
       "ko": [v.hex() for v in est.theta_hat], "ko_fun": est.objective_value.hex()}
"""


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter that imports l2calib from this
    checkout; ``sys.argv[1:]`` holds ``args``.  Returns the JSON document
    the code prints last."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = """
def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "multiprocessing"})
"""


def test_one_parameter_calibrate_and_simulate_load_neither_scipy_nor_multiprocessing(tmp_path):
    system = testbed.make_system("example2", 0.1, "uniform_random", 101)
    pts, y = testbed.generate(system, 0, 0)
    data = tmp_path / "d.csv"
    data.write_text("x1,y\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(pts[:, 0], y)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"example": "example2", "sigma2": [0.1], "replications": 1,
                                  "design": {"kind": "uniform_random", "n": 101}}))
    code = LOADED + """
from l2calib import cli
config, data, out = sys.argv[1:]
codes = [cli.main(["calibrate", "--config", config, "--data", data, "--out", out + "/c.csv"]),
         cli.main(["simulate", "--config", config, "--out", out + "/s.csv"])]
print(json.dumps({"codes": codes, "loaded": loaded()}))
"""
    got = run_fresh(code, str(config), str(data), str(tmp_path))
    assert got == {"codes": [0, 0], "loaded": []}
    assert (tmp_path / "c.csv").read_text().count(",ok\n") == 3


def test_two_parameter_minimize_and_ko_calibrate_load_neither_scipy_nor_multiprocessing():
    got = run_fresh(LOADED + TWO_PARAMETERS
                    + 'print(json.dumps({"loaded": loaded(), **got}))')
    here = {}
    exec(TWO_PARAMETERS, here)
    assert got == {"loaded": [], **here["got"]}
    assert here["got"]["iterations"] > 0  # refinement beat the grid point
