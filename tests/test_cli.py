import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import cli, kernels, rkhs, testbed
from l2calib.calibrate import fit_response_surface
from l2calib.cli import (CliConfigError, RunConfig, check_report, cmd_calibrate,
                         load_config, main, read_data_csv, simulate)


BUNDLED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write_config(path, **overrides):
    doc = {
        "example": "example2",
        "methods": ["L2", "OLS"],
        "sigma2": [0.01],
        "replications": 2,
        "seed": 7,
        "design": {"kind": "fixed_grid", "n": 51},
        "quadrature_m": 128,
        "optimizer": {"grid_points": 201, "tolerance": 1e-8},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def write_data_csv(path, pts, y):
    lines = ["x1,y"] + [f"{x:.17g},{v:.17g}" for x, v in zip(pts[:, 0], y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of its calls."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def write_noiseless_example1_csv(path):
    system = testbed.make_system("example1", 0.0)
    return write_data_csv(path, *testbed.generate(system, 0, 0))


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.example == "example2"
        assert cfg.methods == ("L2", "OLS")
        assert cfg.sigma2 == (0.01,)
        assert cfg.optimizer.grid_points == 201

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        doc = json.loads(p.read_text())
        doc["replicatons"] = 5
        p.write_text(json.dumps(doc))
        with pytest.raises(CliConfigError, match="replicatons"):
            load_config(p)

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         design={"kind": "fixed_grid", "count": 51})
        with pytest.raises(CliConfigError, match="count"):
            load_config(p)

    def test_unknown_method_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", methods=["L2", "GLS"])
        with pytest.raises(CliConfigError, match="GLS"):
            load_config(p)

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(CliConfigError, match="not valid JSON"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("path", BUNDLED_CONFIGS, ids=lambda p: p.name)
    def test_bundled_config_loads(self, path):
        assert load_config(path).output == f"{path.stem}.csv"

    def test_integral_numbers_are_integers(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", replications=1e3, seed=2.0))
        assert (cfg.replications, cfg.seed) == (1000, 2)
        assert type(cfg.replications) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("override,key", [
        ({"replications": 2.7}, "replications"),
        ({"design": {"kind": "fixed_grid", "n": 50.9}}, "design.n"),
        ({"quadrature_m": "12"}, "quadrature_m"),
        ({"seed": True}, "seed"),
        ({"sigma2": [0.1, True]}, "sigma2"),
        ({"output": 5}, "output"),
    ], ids=["fractional_int", "fractional_nested_int", "string_int", "bool_int",
            "bool_float", "number_string"])
    def test_ill_typed_value_is_one_error_line_naming_the_key(self, tmp_path, capsys,
                                                              override, key):
        cfg = write_config(tmp_path / "c.json", **override)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}")


class TestDataCsv:
    def test_missing_y_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,value\n1.0,2.0\n")
        with pytest.raises(CliConfigError, match="column 'y' not found"):
            read_data_csv(p)

    def test_parse_error_names_line_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(CliConfigError, match="line 3, column 'x1'"):
            read_data_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x1", "y"])
    def test_non_finite_cell_is_one_error_line(self, tmp_path, capsys, cell, column):
        row = f"{cell},3.0" if column == "x1" else f"2.0,{cell}"
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,2.0\n" + row + "\n2.5,1.0\n")
        with pytest.raises(CliConfigError, match=f"line 3, column '{column}'"):
            read_data_csv(data)
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        code = main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(data) in lines[0] and f"line 3, column '{column}'" in lines[0]
        assert not (tmp_path / "fit.csv").exists()

    def test_good_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.5\n1.5,2.5\n")
        pts, y = read_data_csv(p)
        assert pts.shape == (2, 1)
        assert np.array_equal(y, [1.5, 2.5])

    def test_multidimensional_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0.5,0.1,1.5\n1.5,0.2,2.5\n")
        pts, _ = read_data_csv(p)
        assert pts.shape == (2, 2)


class TestCalibrateCommand:
    def test_noiseless_example1_and_determinism(self, tmp_path):
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1",
                           methods=["L2", "OLS"])
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out1)]) == 0
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert rows[0].startswith("method,theta_hat")
        l2_row = next(r for r in rows if r.startswith("L2,"))
        assert float(l2_row.split(",")[1]) == pytest.approx(-1.0, abs=1e-3)
        assert l2_row.rstrip().endswith("ok")

    def test_method_failure_isolated_per_row(self, tmp_path):
        # two observations: least squares works, the GP method needs
        # three and must fail in its own row only
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,0.9\n4.0,-0.6\n")
        cfg = write_config(tmp_path / "c.json", methods=["OLS", "KO"])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().strip().splitlines()[1:]}
        assert rows["OLS"].rstrip().endswith("ok")
        assert "error" in rows["KO"]
        assert "at least 3" in rows["KO"]

    def test_standard_errors_emitted_for_smooth_model(self, tmp_path):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 3, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.read_text().strip().splitlines()[1:]}
        assert float(rows["L2"][5]) > 0.0
        assert float(rows["OLS"][5]) > 0.0
        assert rows["KO"][5] == ""

    def test_grid_edge_selection_is_logged(self, tmp_path, capsys):
        # three tied points and one more: phi lands on the bottom of its grid
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1,0.5\n1,0.7\n1,0.6\n2,1.9\n")
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"]))
        out = tmp_path / "o.csv"
        assert cmd_calibrate(cfg, data, out, log=sys.stderr) == 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[:-1] == [
            f"[calibrate] {m} tuned on a grid edge: phi=0.01 (smallest of phi_grid)"
            for m in ("L2", "KO")]
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "method,theta_hat,objective,lambda,phi,stderr,status"
        assert [r.split(",")[-1] for r in rows[1:]] == ["ok"] * 3
        assert cmd_calibrate(cfg, data, out, log=None) == 0
        assert capsys.readouterr() == ("", "")

    def test_default_log_follows_redirected_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1", methods=["OLS"])
        out, buf = tmp_path / "o.csv", io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"[calibrate] wrote {out}"
        assert lines[1] == "[simulate] workers=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset"
        assert lines[2].startswith("[simulate] OLS ")
        assert lines[-1] == f"[simulate] wrote {tmp_path / 'r.csv'}"
        assert capsys.readouterr() == ("", "")

    def test_interior_selection_logs_nothing(self, tmp_path, capsys):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 3, 0))
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"]))
        assert cmd_calibrate(cfg, data, tmp_path / "o.csv", log=sys.stderr) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"[calibrate] wrote {tmp_path / 'o.csv'}"]


class TestTuneOnce:
    """phi and lambda are tuned once per dataset and shared by every method."""

    def test_calibrate_tunes_once_for_all_methods(self, tmp_path, monkeypatch):
        system = testbed.make_system("example2", 0.1, "uniform_random", 101)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 4, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        eigh = counting(monkeypatch, np.linalg, "eigh")
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert len(loo) == 1
        assert len(eigh) <= len(rkhs.DEFAULT_PHI_GRID) + 1
        rows = (tmp_path / "o.csv").read_text().strip().splitlines()[1:]
        assert all(r.endswith(",ok") for r in rows)

    def test_uniform201_sweep_decomposes_few_gram_matrices(self, monkeypatch):
        # the low-rank sweep leaves eigh to the capped candidates and the
        # winner; a silent fall back to one eigh per candidate reads 15
        system = testbed.make_system("example2", 0.1, "uniform_random", 201)
        pts, y = testbed.generate(system, 0, 0)
        grams = counting(monkeypatch, kernels, "gram")
        eigh = counting(monkeypatch, np.linalg, "eigh")
        fit_response_surface(pts, y, rkhs.KernelConfig())
        assert len(grams) == len(rkhs.DEFAULT_PHI_GRID)
        assert 1 <= len(eigh) <= 5

    def test_grid51_sweep_scores_candidates_from_a_factor(self, monkeypatch):
        # small designs take the low-rank sweep too; one eigh per candidate reads 15
        pts, y = testbed.generate(testbed.make_system("example2", 0.01), 0, 0)
        eigh = counting(monkeypatch, np.linalg, "eigh")
        fit_response_surface(pts, y, rkhs.KernelConfig())
        assert pts.shape[0] == 51 and 1 <= len(eigh) < len(rkhs.DEFAULT_PHI_GRID)

    def test_replication_tunes_once_for_l2_and_ko(self, monkeypatch):
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        cfg = RunConfig(example="example2", methods=("L2", "KO"), sigma2=(0.01,),
                        replications=1, seed=3, quadrature_m=128)
        simulate(cfg, log=None)
        assert len(loo) == 1

    def test_tuning_failure_fails_each_method_that_needs_it(self, tmp_path):
        # a vanishing penalty makes every GCV score 0/0: tuning fails, and
        # the L2 and KO rows carry the error the one surface fit raises
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 5, 0)
        data = write_data_csv(tmp_path / "d.csv", pts, y)
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"],
                           lambda_grid=[1e-300])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().strip().splitlines()[1:]}
        assert rows["OLS"].endswith(",ok")
        kcfg = load_config(cfg).kernel_config()
        with pytest.raises(rkhs.FitError) as alone:
            fit_response_surface(pts, y, kcfg)
        for meth in ("L2", "KO"):
            assert rows[meth].endswith(f"error: FitError: {alone.value}")

    def test_failed_tuning_runs_the_sweep_once(self, tmp_path, monkeypatch):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 5, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"],
                           lambda_grid=[1e-300])
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert len(loo) == 1
        rows = {r.split(",")[0]: r for r in
                (tmp_path / "o.csv").read_text().strip().splitlines()[1:]}
        for meth in ("L2", "KO"):
            assert rows[meth].endswith("error: FitError: all GCV scores are non-finite")

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a calibrator")
        monkeypatch.setattr(cli, "ols_calibrate", broken)
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=3, quadrature_m=64)
        with pytest.raises(TypeError, match="bug in a calibrator"):
            simulate(cfg, log=None)

    def test_calibrate_without_log_is_silent(self, tmp_path, capsys):
        # a lambda grid whose GCV scores are all non-finite makes the shared
        # surface fit fail, which is logged
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,0.9\n2.0,0.5\n4.0,-0.6\n5.0,0.2\n")
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS"],
                                       lambda_grid=[1e-300]))
        assert cmd_calibrate(cfg, data, tmp_path / "o.csv", log=None) == 0
        assert capsys.readouterr() == ("", "")
        assert "error" in (tmp_path / "o.csv").read_text()


class TestSimulateCommand:
    def test_single_replication_identities(self):
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=1, seed=3, quadrature_m=128)
        report = simulate(cfg, log=None)
        row = report.rows[0]
        assert row.sd == 0.0
        assert row.mse == pytest.approx((row.mean - row.theta_star) ** 2, rel=1e-12)
        assert not check_report(report)

    def test_worker_count_does_not_change_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", replications=4,
                           methods=["L2", "OLS"])
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--workers", "1", "--check"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "2", "--check"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        headers = [line.split()[1] for line in capsys.readouterr().err.splitlines()
                   if "_NUM_THREADS=" in line]
        assert headers == ["workers=1", "workers=2"]

    @pytest.mark.parametrize("replications,want", [(1, None), (3, 3)])
    def test_pool_has_at_most_one_worker_per_task(self, monkeypatch, replications, want):
        # a recording stand-in for the pool, mapping serially: no process starts
        import concurrent.futures
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=replications, seed=1, quadrature_m=64)
        log = io.StringIO()
        simulate(cfg, workers=64, log=log)
        assert sizes == ([] if want is None else [want])
        assert log.getvalue().split()[1] == f"workers={want or 1}"

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_rejected(self, workers):
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=1, quadrature_m=64)
        with pytest.raises(CliConfigError, match="workers must be at least 1"):
            simulate(cfg, workers=workers, log=None)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", methods=["OLS"], replications=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a),
                     "--seed", "11"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b),
                     "--seed", "12"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_list_theta_domain(self):
        cfg = RunConfig(theta_domain=[-2.0, 2.0], replications=1, methods=("OLS",))
        assert cfg.theta_domain == (-2.0, 2.0)
        assert [r.reps for r in simulate(cfg, log=None).rows] == [1, 1]

    def test_report_layout(self, tmp_path):
        cfg = RunConfig(example="example1", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=5, quadrature_m=64)
        report = simulate(cfg, log=None)
        text = report.to_csv()
        header, *rows = text.strip().splitlines()
        assert header == "method,sigma2,mean,mse,sd,reps,theta_star"
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[0] == "OLS"
        assert int(fields[5]) == 2


class TestDiscrepancyCommand:
    def test_curve_and_check(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["discrepancy", "--example", "example2", "--steps", "401",
                     "--out", str(out), "--check"]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (401, 3)
        i = int(np.argmin(rows[:, 1]))
        assert rows[i, 0] == pytest.approx(-0.1789, abs=5e-3)

    def test_example1_touches_zero_at_minus_one(self, tmp_path):
        out = tmp_path / "c1.csv"
        assert main(["discrepancy", "--example", "example1", "--steps", "401",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        at = np.isclose(rows[:, 0], -1.0)
        assert at.any()
        assert rows[at, 1][0] == pytest.approx(0.0, abs=1e-12)
        assert rows[at, 2][0] == pytest.approx(0.0, abs=1e-10)

    def test_quadrature_calls_the_testbed_simulator(self, monkeypatch):
        calls = counting(monkeypatch, testbed, "ys_example2")
        rows = cli.discrepancy_curve("example2", -1.0, 1.0, 3, quadrature_m=16)
        # the three thetas go to the simulator as one block
        assert len(calls) == 1 and calls[0][1].ravel().tolist() == [-1.0, 0.0, 1.0]
        assert rows.shape == (3, 3)

    def test_check_fails_where_the_distance_overflows(self, tmp_path):
        # at |theta| = 1e300 both columns are inf, so their agreement is NaN
        out = tmp_path / "big.csv"
        assert main(["discrepancy", "--theta-min", "-1e300", "--theta-max", "1e300",
                     "--steps", "3", "--out", str(out), "--check"]) == 3
        assert out.read_text().splitlines()[1] == "-1.0000000000000001e+300,inf,inf"

    def test_overflowing_range_prints_no_warning(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["discrepancy", "--theta-min", "-1e300", "--theta-max", "1e300",
                         "--steps", "3", "--out", str(tmp_path / "big.csv"),
                         "--check"]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_rejects_bad_range(self, tmp_path):
        assert main(["discrepancy", "--theta-min", "2.0", "--theta-max", "-2.0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("bound", [["--theta-min", "nan"], ["--theta-max", "inf"]],
                             ids=["min-nan", "max-inf"])
    def test_rejects_non_finite_bound(self, tmp_path, capsys, bound):
        out = tmp_path / "x.csv"
        assert main(["discrepancy", *bound, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: need finite theta_min < theta_max"]
        assert not out.exists()

    @pytest.mark.parametrize("bound,row,value", [
        (["--theta-min", "-1e-3"], 0, -1e-3),
        (["--theta-min=-1e-3"], 0, -1e-3),
        (["--theta-max", "1e3"], -1, 1e3),
    ], ids=["min-spaced", "min-equals", "max-exponent"])
    def test_accepts_bounds_in_exponent_form(self, tmp_path, bound, row, value):
        out = tmp_path / "x.csv"
        assert main(["discrepancy", *bound, "--steps", "3", "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",", skiprows=1)[row, 0] == value


class TestConfigErrors:
    @pytest.mark.parametrize("override", [
        {"theta_domain": [1]},
        {"replications": "abc"},
        {"quadrature_m": 0},
        {"design": {"kind": "uniform_random", "n": 0}},
        {"kernel": "gaussian"},
        {"kernel": {"family": "foo"}},
        {"replications": float("inf")},
        {"theta_domain": [float("nan"), 1.0]},
        {"sigma2": [float("nan")]},
        {"sigma2": [float("inf")]},
        {"phi_grid": [0.5, float("nan")]},
        {"lambda_grid": [float("nan")]},
        {"phi_grid": []},
        {"lambda_grid": [1e-2, 1e-4]},
        {"optimizer": {"tolerance": float("nan")}},
        {"seed": -1},
        {"design": {"kind": "fixed_grid", "n": 7}},
        {"optimizer": {"grid_points": 401 ** 2 + 1}},
        {"methods": ["L2", "L2"]},
    ], ids=["theta_domain", "replications", "quadrature_m", "design_n",
            "kernel_string", "kernel_family", "replications_infinity",
            "theta_domain_nan", "sigma2_nan", "sigma2_inf", "phi_grid_nan",
            "lambda_grid_nan", "phi_grid_empty", "lambda_grid_unsorted", "tolerance_nan",
            "seed_negative", "fixed_grid_n", "grid_points_over_cap",
            "methods_repeated"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "c.json", **override)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestExitCodes:
    @pytest.mark.parametrize("argv,prefix", [
        (["discrepancy", "--seed", "3"], "error: l2calib"),
        (["calibrate", "--seed", "3", "--data", "d.csv"], "error: l2calib"),
        (["calibrate", "--workers", "2", "--data", "d.csv"], "error: l2calib"),
        (["calibrate", "--check", "--data", "d.csv"], "error: l2calib"),
        (["simulate", "--bogus"], "error: l2calib"),
        (["calibrate"], "error: l2calib"),
        # the override goes through RunConfig's own check
        (["simulate", "--seed", "-1"], "error: seed must be nonnegative"),
        (["simulate", "--workers", "0"], "error: workers must be at least 1"),
        (["simulate", "--workers", "-2"], "error: workers must be at least 1"),
    ], ids=["discrepancy-seed", "calibrate-seed", "calibrate-workers", "calibrate-check",
            "unknown", "missing-data", "negative-seed", "zero-workers", "negative-workers"])
    def test_usage_error_is_one(self, capsys, argv, prefix):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    def test_config_error_is_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"example": "example9"}))
        assert main(["simulate", "--config", str(p)]) == 1

    def test_custom_example_needs_api(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"example": "custom"}))
        assert main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # GP calibration needs >= 3 observations, so every replication
        # fails and the failure-rate gate aborts the run
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "example": "example2", "methods": ["KO"], "sigma2": [0.01],
            "replications": 2, "seed": 1,
            "design": {"kind": "uniform_random", "n": 2}}))
        assert main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 2


# Values a JSON config may hold, including the non-standard NaN/Infinity
# that Python's json module reads and writes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["example1", "L2", "KO", "uniform_random", "matern", "1e3", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "nu", "x"]), inner, max_size=2),
    max_leaves=5)
VALID_DOC = {
    "example": "example2", "methods": ["L2"], "sigma2": [0.01], "replications": 2,
    "seed": 1, "design": {"kind": "fixed_grid", "n": 51},
    "kernel": {"family": "gaussian", "nu": None},
    "optimizer": {"grid_points": 11, "tolerance": 1e-8, "max_iterations": 5},
    "phi_grid": [0.1, 1.0], "lambda_grid": [1e-4, 1e-2], "quadrature_m": 8,
    "theta_domain": [-2.0, 2.0], "output": "r.csv"}
# Every known key, dotted for nested ones, plus unknown ones.
FUZZ_KEYS = sorted(VALID_DOC) + ["bogus", "kernel.bogus"] + [
    f"{k}.{sub}" for k, v in VALID_DOC.items() if isinstance(v, dict) for sub in v]
CSV_CELLS = ["x1", "x2", "y", "", " 1.5", "-2e3", "nan", "inf", "-inf", "1_0",
             "0x1", '"3"', "1e999"]


class TestParserFuzz:
    """Either a parsed value or CliConfigError: never another exception."""

    @settings(max_examples=150, deadline=None)
    @given(changes=st.dictionaries(st.sampled_from(FUZZ_KEYS), json_values, max_size=3))
    def test_load_config(self, tmp_path_factory, changes):
        doc = json.loads(json.dumps(VALID_DOC))
        for key, value in changes.items():
            head, _, sub = key.partition(".")
            if not sub:
                doc[head] = value
            elif isinstance(doc.get(head), dict):
                doc[head][sub] = value
        path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
        path.write_text(json.dumps(doc))
        try:
            assert isinstance(load_config(path), RunConfig)
        except CliConfigError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(header=st.sampled_from(["x1,y", "y,x1", "x1,x2,y", "x2,y", "x1", "", "y"]),
           rows=st.lists(st.lists(st.sampled_from(CSV_CELLS), max_size=4), max_size=4),
           noise=st.text(max_size=12))
    def test_read_data_csv(self, tmp_path_factory, header, rows, noise):
        text = "\n".join([header] + [",".join(r) for r in rows]) + noise
        path = tmp_path_factory.getbasetemp() / "fuzz_data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            pts, y = read_data_csv(path)
        except CliConfigError:
            return
        assert pts.ndim == 2 and pts.shape[0] == y.shape[0] > 0
        assert np.all(np.isfinite(pts)) and np.all(np.isfinite(y))
